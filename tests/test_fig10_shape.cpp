/**
 * @file
 * Shape lock on the Fig. 10 headline: history DVS vs no DVS on the
 * paper's 8x8 mesh under the two-level workload (100 tasks x 128 ON/OFF
 * sources), at a light and a mid pre-saturation load.
 *
 * It bounds what the figure claims, not one realization of it: the
 * power savings factor sits in a band that falls with load, and DVS
 * delivers nearly the throughput of the full-speed network.  The bands
 * hold for seeds 1-8 under both the original event-per-toggle ON/OFF
 * generator and the closed source banks (EXPERIMENTS.md, "Closed ON/OFF
 * banks"), so a workload change that keeps the distribution passes and
 * one that breaks the headline fails.  The run is shortened (110k-cycle
 * warm-up, the DVS ladder's settling time at these loads, then a
 * 20k-cycle window) to stay within a few seconds on two threads.
 */

#include <gtest/gtest.h>

#include <vector>

#include "exp/runner.hpp"
#include "network/sweep.hpp"

using dvsnet::exp::ExperimentRunner;
using dvsnet::exp::PointJob;
using dvsnet::exp::RunnerOptions;
using dvsnet::network::ExperimentSpec;
using dvsnet::network::PolicyKind;
using dvsnet::network::RunResults;

TEST(Fig10Shape, SavingsBandAndThroughputLossVsNoDvs)
{
    struct Load
    {
        double rate;     ///< offered packets/cycle
        double minSave;  ///< savings-factor band
        double maxSave;
    };
    // Seeds 1-8 under both generators: 7.72-7.98x and 3.46-4.55x.
    const std::vector<Load> loads = {{0.4, 7.0, 8.8}, {1.2, 3.0, 5.2}};
    // Delivered-throughput loss vs no DVS within the window; the paper
    // reports < 2.5% at saturation.  Seeds 1-8 stayed under 3.3%: the
    // slower DVS network still holds more packets in flight when a
    // short window closes.
    constexpr double kMaxLoss = 0.04;

    ExperimentSpec spec;  // paper defaults: 8x8 mesh, 100 x 128 sources
    spec.warmup = 110000;
    spec.measure = 20000;

    RunnerOptions options;
    options.threads = 2;
    ExperimentRunner runner(options);
    for (const PolicyKind policy : {PolicyKind::None, PolicyKind::History}) {
        spec.network.policy = policy;
        for (const Load &load : loads) {
            PointJob job;
            job.spec = spec;
            job.injectionRate = load.rate;
            job.seed = 12345;
            runner.submit(job);
        }
    }
    const auto results = runner.collect();
    ASSERT_EQ(results.size(), 2 * loads.size());

    std::vector<double> savings;
    for (std::size_t i = 0; i < loads.size(); ++i) {
        ASSERT_TRUE(results[i].ok) << results[i].error;
        ASSERT_TRUE(results[i + loads.size()].ok)
            << results[i + loads.size()].error;
        const RunResults &base = results[i].results;
        const RunResults &dvs = results[i + loads.size()].results;
        const double rate = loads[i].rate;

        EXPECT_GT(dvs.savingsFactor, loads[i].minSave) << "rate " << rate;
        EXPECT_LT(dvs.savingsFactor, loads[i].maxSave) << "rate " << rate;
        savings.push_back(dvs.savingsFactor);

        const double loss =
            1.0 - dvs.throughputPktsPerCycle / base.throughputPktsPerCycle;
        EXPECT_LT(loss, kMaxLoss) << "rate " << rate;
        EXPECT_EQ(dvs.invariantFailures, 0u) << "rate " << rate;
    }
    // Normalized power rises with load, so the savings fall.
    EXPECT_GT(savings[0], savings[1] + 1.0);
}

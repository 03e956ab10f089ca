/**
 * @file
 * Experiment-driver tests: rate grids, saturation detection on synthetic
 * series, and the paper-summary comparison math.  End-to-end sweeps use
 * a small 4x4 network to stay fast.
 */

#include <gtest/gtest.h>

#include "exp/runner.hpp"
#include "network/sweep.hpp"

using dvsnet::network::DvsComparison;
using dvsnet::network::ExperimentSpec;
using dvsnet::network::PolicyKind;
using dvsnet::network::RunResults;
using dvsnet::network::SweepPoint;
using dvsnet::exp::ExperimentRunner;
using dvsnet::network::compareDvs;
using dvsnet::network::rateGrid;
using dvsnet::network::saturationThroughput;

namespace
{

ExperimentSpec
smallSpec(PolicyKind policy)
{
    ExperimentSpec spec;
    spec.network.radix = 4;
    spec.network.policy = policy;
    spec.workload.avgConcurrentTasks = 10;
    spec.workload.meanTaskDurationCycles = 2e4;
    spec.workload.sourcesPerTask = 16;
    spec.workload.seed = 5;
    spec.warmup = 5000;
    spec.measure = 20000;
    return spec;
}

SweepPoint
point(double rate, double latency, double throughput)
{
    SweepPoint p;
    p.injectionRate = rate;
    p.results.avgLatencyCycles = latency;
    p.results.throughputPktsPerCycle = throughput;
    p.results.savingsFactor = 2.0;
    return p;
}

} // namespace

TEST(RateGrid, EvenlySpacedInclusive)
{
    const auto rates = rateGrid(0.5, 2.0, 4);
    ASSERT_EQ(rates.size(), 4u);
    EXPECT_DOUBLE_EQ(rates[0], 0.5);
    EXPECT_DOUBLE_EQ(rates[1], 1.0);
    EXPECT_DOUBLE_EQ(rates[2], 1.5);
    EXPECT_DOUBLE_EQ(rates[3], 2.0);
}

TEST(Saturation, ReportsFirstPointPastLimit)
{
    // Zero-load 50 -> limit 100; the 3rd point is the first past it.
    // Its delivered throughput is reported as measured: nothing is
    // interpolated across its latency.
    std::vector<SweepPoint> series{point(0.5, 60, 0.5), point(1.0, 80, 1.0),
                                   point(1.5, 160, 1.2)};
    EXPECT_DOUBLE_EQ(saturationThroughput(series, 50.0), 1.2);
    series[2].results.avgLatencyCycles = 4000;
    EXPECT_DOUBLE_EQ(saturationThroughput(series, 50.0), 1.2);
}

TEST(Saturation, NeverSaturatedReturnsLastThroughput)
{
    std::vector<SweepPoint> series{point(0.5, 60, 0.5),
                                   point(1.0, 70, 1.0)};
    EXPECT_DOUBLE_EQ(saturationThroughput(series, 50.0), 1.0);
}

TEST(Saturation, ImmediateSaturationReturnsFirstThroughput)
{
    std::vector<SweepPoint> series{point(0.5, 200, 0.4),
                                   point(1.0, 400, 0.5)};
    EXPECT_DOUBLE_EQ(saturationThroughput(series, 50.0), 0.4);
}

TEST(Saturation, ExactlyTwiceZeroLoadDoesNotCountAsSaturated)
{
    // The paper's rule is "worsens to MORE than twice" — a point sitting
    // exactly on the limit is still pre-saturation.
    std::vector<SweepPoint> series{point(0.5, 100, 0.5),
                                   point(1.0, 100, 1.0)};
    EXPECT_DOUBLE_EQ(saturationThroughput(series, 50.0), 1.0);
}

TEST(Saturation, SinglePointSeries)
{
    // Unsaturated single point: its own throughput.
    std::vector<SweepPoint> calm{point(0.5, 60, 0.5)};
    EXPECT_DOUBLE_EQ(saturationThroughput(calm, 50.0), 0.5);
    // Saturated single point: no bracket to interpolate, same answer.
    std::vector<SweepPoint> hot{point(0.5, 500, 0.3)};
    EXPECT_DOUBLE_EQ(saturationThroughput(hot, 50.0), 0.3);
}

TEST(Saturation, LaterPointsDoNotMatter)
{
    // Only the first point past the limit matters: moving later points
    // must not change the result.
    std::vector<SweepPoint> series{point(0.5, 60, 0.5),
                                   point(1.0, 80, 1.0),
                                   point(1.5, 160, 1.2),
                                   point(2.0, 900, 0.9)};
    std::vector<SweepPoint> tailChanged = series;
    tailChanged[3] = point(2.0, 300, 1.4);
    EXPECT_DOUBLE_EQ(saturationThroughput(series, 50.0),
                     saturationThroughput(tailChanged, 50.0));
    EXPECT_DOUBLE_EQ(saturationThroughput(series, 50.0), 1.2);
}

TEST(CompareDvs, SummaryMath)
{
    std::vector<SweepPoint> base{point(0.5, 60, 0.5), point(1.0, 70, 1.0),
                                 point(1.5, 300, 1.1)};
    std::vector<SweepPoint> dvs{point(0.5, 66, 0.5), point(1.0, 84, 0.98),
                                point(1.5, 400, 1.05)};
    const DvsComparison cmp = compareDvs(base, dvs, 50.0, 55.0);
    EXPECT_NEAR(cmp.zeroLoadIncreasePct, 10.0, 1e-9);
    // Pre-saturation points: the first two (300 > 2*50).
    EXPECT_NEAR(cmp.preSatLatencyIncreasePct,
                ((66.0 / 60 + 84.0 / 70) / 2 - 1) * 100, 1e-9);
    EXPECT_NEAR(cmp.avgSavings, 2.0, 1e-9);
    EXPECT_NEAR(cmp.maxSavings, 2.0, 1e-9);
    // Both compared at the baseline's saturation point, the third.
    EXPECT_DOUBLE_EQ(cmp.saturationBase, 1.1);
    EXPECT_DOUBLE_EQ(cmp.saturationDvs, 1.05);
    EXPECT_NEAR(cmp.throughputLossPct, (1 - 1.05 / 1.1) * 100, 1e-9);
}

TEST(CompareDvs, ThroughputLossIgnoresSaturatedLatencies)
{
    // Three-point sweeps shaped like a DVSNET_POINTS=3 Fig. 10 run:
    // identical delivered throughputs, while the saturated top point's
    // latency (the noisiest number in a run) and the DVS curve's middle
    // latency, which sits near its own 2x limit, vary.  The reduction
    // must follow the delivered throughputs only.
    const double thrBase[] = {0.207, 1.464, 2.807};
    const double thrDvs[] = {0.207, 1.465, 2.805};
    const double perPointTopLoss = (1 - 2.805 / 2.807) * 100;
    for (const double topBase : {130.0, 1168.0, 5000.0}) {
        for (const double topDvs : {260.0, 2924.0, 9000.0}) {
            for (const double midDvs : {200.0, 219.0, 240.0}) {
                const std::vector<SweepPoint> base{
                    point(0.2, 63, thrBase[0]), point(1.3, 78, thrBase[1]),
                    point(2.4, topBase, thrBase[2])};
                const std::vector<SweepPoint> dvs{
                    point(0.2, 182, thrDvs[0]), point(1.3, midDvs, thrDvs[1]),
                    point(2.4, topDvs, thrDvs[2])};
                const DvsComparison cmp = compareDvs(base, dvs, 62.7, 110.0);
                EXPECT_NEAR(cmp.throughputLossPct, perPointTopLoss, 0.5)
                    << "top latencies " << topBase << "/" << topDvs
                    << ", DVS middle latency " << midDvs;
            }
        }
    }
}

TEST(SweepEndToEnd, RunPointProducesTraffic)
{
    const auto spec = smallSpec(PolicyKind::None);
    const RunResults res =
        dvsnet::exp::runPoint(spec, 0.2, spec.workload.seed);
    EXPECT_GT(res.packetsDelivered, 500u);
    EXPECT_GT(res.avgLatencyCycles, 10.0);
    EXPECT_NEAR(res.normalizedPower, 1.0, 1e-9);
}

TEST(SweepEndToEnd, PointsAreIndependentAndMonotoneInLoad)
{
    const auto series = ExperimentRunner::sweep(smallSpec(PolicyKind::None),
                                                {0.1, 0.4});
    ASSERT_EQ(series.size(), 2u);
    EXPECT_LT(series[0].results.throughputPktsPerCycle,
              series[1].results.throughputPktsPerCycle);
}

TEST(SweepEndToEnd, DvsPolicySavesPowerOnSweep)
{
    auto spec = smallSpec(PolicyKind::History);
    spec.warmup = 60000;  // let the levels settle
    const auto series = ExperimentRunner::sweep(spec, {0.1});
    EXPECT_GT(series[0].results.savingsFactor, 1.5);
}

TEST(SweepEndToEnd, ZeroLoadLatencyIsReasonable)
{
    const double zl = measureZeroLoadLatency(smallSpec(PolicyKind::None));
    EXPECT_GT(zl, 20.0);
    EXPECT_LT(zl, 120.0);
}

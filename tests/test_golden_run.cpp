/**
 * @file
 * Golden-master regression test: one fixed-seed 4x4-mesh run with the
 * history-DVS policy (plus a matched no-DVS reference point) pinned to
 * exact RunResults values.
 *
 * The simulator is seed-deterministic by design — same spec + seed must
 * reproduce bit-identical packet counts and (up to shortest-double
 * round-trip) identical derived metrics on any thread count.  Any
 * behavioral change to routing, flow control, the DVS protocol, the
 * power ledger or the workload model shows up here as a diff against
 * the pinned numbers; intentional changes must update the pins (and say
 * so in the commit).
 *
 * The pinned values were captured from the run itself (see the spec
 * below); tolerances are 1e-9 relative, far tighter than any
 * legitimate nondeterminism and far looser than double round-trip.
 * The two-level pins were last re-captured when the ON/OFF banks
 * became closed generators with per-source streams (a new realization
 * of the same distribution, locked by tests/test_onoff_distribution.cpp
 * and tests/test_fig10_shape.cpp; CHANGES.md has the argument).
 */

#include <gtest/gtest.h>

#include "exp/experiment.hpp"
#include "network/network.hpp"
#include "network/sweep.hpp"
#include "traffic/task_model.hpp"

using dvsnet::network::ExperimentSpec;
using dvsnet::network::Network;
using dvsnet::network::PolicyKind;
using dvsnet::network::RunResults;

namespace
{

constexpr std::uint64_t kGoldenSeed = 424242;

/** The golden configuration: small enough to run in ~a second. */
ExperimentSpec
goldenSpec(PolicyKind policy)
{
    ExperimentSpec spec;
    spec.network.radix = 4;  // 4x4 mesh
    spec.network.policy = policy;
    spec.workload.avgConcurrentTasks = 6.0;
    spec.workload.sourcesPerTask = 16;
    spec.workload.meanTaskDurationCycles = 1e5;
    spec.workload.seed = kGoldenSeed;
    spec.warmup = 8000;
    spec.measure = 12000;
    return spec;
}

constexpr double kInjectionRate = 0.2;
constexpr double kRelTol = 1e-9;

/**
 * Near-saturation congestion golden: minimal-adaptive routing plus the
 * dynamic-threshold policy, driven hard enough (rate 0.5 -> offered
 * ~0.82 pkts/cycle on a 4x4 mesh) that source queues back up, adaptive
 * route choices contend, and credit backpressure stays engaged through
 * the whole measurement window.  This freezes the congestion path —
 * the part of the hot loop most sensitive to event-order changes —
 * before/after serialization-batching rewrites.
 */
ExperimentSpec
adaptiveSaturationSpec()
{
    ExperimentSpec spec = goldenSpec(PolicyKind::DynamicThreshold);
    spec.network.routing = dvsnet::network::RoutingKind::MinimalAdaptive;
    return spec;
}

constexpr double kSaturationRate = 0.5;

void
expectNearRel(double actual, double expected, const char *what)
{
    EXPECT_NEAR(actual, expected,
                kRelTol * std::max(1.0, std::abs(expected)))
        << what;
}

} // namespace

TEST(GoldenRun, HistoryDvs4x4MeshPinnedResults)
{
    const RunResults r = dvsnet::exp::runPoint(
        goldenSpec(PolicyKind::History), kInjectionRate, kGoldenSeed);
    // Exact integer pins: any change in packet behavior trips these.
    EXPECT_EQ(r.measuredCycles, 12000u);
    EXPECT_EQ(r.packetsCreated, 3550u);
    EXPECT_EQ(r.packetsDelivered, 3535u);
    EXPECT_EQ(r.flitsEjected, 17832u);

    // Derived metrics, pinned to 1e-9 relative.
    expectNearRel(r.offeredLoadPktsPerCycle, 0.29583333333333334,
                  "offered load");
    expectNearRel(r.throughputPktsPerCycle, 0.29716666666666669,
                  "throughput pkts");
    expectNearRel(r.throughputFlitsPerCycle, 1.486,
                  "throughput flits");
    expectNearRel(r.avgLatencyCycles, 67.764621499292815,
                  "avg latency");
    expectNearRel(r.maxLatencyCycles, 408.591, "max latency");
    expectNearRel(r.normalizedPower, 0.61770514309958957,
                  "normalized power");
    expectNearRel(r.savingsFactor, 1.6188953761694274,
                  "savings factor");
    expectNearRel(r.avgChannelLevel, 1.875,
                  "avg channel level");

    // The invariants must actually have run, and cleanly.
    EXPECT_GT(r.invariantChecks, 0u);
    EXPECT_EQ(r.invariantFailures, 0u);
}

TEST(GoldenRun, HistoryDvs4x4MeshToggleBackendPinnedResults)
{
    // Same operating point as HistoryDvs4x4MeshPinnedResults but with
    // the data-dependent toggle link-power backend.  The packet-level
    // pins must match the table-backend run exactly — the backend only
    // changes energy accounting, never traffic — while the power pins
    // capture the payload-hash-driven per-flit charges.
    ExperimentSpec spec = goldenSpec(PolicyKind::History);
    spec.network.linkPowerSpec = "toggle";
    const RunResults r =
        dvsnet::exp::runPoint(spec, kInjectionRate, kGoldenSeed);
    EXPECT_EQ(r.measuredCycles, 12000u);
    EXPECT_EQ(r.packetsCreated, 3550u);
    EXPECT_EQ(r.packetsDelivered, 3535u);
    EXPECT_EQ(r.flitsEjected, 17832u);
    expectNearRel(r.avgLatencyCycles, 67.764621499292815,
                  "avg latency");

    expectNearRel(r.avgPowerW, 30.638740882395421, "avg power");
    expectNearRel(r.normalizedPower, 0.39894193857285698,
                  "normalized power");
    expectNearRel(r.transitionEnergyJ, 2.9199763896695905e-05,
                  "transition energy");
    expectNearRel(r.flitEnergyJ, 2.0744592137796813e-05,
                  "flit energy");
    expectNearRel(r.totalEnergyJ, 0.00036766489058874513,
                  "total energy");

    EXPECT_GT(r.invariantChecks, 0u);
    EXPECT_EQ(r.invariantFailures, 0u);
}

TEST(GoldenRun, NoDvs4x4MeshPinnedReferencePoint)
{
    const RunResults r = dvsnet::exp::runPoint(
        goldenSpec(PolicyKind::None), kInjectionRate, kGoldenSeed);
    EXPECT_EQ(r.measuredCycles, 12000u);
    EXPECT_EQ(r.packetsCreated, 3550u);
    EXPECT_EQ(r.packetsDelivered, 3537u);
    EXPECT_EQ(r.flitsEjected, 17774u);
    expectNearRel(r.avgLatencyCycles, 50.670941475826886,
                  "avg latency");
    // No DVS: links pinned at the fastest level, no savings.
    expectNearRel(r.normalizedPower, 1.0, "normalized power");
    expectNearRel(r.avgChannelLevel, 0.0, "avg channel level");
    EXPECT_EQ(r.transitionEnergyJ, 0.0);
    EXPECT_GT(r.invariantChecks, 0u);
    EXPECT_EQ(r.invariantFailures, 0u);
}

TEST(GoldenRun, AdaptiveDynamicThresholdNearSaturationPinnedResults)
{
    const RunResults r = dvsnet::exp::runPoint(
        adaptiveSaturationSpec(), kSaturationRate, kGoldenSeed);
    // Exact integer pins.  packetsDelivered << packetsCreated is the
    // point: the run is past the latency knee, so the congestion
    // machinery (credit stalls, adaptive misroutes, source-queue
    // backlog) is actually exercised.
    EXPECT_EQ(r.measuredCycles, 12000u);
    EXPECT_EQ(r.packetsCreated, 8932u);
    EXPECT_EQ(r.packetsDelivered, 6860u);
    EXPECT_EQ(r.flitsEjected, 39163u);

    expectNearRel(r.offeredLoadPktsPerCycle, 0.74433333333333329,
                  "offered load");
    expectNearRel(r.throughputPktsPerCycle, 0.65266666666666662,
                  "throughput pkts");
    expectNearRel(r.throughputFlitsPerCycle, 3.2635833333333335,
                  "throughput flits");
    expectNearRel(r.avgLatencyCycles, 921.8861612244898,
                  "avg latency");
    expectNearRel(r.maxLatencyCycles, 6816.162, "max latency");
    expectNearRel(r.avgPowerW, 48.996971436952826, "avg power");
    expectNearRel(r.normalizedPower, 0.63798139891865646,
                  "normalized power");
    expectNearRel(r.savingsFactor, 1.5674438184168773,
                  "savings factor");
    expectNearRel(r.transitionEnergyJ, 3.0324467491091963e-05,
                  "transition energy");
    expectNearRel(r.avgChannelLevel, 1.7083333333333333,
                  "avg channel level");

    EXPECT_GT(r.invariantChecks, 0u);
    EXPECT_EQ(r.invariantFailures, 0u);
}

TEST(GoldenRun, NamedInvariantsAllExercised)
{
    // Run the same golden network directly so the registry is visible:
    // each of the simulator's named invariants must have been checked.
    const ExperimentSpec spec = goldenSpec(PolicyKind::History);
    Network net(spec.network);
    dvsnet::traffic::TwoLevelParams wl = spec.workload;
    wl.networkInjectionRate = kInjectionRate;
    dvsnet::traffic::TwoLevelWorkload workload(net.topology(), wl);
    net.attachTraffic(workload);
    net.run(spec.warmup, spec.measure);

    for (const char *name :
         {"network.credit_conservation", "metrics.packet_accounting",
          "power.ledger_agreement", "dvs.transition_sequencing"}) {
        const dvsnet::SimAssert *inv =
            net.observability().findInvariant(name);
        ASSERT_NE(inv, nullptr) << name;
        EXPECT_GT(inv->checks(), 0u) << name;
        EXPECT_EQ(inv->failures(), 0u) << name;
    }
}

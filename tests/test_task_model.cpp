/**
 * @file
 * Two-level workload tests: Little's-law task concurrency, sphere-of-
 * locality destination bias, per-task rate calibration, reproducibility.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <map>

#include "common/rng.hpp"
#include "sim/kernel.hpp"
#include "topo/topology.hpp"
#include "traffic/task_model.hpp"

using dvsnet::Cycle;
using dvsnet::NodeId;
using dvsnet::Rng;
using dvsnet::cyclesToTicks;
using dvsnet::sim::Kernel;
using dvsnet::topo::KAryNCube;
using dvsnet::traffic::TwoLevelParams;
using dvsnet::traffic::TwoLevelWorkload;

namespace
{

TwoLevelParams
fastParams()
{
    TwoLevelParams p;
    p.avgConcurrentTasks = 20;
    p.meanTaskDurationCycles = 20000;
    p.networkInjectionRate = 0.2;
    p.sourcesPerTask = 16;  // keep the test cheap
    p.seed = 11;
    return p;
}

} // namespace

TEST(TwoLevel, InitialPopulationMatchesConcurrency)
{
    const KAryNCube m(8, 2, false);
    Kernel kernel;
    TwoLevelWorkload wl(m, fastParams());
    wl.start(kernel, [](const dvsnet::traffic::PacketRequest &) {});
    EXPECT_EQ(wl.activeTasks(), 20);
}

TEST(TwoLevel, ConcurrencyHoversAroundTarget)
{
    const KAryNCube m(8, 2, false);
    Kernel kernel;
    TwoLevelWorkload wl(m, fastParams());
    wl.start(kernel, [](const dvsnet::traffic::PacketRequest &) {});

    double sum = 0.0;
    const int samples = 50;
    for (int i = 1; i <= samples; ++i) {
        kernel.run(cyclesToTicks(static_cast<Cycle>(i) * 10000));
        sum += static_cast<double>(wl.activeTasks());
    }
    EXPECT_NEAR(sum / samples, 20.0, 5.0);
}

TEST(TwoLevel, TasksSpawnAndComplete)
{
    const KAryNCube m(8, 2, false);
    Kernel kernel;
    TwoLevelWorkload wl(m, fastParams());
    wl.start(kernel, [](const dvsnet::traffic::PacketRequest &) {});
    kernel.run(cyclesToTicks(200000));
    EXPECT_GT(wl.stats().tasksSpawned, 100u);
    EXPECT_GT(wl.stats().tasksCompleted, 100u);
    EXPECT_EQ(static_cast<std::int64_t>(wl.stats().tasksSpawned) -
                  static_cast<std::int64_t>(wl.stats().tasksCompleted),
              wl.activeTasks());
}

TEST(TwoLevel, RetainsBanksOnlyForActiveTasks)
{
    // A finished task's bank is freed at once: the workload holds one
    // task (and bank) per active session, and the kernel holds at most
    // a bank event and an end event per active task plus the next
    // session arrival.
    const KAryNCube m(8, 2, false);
    Kernel kernel;
    TwoLevelWorkload wl(m, fastParams());
    wl.start(kernel, [](const dvsnet::traffic::PacketRequest &) {});
    for (Cycle t = 10000; t <= 400000; t += 10000) {
        kernel.run(cyclesToTicks(t));
        const auto &st = wl.stats();
        ASSERT_EQ(wl.activeTasks(),
                  static_cast<std::int64_t>(st.tasksSpawned -
                                            st.tasksCompleted));
        ASSERT_LE(kernel.pendingEvents(),
                  2 * static_cast<std::size_t>(wl.activeTasks()) + 1);
    }
    EXPECT_GT(wl.stats().tasksCompleted, 300u);
    EXPECT_LT(wl.activeTasks(), 40);
}

TEST(TwoLevel, ValidateCapsOnOffMeans)
{
    TwoLevelParams p;
    EXPECT_TRUE(p.validate().empty());
    p.onOff.meanOffCycles = TwoLevelParams::kMaxOnOffMeanCycles;
    EXPECT_TRUE(p.validate().empty());
    for (const double bad : {0.0, -1.0, 2e9, HUGE_VAL, std::nan("")}) {
        p = TwoLevelParams{};
        p.onOff.meanOnCycles = bad;
        EXPECT_FALSE(p.validate().empty()) << bad;
        p = TwoLevelParams{};
        p.onOff.meanOffCycles = bad;
        EXPECT_FALSE(p.validate().empty()) << bad;
    }
}

TEST(TwoLevel, InjectionRateNearTarget)
{
    const KAryNCube m(8, 2, false);
    Kernel kernel;
    auto p = fastParams();
    p.networkInjectionRate = 0.5;
    TwoLevelWorkload wl(m, p);
    std::uint64_t packets = 0;
    wl.start(kernel,
             [&](const dvsnet::traffic::PacketRequest &) { ++packets; });
    const Cycle horizon = 400000;
    kernel.run(cyclesToTicks(horizon));
    const double expected = 0.5 * static_cast<double>(horizon);
    EXPECT_NEAR(static_cast<double>(packets), expected, expected * 0.25);
}

TEST(TwoLevel, PacketsNeverSelfAddressed)
{
    const KAryNCube m(4, 2, false);
    Kernel kernel;
    TwoLevelWorkload wl(m, fastParams());
    wl.start(kernel, [](const dvsnet::traffic::PacketRequest &r) {
        EXPECT_NE(r.src, r.dst);
    });
    kernel.run(cyclesToTicks(100000));
}

TEST(TwoLevel, LocalityBiasesDestinations)
{
    const KAryNCube m(8, 2, false);
    auto p = fastParams();
    p.localityRadius = 2;
    p.pLocal = 0.75;
    Kernel kernel;
    TwoLevelWorkload wl(m, p);
    Rng rng(123);

    const NodeId center = m.nodeId({4, 4});
    int local = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        if (m.hopDistance(center, wl.localityDestination(center, rng)) <= 2)
            ++local;
    }
    // p_local + the chance a uniform draw lands inside the sphere.
    const double pSphereUniform = 12.0 / 63.0;
    const double expected = 0.75 + 0.25 * pSphereUniform;
    EXPECT_NEAR(static_cast<double>(local) / n, expected, 0.02);
}

TEST(TwoLevel, SpatialVarianceExistsAcrossSources)
{
    // Task placement concentrates traffic: per-node injection counts
    // should vary far more than a uniform split would.
    const KAryNCube m(8, 2, false);
    Kernel kernel;
    TwoLevelWorkload wl(m, fastParams());
    std::map<NodeId, double> perSrc;
    wl.start(kernel, [&](const dvsnet::traffic::PacketRequest &r) {
        perSrc[r.src] += 1.0;
    });
    kernel.run(cyclesToTicks(100000));

    double total = 0.0;
    for (auto &[n, c] : perSrc)
        total += c;
    const double mean = total / 64.0;
    double var = 0.0;
    for (NodeId n = 0; n < 64; ++n) {
        const double c = perSrc.count(n) ? perSrc[n] : 0.0;
        var += (c - mean) * (c - mean);
    }
    var /= 64.0;
    ASSERT_GT(mean, 10.0);
    // Poisson splitting would give var ~ mean; task locality produces
    // much larger spatial variance (Fig. 8).
    EXPECT_GT(var / mean, 5.0);
}

TEST(TwoLevel, DeterministicUnderSeed)
{
    const KAryNCube m(4, 2, false);
    std::vector<std::tuple<dvsnet::Tick, NodeId, NodeId>> a, b;
    for (auto *log : {&a, &b}) {
        Kernel kernel;
        TwoLevelWorkload wl(m, fastParams());
        wl.start(kernel,
                 [&kernel, log](const dvsnet::traffic::PacketRequest &r) {
                     log->push_back({kernel.now(), r.src, r.dst});
                 });
        kernel.run(cyclesToTicks(50000));
    }
    EXPECT_EQ(a, b);
}

TEST(TwoLevel, PerPacketDestinationSpreadsFlows)
{
    const KAryNCube m(8, 2, false);
    auto p = fastParams();
    p.perPacketDestination = true;
    p.avgConcurrentTasks = 2;  // few tasks -> per-task mode would give
                               // few distinct destinations
    Kernel kernel;
    TwoLevelWorkload wl(m, p);
    std::set<NodeId> dsts;
    wl.start(kernel, [&](const dvsnet::traffic::PacketRequest &r) {
        dsts.insert(r.dst);
    });
    kernel.run(cyclesToTicks(200000));
    EXPECT_GT(dsts.size(), 10u);
}

TEST(TwoLevel, ShortTasksAlsoWork)
{
    // 10 us tasks (the Fig. 16/17 regime).
    const KAryNCube m(8, 2, false);
    auto p = fastParams();
    p.meanTaskDurationCycles = 10000;
    Kernel kernel;
    TwoLevelWorkload wl(m, p);
    std::uint64_t packets = 0;
    wl.start(kernel,
             [&](const dvsnet::traffic::PacketRequest &) { ++packets; });
    kernel.run(cyclesToTicks(100000));
    EXPECT_GT(packets, 0u);
    EXPECT_GT(wl.stats().tasksCompleted, 50u);
}

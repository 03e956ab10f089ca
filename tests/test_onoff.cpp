/**
 * @file
 * ON/OFF source-bank tests: aggregate rate calibration, burstiness of
 * the aggregated process (the self-similarity proxy), stop semantics.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "sim/kernel.hpp"
#include "traffic/pareto_onoff.hpp"
#include "traffic/traffic.hpp"

using dvsnet::Cycle;
using dvsnet::Rng;
using dvsnet::Tick;
using dvsnet::cyclesToTicks;
using dvsnet::sim::Kernel;
using dvsnet::traffic::OnOffParams;
using dvsnet::traffic::OnOffSourceBank;

TEST(OnOffParams, DutyCycleFromMeans)
{
    OnOffParams p;
    p.meanOnCycles = 300;
    p.meanOffCycles = 600;
    EXPECT_NEAR(p.dutyCycle(), 1.0 / 3.0, 1e-12);
}

TEST(OnOffBank, OnRateCalibration)
{
    Kernel kernel;
    OnOffParams p;  // duty 1/3 by default
    OnOffSourceBank bank(kernel, 128, 0.02, p, Rng(1), [](std::int32_t) {});
    // onRate = aggregate / (sources * duty).
    EXPECT_NEAR(bank.onRate(), 0.02 / (128.0 / 3.0), 1e-9);
}

TEST(OnOffBank, AggregateRateNearTarget)
{
    Kernel kernel;
    OnOffParams p;
    std::uint64_t emitted = 0;
    OnOffSourceBank bank(kernel, 64, 0.05, p, Rng(2),
                         [&](std::int32_t) { ++emitted; });
    bank.start();
    const Cycle horizon = 400000;
    kernel.run(cyclesToTicks(horizon));
    const double expected = 0.05 * static_cast<double>(horizon);
    // Heavy-tailed envelopes converge slowly; allow 25%.
    EXPECT_NEAR(static_cast<double>(emitted), expected, expected * 0.25);
}

TEST(OnOffBank, StopHaltsEmission)
{
    Kernel kernel;
    OnOffParams p;
    std::uint64_t emitted = 0;
    OnOffSourceBank bank(kernel, 32, 0.05, p, Rng(3), [&](std::int32_t) { ++emitted; });
    bank.start();
    kernel.run(cyclesToTicks(50000));
    bank.stop();
    const std::uint64_t atStop = bank.emitted();
    kernel.run(cyclesToTicks(200000));
    EXPECT_EQ(bank.emitted(), atStop);
    EXPECT_EQ(emitted, atStop);
    EXPECT_TRUE(bank.stopped());
}

TEST(OnOffBank, AggregateIsBurstierThanPoisson)
{
    // Index of dispersion (var/mean of per-interval counts) over coarse
    // intervals: ~1 for Poisson, substantially larger for aggregated
    // heavy-tailed ON/OFF sources.  This is the property the paper's
    // workload model exists to provide.
    Kernel kernel;
    OnOffParams p;
    std::vector<std::uint64_t> counts;
    std::uint64_t current = 0;
    OnOffSourceBank bank(kernel, 16, 0.05, p, Rng(4), [&](std::int32_t) { ++current; });
    bank.start();

    const Cycle interval = 1000;
    for (int i = 0; i < 400; ++i) {
        kernel.run(cyclesToTicks(static_cast<Cycle>(i + 1) * interval));
        counts.push_back(current);
        current = 0;
    }

    double mean = 0.0;
    for (auto c : counts)
        mean += static_cast<double>(c);
    mean /= static_cast<double>(counts.size());
    double var = 0.0;
    for (auto c : counts)
        var += (static_cast<double>(c) - mean) *
               (static_cast<double>(c) - mean);
    var /= static_cast<double>(counts.size());

    ASSERT_GT(mean, 10.0);  // enough traffic for the test to mean much
    EXPECT_GT(var / mean, 2.0);  // clearly super-Poisson
}

TEST(OnOffBank, DeterministicUnderSeed)
{
    std::vector<std::uint64_t> a, b;
    for (auto *log : {&a, &b}) {
        Kernel kernel;
        OnOffParams p;
        OnOffSourceBank bank(kernel, 16, 0.05, p, Rng(77),
                             [&](std::int32_t) { log->push_back(kernel.now()); });
        bank.start();
        kernel.run(cyclesToTicks(50000));
    }
    EXPECT_EQ(a, b);
}

TEST(OnOffBank, EmittedCounterMatchesCallback)
{
    Kernel kernel;
    OnOffParams p;
    std::uint64_t emitted = 0;
    OnOffSourceBank bank(kernel, 16, 0.02, p, Rng(5), [&](std::int32_t) { ++emitted; });
    bank.start();
    kernel.run(cyclesToTicks(100000));
    EXPECT_EQ(bank.emitted(), emitted);
    EXPECT_GT(emitted, 0u);
}

namespace
{

/** The aggregate per-task rate of the two-level headline load
 *  (1.2 pkts/cycle over 100 tasks), on one 128-source bank. */
constexpr std::int32_t kHeadlineSources = 128;
constexpr double kHeadlineTaskRate = 0.012;

} // namespace

TEST(OnOffBank, PendingEventsBoundedBySources)
{
    // The bank resolves ON/OFF toggles inside itself: whatever its
    // sources do, the kernel holds at most one event for it.
    Kernel kernel;
    OnOffParams p;
    OnOffSourceBank bank(kernel, kHeadlineSources, kHeadlineTaskRate, p,
                         Rng(77), [](std::int32_t) {});
    bank.start();
    for (Cycle chunk = 1; chunk <= 200; ++chunk) {
        kernel.run(cyclesToTicks(chunk * 1000));
        ASSERT_LE(kernel.pendingEvents(), 1u) << "after chunk " << chunk;
    }
    // One kernel event per emission, give or take same-tick batching.
    EXPECT_LE(kernel.executedEvents(), bank.emitted());
}

TEST(OnOffBank, StopCancelsTheBanksEvent)
{
    Kernel kernel;
    OnOffParams p;
    auto bank = std::make_unique<OnOffSourceBank>(
        kernel, kHeadlineSources, kHeadlineTaskRate, p, Rng(9),
        [](std::int32_t) {});
    bank->start();
    kernel.run(cyclesToTicks(20000));
    EXPECT_EQ(kernel.pendingEvents(), 1u);
    bank->stop();
    EXPECT_EQ(kernel.pendingEvents(), 0u);
    // Nothing in the kernel refers to a stopped bank any more.
    bank.reset();
    const std::uint64_t executed = kernel.executedEvents();
    kernel.run(cyclesToTicks(40000));
    EXPECT_EQ(kernel.executedEvents(), executed);
}

TEST(OnOffBank, EmissionsAvoidRouterClockEdges)
{
    // A packet created on a clock edge would race the network's step at
    // that tick; such emissions are delivered one tick later.
    Kernel kernel;
    OnOffParams p;
    std::uint64_t onEdge = 0;
    OnOffSourceBank bank(kernel, 16, 0.5, p, Rng(3), [&](std::int32_t) {
        onEdge += kernel.now() % dvsnet::kRouterClockPeriod == 0;
    });
    bank.start();
    kernel.run(cyclesToTicks(50000));
    EXPECT_GT(bank.emitted(), 10000u);
    EXPECT_EQ(onEdge, 0u);
    EXPECT_EQ(dvsnet::traffic::deliveryTick(5000), 5001u);
    EXPECT_EQ(dvsnet::traffic::deliveryTick(5001), 5001u);
}

TEST(OnOffBank, CyclesToGapRoundsAndSaturates)
{
    EXPECT_EQ(OnOffSourceBank::cyclesToGap(1.0), 1000u);
    EXPECT_EQ(OnOffSourceBank::cyclesToGap(2.0004), 2000u);
    EXPECT_EQ(OnOffSourceBank::cyclesToGap(2.0005), 2001u);
    EXPECT_EQ(OnOffSourceBank::cyclesToGap(0.0), 1u);  // at least a tick
    // Past the tick range: saturate instead of an undefined cast.
    const Tick max = OnOffSourceBank::kMaxGapTicks;
    EXPECT_EQ(OnOffSourceBank::cyclesToGap(1e300), max);
    EXPECT_EQ(OnOffSourceBank::cyclesToGap(HUGE_VAL), max);
    EXPECT_EQ(OnOffSourceBank::cyclesToGap(std::nan("")), max);
    EXPECT_EQ(OnOffSourceBank::cyclesToGap(2e15), max);
    EXPECT_EQ(OnOffSourceBank::cyclesToGap(1e15), Tick{1000000000000000000});
}

TEST(OnOffBank, ExtremeRatesStayInRange)
{
    // A vanishing rate makes every Poisson gap saturate; the bank must
    // neither overflow its tick sums nor spin resolving ON periods.
    Kernel kernel;
    OnOffParams p;
    OnOffSourceBank bank(kernel, 4, 1e-300, p, Rng(11),
                         [](std::int32_t) {});
    bank.start();
    kernel.run(cyclesToTicks(Cycle{1} << 22));
    EXPECT_EQ(bank.emitted(), 0u);
    EXPECT_LE(kernel.pendingEvents(), 1u);
}

TEST(OnOffBank, EmissionStreamPinned)
{
    // Pins the exact emission times (FNV-1a over kernel.now() at each
    // emission).  tests/test_onoff_distribution.cpp locks the same
    // stream against an event-driven reference and the original
    // generator's statistics.
    Kernel kernel;
    OnOffParams p;
    std::uint64_t h = 0xcbf29ce484222325ULL;
    OnOffSourceBank bank(kernel, kHeadlineSources, kHeadlineTaskRate, p,
                         Rng(77), [&](std::int32_t) {
                             h = (h ^ kernel.now()) * 0x100000001b3ULL;
                         });
    bank.start();
    for (Cycle chunk = 1; chunk <= 200; ++chunk)
        kernel.run(cyclesToTicks(chunk * 1000));
    EXPECT_EQ(bank.emitted(), 2808u);
    EXPECT_EQ(h, 0x56ac87218b298ee5ULL);
}

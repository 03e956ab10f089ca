/**
 * @file
 * ON/OFF source-bank tests: aggregate rate calibration, burstiness of
 * the aggregated process (the self-similarity proxy), stop semantics.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/rng.hpp"
#include "sim/kernel.hpp"
#include "traffic/pareto_onoff.hpp"

using dvsnet::Cycle;
using dvsnet::Rng;
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
    OnOffSourceBank bank(kernel, 128, 0.02, p, Rng(1), [] {});
    // onRate = aggregate / (sources * duty).
    EXPECT_NEAR(bank.onRate(), 0.02 / (128.0 / 3.0), 1e-9);
}

TEST(OnOffBank, AggregateRateNearTarget)
{
    Kernel kernel;
    OnOffParams p;
    std::uint64_t emitted = 0;
    OnOffSourceBank bank(kernel, 64, 0.05, p, Rng(2),
                         [&] { ++emitted; });
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
    OnOffSourceBank bank(kernel, 32, 0.05, p, Rng(3), [&] { ++emitted; });
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
    OnOffSourceBank bank(kernel, 16, 0.05, p, Rng(4), [&] { ++current; });
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
                             [&] { log->push_back(kernel.now()); });
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
    OnOffSourceBank bank(kernel, 16, 0.02, p, Rng(5), [&] { ++emitted; });
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
    // Each source has at most one pending toggle and one pending
    // emission, so the queue never holds more than two events per
    // source.  An emission that would land past its ON period must
    // never be scheduled at all.
    Kernel kernel;
    OnOffParams p;
    OnOffSourceBank bank(kernel, kHeadlineSources, kHeadlineTaskRate, p,
                         Rng(77), [] {});
    bank.start();
    for (Cycle chunk = 1; chunk <= 200; ++chunk) {
        kernel.run(cyclesToTicks(chunk * 1000));
        ASSERT_LE(kernel.pendingEvents(), 2u * kHeadlineSources)
            << "after chunk " << chunk;
    }
}

TEST(OnOffBank, EmissionStreamPinned)
{
    // Pins the exact emission times (FNV-1a over kernel.now() at each
    // emission).  Not scheduling dead emissions must leave the stream
    // bit-identical: they never drew from the RNG.
    Kernel kernel;
    OnOffParams p;
    std::uint64_t h = 0xcbf29ce484222325ULL;
    OnOffSourceBank bank(kernel, kHeadlineSources, kHeadlineTaskRate, p,
                         Rng(77), [&] {
                             h = (h ^ kernel.now()) * 0x100000001b3ULL;
                         });
    bank.start();
    for (Cycle chunk = 1; chunk <= 200; ++chunk)
        kernel.run(cyclesToTicks(chunk * 1000));
    EXPECT_EQ(bank.emitted(), 2611u);
    EXPECT_EQ(h, 0xac79b93a23e23155ULL);
}

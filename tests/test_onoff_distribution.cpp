/**
 * @file
 * Locks on what the ON/OFF source bank generates.
 *
 * Exact: an event-driven reference bank — every ON/OFF toggle and every
 * emission its own kernel event, as the bank was originally written —
 * drawing from the same per-source streams must give every source the
 * very emission ticks the production bank (which resolves toggles
 * inside itself) gives it.
 *
 * Statistical: the aggregate must keep the properties the paper's
 * workload exists for — its mean rate, its index of dispersion across
 * four timescales and its aggregated-variance Hurst estimate.  The bands
 * come from the original single-stream, event-per-toggle generator:
 * over 640 seeds its 4-seed averages had standard deviations of 0.0046
 * (rate), 0.0030/0.021/0.19/1.8 (dispersion at 10/100/1k/10k cycles)
 * and 0.0071 (Hurst); each band is its mean +-4 of those (EXPERIMENTS.md,
 * "Closed ON/OFF banks").
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
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

namespace
{

using TickLog = std::vector<std::vector<Tick>>;

/**
 * The event-driven reference: one kernel event per toggle and per
 * emission.  It draws exactly what OnOffSourceBank documents, from the
 * same per-source streams, and logs each emission at the tick the
 * production bank delivers it.
 */
class ReferenceBank
{
  public:
    ReferenceBank(Kernel &kernel, std::int32_t numSources,
                  double aggregateRate, const OnOffParams &params, Rng rng)
        : kernel_(kernel),
          params_(params),
          meanGap_(static_cast<double>(numSources) * params.dutyCycle() /
                   aggregateRate),
          onLocation_(Rng::paretoLocationForMean(params.meanOnCycles,
                                                 params.onShape)),
          offLocation_(Rng::paretoLocationForMean(params.meanOffCycles,
                                                  params.offShape)),
          log_(static_cast<std::size_t>(numSources)),
          onUntil_(static_cast<std::size_t>(numSources), 0)
    {
        for (std::int32_t s = 0; s < numSources; ++s)
            rngs_.push_back(rng.fork());
    }

    void
    start()
    {
        const auto n = static_cast<std::int32_t>(rngs_.size());
        for (std::int32_t s = 0; s < n; ++s)
            toggle(s, source(s).bernoulli(params_.dutyCycle()));
    }

    const TickLog &log() const { return log_; }

  private:
    Rng &
    source(std::int32_t s)
    {
        return rngs_[static_cast<std::size_t>(s)];
    }

    static Tick
    gap(double cycles)
    {
        return OnOffSourceBank::cyclesToGap(cycles);
    }

    void
    toggle(std::int32_t s, bool nowOn)
    {
        if (nowOn) {
            const Tick len = gap(source(s).pareto(onLocation_,
                                                  params_.onShape));
            onUntil_[static_cast<std::size_t>(s)] = kernel_.now() + len;
            // Scheduled before the toggle-off, so at gap == len it still
            // runs first.
            const Tick first = gap(source(s).exponential(meanGap_));
            if (first <= len)
                kernel_.after(first, [this, s] { emit(s); });
            kernel_.after(len, [this, s] { toggle(s, false); });
        } else {
            const Tick len = gap(source(s).pareto(offLocation_,
                                                  params_.offShape));
            kernel_.after(len, [this, s] { toggle(s, true); });
        }
    }

    void
    emit(std::int32_t s)
    {
        log_[static_cast<std::size_t>(s)].push_back(
            dvsnet::traffic::deliveryTick(kernel_.now()));
        const Tick next = gap(source(s).exponential(meanGap_));
        if (kernel_.now() + next < onUntil_[static_cast<std::size_t>(s)])
            kernel_.after(next, [this, s] { emit(s); });
    }

    Kernel &kernel_;
    OnOffParams params_;
    double meanGap_;  ///< mean in-ON emission gap, cycles
    double onLocation_;
    double offLocation_;
    std::vector<Rng> rngs_;
    TickLog log_;
    std::vector<Tick> onUntil_;
};

struct BankCase
{
    std::int32_t sources;
    double rate;
    Cycle horizon;
};

/** Per-source delivery ticks up to `horizon` from the production bank;
 *  also reports how many kernel events it used. */
TickLog
productionLog(const BankCase &c, std::uint64_t seed,
              std::uint64_t *events = nullptr)
{
    Kernel kernel;
    TickLog log(static_cast<std::size_t>(c.sources));
    OnOffSourceBank bank(kernel, c.sources, c.rate, OnOffParams{},
                         Rng(seed), [&](std::int32_t s) {
                             log[static_cast<std::size_t>(s)].push_back(
                                 kernel.now());
                         });
    bank.start();
    kernel.run(cyclesToTicks(c.horizon));
    if (events)
        *events = kernel.executedEvents();
    return log;
}

/** The same from the reference, cut at the same horizon. */
TickLog
referenceLog(const BankCase &c, std::uint64_t seed)
{
    Kernel kernel;
    ReferenceBank bank(kernel, c.sources, c.rate, OnOffParams{},
                       Rng(seed));
    bank.start();
    const Tick horizon = cyclesToTicks(c.horizon);
    kernel.run(horizon);
    TickLog log = bank.log();
    for (auto &ticks : log) {
        while (!ticks.empty() && ticks.back() > horizon)
            ticks.pop_back();
    }
    return log;
}

std::uint64_t
total(const TickLog &log)
{
    std::uint64_t n = 0;
    for (const auto &ticks : log)
        n += ticks.size();
    return n;
}

} // namespace

TEST(OnOffReference, HeadlineBankMatchesEventDrivenReference)
{
    // One task of the paper's headline load: 128 sources at 0.012.
    const BankCase c{128, 0.012, 300000};
    for (const std::uint64_t seed : {1u, 77u, 424242u}) {
        const TickLog production = productionLog(c, seed);
        EXPECT_GT(total(production), 2000u) << "seed " << seed;
        EXPECT_EQ(production, referenceLog(c, seed)) << "seed " << seed;
    }
}

TEST(OnOffReference, DenseBankMatchesEventDrivenReference)
{
    // Several emissions per ON period: ties between sources, edge
    // nudges and emissions on the last tick of a period all occur.
    const BankCase c{16, 0.5, 100000};
    for (const std::uint64_t seed : {2u, 3u}) {
        const TickLog production = productionLog(c, seed);
        EXPECT_GT(total(production), 40000u) << "seed " << seed;
        EXPECT_EQ(production, referenceLog(c, seed)) << "seed " << seed;
    }
}

TEST(OnOffReference, SparseBankMatchesEventDrivenReference)
{
    // Emissions more than the settle horizon (~1M cycles) apart: the
    // bank parks its kernel event on unresolved ON starts in between,
    // which must not change what it emits.
    const BankCase c{1, 1e-6, Cycle{1} << 24};
    std::uint64_t events = 0;
    const TickLog production = productionLog(c, 5, &events);
    EXPECT_GE(total(production), 3u);
    EXPECT_GT(events, total(production));  // the parked events ran
    EXPECT_EQ(production, referenceLog(c, 5));
}

namespace
{

/** Aggregate statistics of one bank run, binned at 10 cycles. */
struct Aggregate
{
    double rate = 0;                ///< packets per cycle
    double dispersion[4] = {};      ///< var/mean at 10..10^4 cycles
    double hurst = 0;               ///< aggregated-variance estimate
};

/** Variance of `counts` summed in blocks of m, divided by m^2 when
 *  `asMean` (the aggregated series) and by the block mean otherwise. */
double
blockStatistic(const std::vector<double> &counts, std::size_t m,
               bool asMean)
{
    const std::size_t n = counts.size() / m;
    std::vector<double> blocks(n, 0.0);
    for (std::size_t i = 0; i < n * m; ++i)
        blocks[i / m] += counts[i];
    double mean = 0;
    for (const double b : blocks)
        mean += b;
    mean /= static_cast<double>(n);
    double var = 0;
    for (const double b : blocks)
        var += (b - mean) * (b - mean);
    var /= static_cast<double>(n);
    const double md = static_cast<double>(m);
    return asMean ? var / (md * md) : var / mean;
}

Aggregate
measure(std::uint64_t seed)
{
    constexpr Cycle kBin = 10;
    constexpr Cycle kHorizon = Cycle{1} << 21;
    Kernel kernel;
    std::vector<double> counts(kHorizon / kBin, 0.0);
    OnOffSourceBank bank(kernel, 128, 0.5, OnOffParams{}, Rng(seed),
                         [&](std::int32_t) {
                             const Tick bin =
                                 kernel.now() / cyclesToTicks(kBin);
                             if (bin < counts.size())
                                 counts[bin] += 1.0;
                         });
    bank.start();
    kernel.run(cyclesToTicks(kHorizon));

    Aggregate a;
    for (const double c : counts)
        a.rate += c;
    a.rate /= static_cast<double>(kHorizon);
    std::size_t m = 1;
    for (double &d : a.dispersion) {
        d = blockStatistic(counts, m, false);
        m *= 10;
    }
    // Var(mean of m bins) ~ m^(2H-2): least squares over m = 2^k while
    // at least 64 blocks remain.
    std::vector<double> xs, ys;
    for (m = 1; counts.size() / m >= 64; m *= 2) {
        xs.push_back(std::log(static_cast<double>(m)));
        ys.push_back(std::log(blockStatistic(counts, m, true)));
    }
    double mx = 0, my = 0;
    for (std::size_t i = 0; i < xs.size(); ++i) {
        mx += xs[i];
        my += ys[i];
    }
    mx /= static_cast<double>(xs.size());
    my /= static_cast<double>(xs.size());
    double sxy = 0, sxx = 0;
    for (std::size_t i = 0; i < xs.size(); ++i) {
        sxy += (xs[i] - mx) * (ys[i] - my);
        sxx += (xs[i] - mx) * (xs[i] - mx);
    }
    a.hurst = 1.0 + 0.5 * sxy / sxx;
    return a;
}

} // namespace

TEST(OnOffDistribution, AggregateMatchesOriginalGenerator)
{
    // 128 sources at 0.5 packets/cycle for 2^21 cycles, averaged over 4
    // seeds.  Heavy-tailed OFF periods make a finite run's duty cycle
    // (and so its rate) overshoot the 0.5 target; the original generator
    // averaged 0.544.
    Aggregate avg;
    constexpr int kSeeds = 4;
    for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
        const Aggregate a = measure(seed);
        avg.rate += a.rate / kSeeds;
        for (int k = 0; k < 4; ++k)
            avg.dispersion[k] += a.dispersion[k] / kSeeds;
        avg.hurst += a.hurst / kSeeds;
    }

    EXPECT_GT(avg.rate, 0.526);
    EXPECT_LT(avg.rate, 0.563);

    // Burstiness grows with the timescale (Poisson would stay at 1).
    const double lo[4] = {1.062, 1.536, 3.69, 12.6};
    const double hi[4] = {1.086, 1.701, 5.22, 27.3};
    for (int k = 0; k < 4; ++k) {
        EXPECT_GT(avg.dispersion[k], lo[k]) << "timescale 10^" << k + 1;
        EXPECT_LT(avg.dispersion[k], hi[k]) << "timescale 10^" << k + 1;
    }

    // Theory for OFF shape 1.2 is H = (3 - 1.2) / 2 = 0.9; the estimator
    // reads low on finite runs (0.728 for the original generator), but
    // far above Poisson's 0.5.
    EXPECT_GT(avg.hurst, 0.700);
    EXPECT_LT(avg.hurst, 0.757);
}

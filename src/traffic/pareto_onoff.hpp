/**
 * @file
 * Self-similar traffic via multiplexed Pareto ON/OFF sources
 * (Section 4.3, after Leland et al. / Willinger et al.).
 *
 * Each source alternates heavy-tailed ON and OFF periods (Pareto shapes
 * 1.4 and 1.2 per the paper's Ethernet-calibrated choice); while ON it
 * emits packets as a Poisson process at its ON rate.  Aggregating many
 * such sources produces long-range-dependent arrivals whose burstiness
 * persists across timescales — the property Poisson injection famously
 * lacks.
 */

#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "sim/kernel.hpp"

namespace dvsnet::traffic
{

/** Shape/scale configuration of the ON/OFF envelope. */
struct OnOffParams
{
    double onShape = 1.4;        ///< Pareto shape of ON periods
    double offShape = 1.2;       ///< Pareto shape of OFF periods
    double meanOnCycles = 300.0; ///< mean ON period (router cycles)
    double meanOffCycles = 600.0;///< mean OFF period (router cycles)

    /** Long-run fraction of time a source is ON. */
    double
    dutyCycle() const
    {
        return meanOnCycles / (meanOnCycles + meanOffCycles);
    }
};

/**
 * A bank of ON/OFF sources multiplexed onto one emission callback.
 *
 * The bank as a whole sustains `aggregateRate` packets per cycle in
 * expectation: each source's ON-state Poisson rate is
 * aggregateRate / (numSources * dutyCycle).
 *
 * The bank is a closed generator.  Every source owns an RNG stream
 * forked from the bank's at construction and draws, in order: whether
 * it starts ON (probability dutyCycle), then per ON period its length
 * and the Poisson gaps of its emissions, then the following OFF length.
 * An ON period starting at b with length len emits first at b + gap if
 * gap <= len, and after an emission at t next at t + gap if
 * t + gap < b + len.  The bank keeps one entry per source in a local
 * min-heap keyed by (tick, source): either the source's next emission or
 * the tick its next ON period starts.  ON/OFF toggles are resolved
 * inside the bank, in tick order; the kernel only ever holds one event
 * per bank, at its next emission (or, if that lies more than ~1M cycles
 * ahead, at the next ON start still to resolve).
 *
 * An emission that falls on a router clock edge reaches the sink one
 * tick later (traffic::deliveryTick()), so no packet is created at the
 * same tick as the network's step: which of the two ran first would
 * otherwise depend on scheduling history, and a trace replay could not
 * reproduce it.
 */
class OnOffSourceBank
{
  public:
    /** Emission callback: one packet request now, from `source`. */
    using EmitFn = std::function<void(std::int32_t source)>;

    /** Largest gap cyclesToGap() returns; keeps tick sums in range. */
    static constexpr Tick kMaxGapTicks = Tick{1} << 60;

    /**
     * @param kernel event kernel
     * @param numSources sources multiplexed (paper: 128)
     * @param aggregateRate expected packets/cycle for the whole bank
     * @param params envelope distribution parameters
     * @param rng seeded engine; each source's stream is forked from it
     * @param emit called once per generated packet
     */
    OnOffSourceBank(sim::Kernel &kernel, std::int32_t numSources,
                    double aggregateRate, const OnOffParams &params,
                    Rng rng, EmitFn emit);

    /** Begin at kernel.now(): every source starts ON with probability
     *  dutyCycle, else after an OFF period. */
    void start();

    /** Stop emitting and cancel the bank's kernel event; the bank may
     *  then be destroyed. */
    void stop();

    bool stopped() const { return stopped_; }

    /** Packets emitted so far. */
    std::uint64_t emitted() const { return emitted_; }

    /** ON-state per-source Poisson rate (packets/cycle). */
    double onRate() const { return onRate_; }

    /** Router cycles to a tick gap: rounded, at least 1, saturating at
     *  kMaxGapTicks (NaN and infinity included). */
    static Tick cyclesToGap(double cycles);

  private:
    struct Source
    {
        Rng rng;
        Tick onUntil = 0;  ///< end tick of the current ON period
    };

    /** A source's one pending step: an emission or an ON start. */
    struct Entry
    {
        Tick when;
        std::int32_t source;
        bool emission;
    };

    /** Heap order: by tick, ties by source index. */
    static bool
    before(const Entry &a, const Entry &b)
    {
        return a.when != b.when ? a.when < b.when : a.source < b.source;
    }

    void fire();
    void settle();
    void schedule();
    void beginOn(Entry &e);
    void afterEmission(Entry &e);
    void beginOff(Entry &e);
    void siftDownTop();

    sim::Kernel &kernel_;
    OnOffParams params_;
    double onRate_;
    double onLocation_;   ///< Pareto location for ON periods
    double offLocation_;  ///< Pareto location for OFF periods
    EmitFn emit_;
    bool stopped_ = false;
    bool scheduled_ = false;
    sim::EventQueue::EventId event_ = 0;
    std::uint64_t emitted_ = 0;

    std::vector<Source> sources_;
    std::vector<Entry> heap_;  ///< one entry per source, min at [0]
};

} // namespace dvsnet::traffic

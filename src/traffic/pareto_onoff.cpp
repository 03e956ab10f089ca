#include "traffic/pareto_onoff.hpp"

#include <algorithm>

#include "common/fatal.hpp"
#include "traffic/traffic.hpp"

namespace dvsnet::traffic
{

namespace
{

/** How far ahead of now settle() resolves ON/OFF periods.  A bank whose
 *  next emission lies further out parks its kernel event on the next
 *  unresolved ON start instead, so a source that (almost) never emits
 *  cannot make one settle() spin ahead without bound.  Where the bank
 *  resolves a period changes no draw, so this only moves work. */
constexpr Tick kSettleHorizonTicks = cyclesToTicks(Cycle{1} << 20);

/** t + gap, saturating at kTickNever ("never"). */
Tick
later(Tick t, Tick gap)
{
    return gap < kTickNever - t ? t + gap : kTickNever;
}

} // namespace

OnOffSourceBank::OnOffSourceBank(sim::Kernel &kernel,
                                 std::int32_t numSources,
                                 double aggregateRate,
                                 const OnOffParams &params, Rng rng,
                                 EmitFn emit)
    : kernel_(kernel), params_(params), emit_(std::move(emit))
{
    DVSNET_ASSERT(numSources > 0, "need at least one source");
    DVSNET_ASSERT(aggregateRate > 0, "aggregate rate must be positive");
    DVSNET_ASSERT(params.onShape > 1.0 && params.offShape > 1.0,
                  "Pareto shapes must exceed 1 for finite means");

    onRate_ = aggregateRate /
              (static_cast<double>(numSources) * params.dutyCycle());
    onLocation_ = Rng::paretoLocationForMean(params.meanOnCycles,
                                             params.onShape);
    offLocation_ = Rng::paretoLocationForMean(params.meanOffCycles,
                                              params.offShape);

    sources_.reserve(static_cast<std::size_t>(numSources));
    for (std::int32_t s = 0; s < numSources; ++s)
        sources_.push_back(Source{rng.fork()});
}

Tick
OnOffSourceBank::cyclesToGap(double cycles)
{
    const double ticks =
        cycles * static_cast<double>(kRouterClockPeriod) + 0.5;
    if (!(ticks < static_cast<double>(kMaxGapTicks)))
        return kMaxGapTicks;  // also NaN: never cast it to Tick
    if (ticks < 1.0)
        return 1;
    return static_cast<Tick>(ticks);
}

void
OnOffSourceBank::start()
{
    DVSNET_ASSERT(heap_.empty(), "bank started twice");
    const Tick now = kernel_.now();
    heap_.reserve(sources_.size());
    for (std::size_t i = 0; i < sources_.size(); ++i) {
        Source &s = sources_[i];
        // Approximate stationarity: each source starts ON with
        // probability equal to the duty cycle.
        Entry e{now, static_cast<std::int32_t>(i), false};
        if (!s.rng.bernoulli(params_.dutyCycle())) {
            s.onUntil = now;
            beginOff(e);
        }
        heap_.push_back(e);
    }
    std::make_heap(heap_.begin(), heap_.end(),
                   [](const Entry &a, const Entry &b) {
                       return before(b, a);
                   });
    settle();
    schedule();
}

void
OnOffSourceBank::stop()
{
    stopped_ = true;
    if (scheduled_)
        kernel_.cancel(event_);
    scheduled_ = false;
}

void
OnOffSourceBank::fire()
{
    scheduled_ = false;
    const Tick now = kernel_.now();
    for (;;) {
        settle();
        Entry &top = heap_[0];
        if (!top.emission || deliveryTick(top.when) != now)
            break;
        emit_(top.source);
        ++emitted_;
        if (stopped_)
            return;
        afterEmission(top);
        siftDownTop();
    }
    schedule();
}

void
OnOffSourceBank::settle()
{
    const Tick limit = later(kernel_.now(), kSettleHorizonTicks);
    while (!heap_[0].emission && heap_[0].when <= limit &&
           heap_[0].when != kTickNever) {
        beginOn(heap_[0]);
        siftDownTop();
    }
}

void
OnOffSourceBank::schedule()
{
    const Entry &top = heap_[0];
    if (top.when == kTickNever)
        return;
    event_ = kernel_.at(top.emission ? deliveryTick(top.when) : top.when,
                        [this] { fire(); });
    scheduled_ = true;
}

void
OnOffSourceBank::beginOn(Entry &e)
{
    Source &s = sources_[static_cast<std::size_t>(e.source)];
    const Tick len =
        cyclesToGap(s.rng.pareto(onLocation_, params_.onShape));
    s.onUntil = later(e.when, len);
    // First emission of this ON period; it may land on the period's end.
    const Tick gap = cyclesToGap(s.rng.exponential(1.0 / onRate_));
    if (gap <= len) {
        e.when = later(e.when, gap);
        e.emission = true;
    } else {
        beginOff(e);
    }
}

void
OnOffSourceBank::afterEmission(Entry &e)
{
    Source &s = sources_[static_cast<std::size_t>(e.source)];
    // Later emissions must land strictly inside the ON period.
    const Tick next =
        later(e.when, cyclesToGap(s.rng.exponential(1.0 / onRate_)));
    if (next < s.onUntil)
        e.when = next;
    else
        beginOff(e);
}

void
OnOffSourceBank::beginOff(Entry &e)
{
    Source &s = sources_[static_cast<std::size_t>(e.source)];
    const Tick len =
        cyclesToGap(s.rng.pareto(offLocation_, params_.offShape));
    e.when = later(s.onUntil, len);
    e.emission = false;
}

void
OnOffSourceBank::siftDownTop()
{
    const std::size_t n = heap_.size();
    const Entry moving = heap_[0];
    std::size_t i = 0;
    for (;;) {
        std::size_t child = 2 * i + 1;
        if (child >= n)
            break;
        if (child + 1 < n && before(heap_[child + 1], heap_[child]))
            ++child;
        if (!before(heap_[child], moving))
            break;
        heap_[i] = heap_[child];
        i = child;
    }
    heap_[i] = moving;
}

} // namespace dvsnet::traffic

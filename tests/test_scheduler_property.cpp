/**
 * @file
 * Randomized property test for the two-tier (time wheel + overflow
 * heap) EventQueue against a reference single-heap model.
 *
 * Interleaved schedule/cancel/execute sequences must produce identical
 * firing order — including same-tick FIFO — and identical cancel-handle
 * staleness behavior, no matter which internal tier holds each event.
 * Two workload shapes, 24 seeds each: a mixed shape whose tick gaps
 * span same-tick, intra-bucket, cross-bucket, wheel-horizon and
 * far-overflow ranges (so events migrate between tiers and the wheel
 * re-anchors), and a link-clock-heavy shape whose gaps are multiples of
 * the DVS link periods (many channels serializing at the slow levels),
 * which piles events into few distinct ticks and stresses bucket heaps
 * + FIFO.  A deterministic test pins the wheel/heap boundary at exactly
 * the horizon tick.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "sim/event_queue.hpp"

using dvsnet::Rng;
using dvsnet::Tick;
using dvsnet::kTickNever;
using dvsnet::sim::EventQueue;

namespace
{

/**
 * Reference model: a flat list ordered by exhaustive min-scan over
 * (when, seq) — trivially correct FIFO semantics and eager cancellation.
 */
class ReferenceQueue
{
  public:
    using Handle = std::size_t;

    Handle
    schedule(Tick when, std::uint64_t payload)
    {
        entries_.push_back(Entry{when, nextSeq_++, payload, true});
        return entries_.size() - 1;
    }

    /** Same contract as EventQueue::cancel. */
    bool
    cancel(Handle h)
    {
        if (!entries_[h].live)
            return false;
        entries_[h].live = false;
        return true;
    }

    bool
    empty() const
    {
        return std::none_of(entries_.begin(), entries_.end(),
                            [](const Entry &e) { return e.live; });
    }

    Tick
    nextTick() const
    {
        const Entry *best = minLive();
        return best == nullptr ? kTickNever : best->when;
    }

    /** Pop the earliest live entry; returns (when, payload). */
    std::pair<Tick, std::uint64_t>
    executeNext()
    {
        Entry *best = const_cast<Entry *>(minLive());
        EXPECT_NE(best, nullptr);
        best->live = false;
        return {best->when, best->payload};
    }

  private:
    struct Entry
    {
        Tick when;
        std::uint64_t seq;
        std::uint64_t payload;
        bool live;
    };

    const Entry *
    minLive() const
    {
        const Entry *best = nullptr;
        for (const Entry &e : entries_) {
            if (e.live &&
                (best == nullptr || e.when < best->when ||
                 (e.when == best->when && e.seq < best->seq)))
                best = &e;
        }
        return best;
    }

    std::vector<Entry> entries_;
    std::uint64_t nextSeq_ = 0;
};

enum class Workload
{
    Mixed,          ///< gaps spanning every tier of the queue
    LinkClockHeavy  ///< gaps in DVS link-period multiples, few ticks
};

/** Mixed shape: 0 (same-tick FIFO), within one wheel bucket, across
 *  buckets, near the wheel horizon, and far past it. */
Tick
drawMixedGap(Rng &rng)
{
    switch (rng.uniformInt(0, 5)) {
      case 0: return 0;
      case 1: return static_cast<Tick>(rng.uniformInt(1, 63));
      case 2: return static_cast<Tick>(rng.uniformInt(64, 4096));
      case 3: return static_cast<Tick>(rng.uniformInt(4096, 200000));
      case 4:  // straddle the wheel/heap boundary (modular add)
        return EventQueue::kWheelHorizon +
               static_cast<Tick>(rng.uniformInt(-500, 500));
      default:  // deep overflow territory
        return static_cast<Tick>(rng.uniformInt(1, 50)) * 10'000'000;
    }
}

/** Link-clock-heavy shape: serialization slots of the slow DVS levels
 *  (8000/4000/2000-tick periods) across many concurrent channels, plus
 *  frequent zero gaps — deliveries from parallel links constantly land
 *  on coinciding ticks. */
Tick
drawLinkClockGap(Rng &rng)
{
    static constexpr Tick kPeriods[] = {8000, 4000, 2000, 1000};
    if (rng.uniformInt(0, 3) == 0)
        return 0;  // another channel delivering at the same edge
    const Tick period =
        kPeriods[static_cast<std::size_t>(rng.uniformInt(0, 3))];
    return period * static_cast<Tick>(rng.uniformInt(1, 16));
}

Tick
drawGap(Rng &rng, Workload shape)
{
    return shape == Workload::Mixed ? drawMixedGap(rng)
                                    : drawLinkClockGap(rng);
}

void
runInterleaved(std::uint64_t seed, int ops, Workload shape)
{
    SCOPED_TRACE(::testing::Message()
                 << "seed=" << seed << " workload="
                 << (shape == Workload::Mixed ? "mixed" : "link-clock"));

    Rng rng(seed);
    EventQueue queue;
    ReferenceQueue ref;

    // Parallel handle lists: handles_[i] and refHandles_[i] name the
    // same logical event in both queues.
    std::vector<EventQueue::EventId> handles;
    std::vector<ReferenceQueue::Handle> refHandles;

    std::vector<std::uint64_t> gotFired;  // payloads in firing order
    Tick now = 0;  // monotone: events are never scheduled into the past
    std::uint64_t nextPayload = 0;

    for (int op = 0; op < ops; ++op) {
        const int kind = rng.uniformInt(0, 9);
        if (kind < 5 || queue.empty()) {
            // Schedule (biased: queues need events to do anything).
            const Tick when = now + drawGap(rng, shape);
            const std::uint64_t payload = nextPayload++;
            handles.push_back(queue.schedule(
                when, [&gotFired, payload] {
                    gotFired.push_back(payload);
                }));
            refHandles.push_back(ref.schedule(when, payload));
        } else if (kind < 7 && !handles.empty()) {
            // Cancel a random handle — possibly already fired,
            // cancelled, or stale (slot reused): results must agree.
            const auto pick = static_cast<std::size_t>(
                rng.uniformInt(0, static_cast<int>(handles.size()) - 1));
            EXPECT_EQ(queue.cancel(handles[pick]),
                      ref.cancel(refHandles[pick]));
        } else {
            // Execute the earliest event in both queues.
            ASSERT_FALSE(ref.empty());
            EXPECT_EQ(queue.nextTick(), ref.nextTick());
            const Tick when = queue.executeNext();
            const auto [refWhen, refPayload] = ref.executeNext();
            EXPECT_EQ(when, refWhen);
            ASSERT_FALSE(gotFired.empty());
            EXPECT_EQ(gotFired.back(), refPayload);
            EXPECT_GE(when, now);
            now = when;
        }
        EXPECT_EQ(queue.empty(), ref.empty());
        EXPECT_EQ(queue.size() == 0, ref.empty());
    }

    // Drain both queues completely and compare the full firing tail.
    while (!ref.empty()) {
        ASSERT_FALSE(queue.empty());
        const Tick when = queue.executeNext();
        const auto [refWhen, refPayload] = ref.executeNext();
        EXPECT_EQ(when, refWhen);
        EXPECT_EQ(gotFired.back(), refPayload);
        now = when;
    }
    EXPECT_TRUE(queue.empty());
}

} // namespace

TEST(SchedulerProperty, MatchesReferenceAcrossSeeds)
{
    for (std::uint64_t seed = 1; seed <= 24; ++seed)
        runInterleaved(seed * 7919, 2000, Workload::Mixed);
}

TEST(SchedulerProperty, LinkClockHeavyWorkloadAcrossSeeds)
{
    for (std::uint64_t seed = 1; seed <= 24; ++seed)
        runInterleaved(seed * 104729, 2000, Workload::LinkClockHeavy);
}

TEST(SchedulerProperty, HorizonTickOverflowsToHeap)
{
    // The wheel covers [base, base + kWheelHorizon): the horizon tick
    // itself maps to the cursor's bucket index, so it must go to the
    // overflow heap, or it would fire ahead of the later buckets.
    EventQueue q;  // wheel anchored at tick 0
    std::vector<Tick> fired;
    for (const Tick when : {EventQueue::kWheelHorizon,
                            EventQueue::kWheelHorizon - 1, Tick{1},
                            Tick{100}})
        q.schedule(when, [&fired, when] { fired.push_back(when); });
    EXPECT_EQ(q.overflowPending(), 1u);
    EXPECT_EQ(q.wheelPending(), 3u);
    while (!q.empty())
        q.executeNext();
    EXPECT_EQ(fired, (std::vector<Tick>{1, 100,
                                        EventQueue::kWheelHorizon - 1,
                                        EventQueue::kWheelHorizon}));
}

TEST(SchedulerProperty, SameTickFifoSurvivesTierMixing)
{
    // Events at one tick, scheduled while the wheel window is anchored
    // both before and after that tick, must still fire in insertion
    // order.  Force re-anchoring by executing a far-future event
    // between insertions.
    EventQueue q;
    std::vector<int> order;

    const Tick target = EventQueue::kWheelHorizon * 3;
    q.schedule(target, [&order] { order.push_back(0); });    // heap
    q.schedule(1, [] {});  // near event anchors the wheel low
    q.schedule(target, [&order] { order.push_back(1); });    // heap
    q.executeNext();       // fires tick 1, re-anchors nothing yet
    q.schedule(target, [&order] { order.push_back(2); });    // wheel?
    q.executeNext();       // first target event; re-anchors the wheel
    q.schedule(target, [&order] { order.push_back(3); });    // wheel
    while (!q.empty())
        q.executeNext();

    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(SchedulerProperty, CancelHandlesStayStaleAcrossTiers)
{
    EventQueue q;
    bool fired = false;

    // One event per tier; cancel the wheel one, fire the heap one.
    const auto nearId = q.schedule(10, [&fired] { fired = true; });
    const auto farId = q.schedule(EventQueue::kWheelHorizon * 2, [] {});
    EXPECT_GT(q.wheelPending(), 0u);
    EXPECT_GT(q.overflowPending(), 0u);

    EXPECT_TRUE(q.cancel(nearId));
    EXPECT_FALSE(q.cancel(nearId));  // second cancel: stale
    q.executeNext();                 // the far event fires
    EXPECT_FALSE(fired);
    EXPECT_FALSE(q.cancel(farId));   // already fired: stale
    EXPECT_TRUE(q.empty());
}

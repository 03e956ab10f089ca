/**
 * @file
 * Event-queue tests: temporal ordering, same-tick FIFO determinism,
 * cancellation semantics, release of drained wheel buckets.
 */

#include <gtest/gtest.h>

#include <vector>

#include "sim/event_queue.hpp"

using dvsnet::Tick;
using dvsnet::kTickNever;
using dvsnet::sim::EventQueue;

TEST(EventQueue, EmptyByDefault)
{
    EventQueue q;
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.size(), 0u);
    EXPECT_EQ(q.nextTick(), kTickNever);
}

TEST(EventQueue, ExecutesInTimeOrder)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(30, [&] { order.push_back(3); });
    q.schedule(10, [&] { order.push_back(1); });
    q.schedule(20, [&] { order.push_back(2); });
    while (!q.empty())
        q.executeNext();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, SameTickIsFifo)
{
    EventQueue q;
    std::vector<int> order;
    for (int i = 0; i < 10; ++i)
        q.schedule(100, [&order, i] { order.push_back(i); });
    while (!q.empty())
        q.executeNext();
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, ExecuteNextReturnsTick)
{
    EventQueue q;
    q.schedule(42, [] {});
    EXPECT_EQ(q.executeNext(), Tick{42});
}

TEST(EventQueue, NextTickPeeks)
{
    EventQueue q;
    q.schedule(7, [] {});
    q.schedule(3, [] {});
    EXPECT_EQ(q.nextTick(), Tick{3});
    EXPECT_EQ(q.size(), 2u);
}

TEST(EventQueue, CancelPreventsExecution)
{
    EventQueue q;
    bool fired = false;
    const auto id = q.schedule(5, [&] { fired = true; });
    q.schedule(6, [] {});
    EXPECT_TRUE(q.cancel(id));
    while (!q.empty())
        q.executeNext();
    EXPECT_FALSE(fired);
}

TEST(EventQueue, CancelUpdatesSizeAndNextTick)
{
    EventQueue q;
    const auto early = q.schedule(1, [] {});
    q.schedule(9, [] {});
    q.cancel(early);
    EXPECT_EQ(q.size(), 1u);
    EXPECT_EQ(q.nextTick(), Tick{9});
}

TEST(EventQueue, DoubleCancelReturnsFalse)
{
    EventQueue q;
    const auto id = q.schedule(5, [] {});
    EXPECT_TRUE(q.cancel(id));
    EXPECT_FALSE(q.cancel(id));
}

TEST(EventQueue, EventsCanScheduleEvents)
{
    EventQueue q;
    int count = 0;
    q.schedule(1, [&] {
        ++count;
        q.schedule(2, [&] { ++count; });
    });
    while (!q.empty())
        q.executeNext();
    EXPECT_EQ(count, 2);
}

TEST(EventQueue, ExecutedCountAccumulates)
{
    EventQueue q;
    for (Tick t = 0; t < 5; ++t)
        q.schedule(t, [] {});
    while (!q.empty())
        q.executeNext();
    EXPECT_EQ(q.executedCount(), 5u);
}

// --- cancel-handle generation reuse -----------------------------------
//
// EventId packs (generation << 32 | slot); a slot is recycled once its
// heap key pops (fired or cancelled-and-skipped).  These tests pin the
// edge cases: a stale handle must never cancel the slot's new occupant.

TEST(EventQueue, StaleHandleAfterCancelAndSlotReuse)
{
    EventQueue q;
    bool cFired = false;
    const auto idA = q.schedule(5, [] {});
    ASSERT_TRUE(q.cancel(idA));

    // The dead key still sits on the heap; nextTick() skips it, popping
    // the key and recycling the slot.
    EXPECT_EQ(q.nextTick(), dvsnet::kTickNever);
    const auto idC = q.schedule(7, [&] { cFired = true; });

    // Same slot, new generation: the stale handle must not resolve.
    ASSERT_EQ(idA & 0xffffffffu, idC & 0xffffffffu);
    ASSERT_NE(idA, idC);
    EXPECT_FALSE(q.cancel(idA));

    // The new occupant is unharmed.
    EXPECT_EQ(q.size(), 1u);
    EXPECT_EQ(q.executeNext(), Tick{7});
    EXPECT_TRUE(cFired);
}

TEST(EventQueue, StaleHandleAfterExecutionAndSlotReuse)
{
    EventQueue q;
    bool bFired = false;
    const auto idA = q.schedule(5, [] {});
    EXPECT_EQ(q.executeNext(), Tick{5});  // fires; slot recycled

    const auto idB = q.schedule(6, [&] { bFired = true; });
    ASSERT_EQ(idA & 0xffffffffu, idB & 0xffffffffu);
    EXPECT_FALSE(q.cancel(idA));
    EXPECT_EQ(q.executeNext(), Tick{6});
    EXPECT_TRUE(bFired);
}

TEST(EventQueue, NextTickSkipsCancelledHeapTopChain)
{
    EventQueue q;
    // Three earliest events all cancelled; the live one is last.
    const auto a = q.schedule(1, [] {});
    const auto b = q.schedule(2, [] {});
    const auto c = q.schedule(3, [] {});
    q.schedule(9, [] {});
    ASSERT_TRUE(q.cancel(c));
    ASSERT_TRUE(q.cancel(a));
    ASSERT_TRUE(q.cancel(b));

    EXPECT_EQ(q.size(), 1u);
    EXPECT_EQ(q.nextTick(), Tick{9});
    EXPECT_EQ(q.executeNext(), Tick{9});
    EXPECT_TRUE(q.empty());
}

TEST(EventQueue, ExecuteNextSkipsCancelledHeapTop)
{
    EventQueue q;
    int fired = 0;
    const auto a = q.schedule(1, [&] { ++fired; });
    q.schedule(2, [&] { ++fired; });
    ASSERT_TRUE(q.cancel(a));
    // executeNext (without an intervening nextTick) must skip the dead
    // key and run the live event.
    EXPECT_EQ(q.executeNext(), Tick{2});
    EXPECT_EQ(fired, 1);
}

TEST(EventQueue, GenerationSurvivesManyReuses)
{
    EventQueue q;
    // Recycle the same slot repeatedly; each round's stale handle must
    // stay stale even as the generation counter climbs.
    EventQueue::EventId prev = 0;
    for (int i = 0; i < 100; ++i) {
        const auto id = q.schedule(static_cast<Tick>(i), [] {});
        if (i > 0)
            EXPECT_FALSE(q.cancel(prev)) << "round " << i;
        q.executeNext();
        prev = id;
    }
}

TEST(EventQueue, DrainedBurstBucketReleasesStorage)
{
    EventQueue q;
    const std::size_t idle = q.storageBytes();
    for (int i = 0; i < 200; ++i)
        q.schedule(500, [] {});
    const std::size_t busy = q.storageBytes();
    EXPECT_GT(busy, idle + 200 * 24);
    while (!q.empty())
        q.executeNext();
    // The 200-key bucket freed its storage; what remains is the event
    // slots and free list, which scale with the burst, not the wheel.
    EXPECT_LT(q.storageBytes(), busy - 150 * 24);
}

TEST(EventQueue, ReleasedBucketRefillKeepsOrder)
{
    EventQueue q;
    std::vector<int> order;
    // Fill one bucket well past the retained capacity, drain it (its
    // storage is released), then refill the same bucket — once at the
    // same window position and once a full wheel rotation later — with
    // interleaved ticks.  Execution must stay in (tick, insertion) order.
    const Tick rotation = EventQueue::kWheelHorizon;
    for (Tick base : {Tick{1000}, Tick{1000} + rotation}) {
        // Step the cursor just short of `base`, so the burst lands in
        // the wheel rather than the overflow heap.
        q.schedule(base - 100, [] {});
        q.executeNext();
        for (int round = 0; round < 2; ++round) {
            order.clear();
            for (int i = 0; i < 100; ++i) {
                const Tick when = base + static_cast<Tick>(i % 3);
                q.schedule(when, [&order, i] { order.push_back(i); });
            }
            ASSERT_EQ(q.wheelPending(), 100u);
            std::vector<int> want;
            for (int r = 0; r < 3; ++r)
                for (int i = r; i < 100; i += 3)
                    want.push_back(i);
            while (!q.empty())
                q.executeNext();
            EXPECT_EQ(order, want) << "base " << base << " round " << round;
            base += 3;
        }
    }
}

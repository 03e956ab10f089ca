/**
 * @file
 * Virtual-channel buffer tests: FIFO order, capacity accounting,
 * per-port partitioning, ring growth on use; plus inbox timestamp
 * semantics and consumed-prefix compaction.  (The VC
 * allocation state machine lives in the Router's SoA slabs and is
 * exercised by test_router.cpp / test_wide_geometry.cpp.)
 */

#include <gtest/gtest.h>

#include <vector>

#include "router/buffer.hpp"
#include "router/inbox.hpp"

using dvsnet::Tick;
using dvsnet::router::Flit;
using dvsnet::router::Inbox;
using dvsnet::router::InputBuffer;
using dvsnet::router::VirtualChannel;

namespace
{

Flit
makeFlit(std::uint16_t seq, std::uint16_t len = 5)
{
    Flit f;
    f.packet = 1;
    f.seq = seq;
    f.packetLen = len;
    f.vc = 0;
    return f;
}

} // namespace

TEST(VirtualChannel, StartsIdleAndEmpty)
{
    VirtualChannel vc(8);
    EXPECT_TRUE(vc.empty());
    EXPECT_FALSE(vc.full());
    EXPECT_EQ(vc.freeSlots(), 8u);
    EXPECT_EQ(vc.capacity(), 8u);
}

TEST(VirtualChannel, FifoOrder)
{
    VirtualChannel vc(8);
    for (std::uint16_t i = 0; i < 5; ++i)
        vc.enqueue(makeFlit(i));
    for (std::uint16_t i = 0; i < 5; ++i) {
        EXPECT_EQ(vc.front().seq, i);
        EXPECT_EQ(vc.dequeue().seq, i);
    }
    EXPECT_TRUE(vc.empty());
}

TEST(VirtualChannel, OccupancyTracksOperations)
{
    VirtualChannel vc(4);
    vc.enqueue(makeFlit(0));
    vc.enqueue(makeFlit(1));
    EXPECT_EQ(vc.occupancy(), 2u);
    EXPECT_EQ(vc.freeSlots(), 2u);
    vc.dequeue();
    EXPECT_EQ(vc.occupancy(), 1u);
}

TEST(VirtualChannel, FullAtCapacity)
{
    VirtualChannel vc(2);
    vc.enqueue(makeFlit(0));
    vc.enqueue(makeFlit(1));
    EXPECT_TRUE(vc.full());
    EXPECT_EQ(vc.freeSlots(), 0u);
}

TEST(VirtualChannel, AllocatesOnUse)
{
    VirtualChannel vc(64);
    EXPECT_EQ(vc.storageBytes(), 0u);
    vc.enqueue(makeFlit(0));
    EXPECT_GT(vc.storageBytes(), 0u);
    EXPECT_LT(vc.storageBytes(), 64 * sizeof(Flit));
}

TEST(VirtualChannel, OrderAcrossGrowAndWrap)
{
    // Keep the ring partly consumed so its head has wrapped when the
    // next grow unwraps it; every flit must still come out in order.
    VirtualChannel vc(64);
    std::uint16_t in = 0;
    std::uint16_t out = 0;
    for (std::size_t live = 1; live <= 64; ++live) {
        while (vc.occupancy() < live)
            vc.enqueue(makeFlit(in++, 1000));
        for (int k = 0; k < 3 && vc.occupancy() > 1; ++k) {
            ASSERT_EQ(vc.dequeue().seq, out++);
            vc.enqueue(makeFlit(in++, 1000));
        }
    }
    EXPECT_TRUE(vc.full());
    while (!vc.empty())
        ASSERT_EQ(vc.dequeue().seq, out++);
    EXPECT_EQ(out, in);
    EXPECT_EQ(vc.storageBytes(), 64 * sizeof(Flit));
}

TEST(VirtualChannel, FullAtExactlyConfiguredDepth)
{
    // A depth that is not a power of two: the last grow is capped.
    VirtualChannel vc(6);
    for (std::uint16_t i = 0; i < 6; ++i) {
        EXPECT_FALSE(vc.full()) << i;
        vc.enqueue(makeFlit(i));
    }
    EXPECT_TRUE(vc.full());
    EXPECT_EQ(vc.freeSlots(), 0u);
    EXPECT_EQ(vc.storageBytes(), 6 * sizeof(Flit));
    EXPECT_EQ(vc.dequeue().seq, 0);
    vc.enqueue(makeFlit(6));
    EXPECT_TRUE(vc.full());
    for (std::uint16_t i = 1; i <= 6; ++i)
        EXPECT_EQ(vc.dequeue().seq, i);
}

TEST(VirtualChannelDeathTest, OverflowPanics)
{
    VirtualChannel vc(1);
    vc.enqueue(makeFlit(0));
    EXPECT_DEATH(vc.enqueue(makeFlit(1)), "full VC");
}

TEST(VirtualChannelDeathTest, UnderflowPanics)
{
    VirtualChannel vc(1);
    EXPECT_DEATH(vc.dequeue(), "empty VC");
}

TEST(InputBuffer, SplitsCapacityEvenly)
{
    InputBuffer buf(2, 128);
    EXPECT_EQ(buf.numVcs(), 2);
    EXPECT_EQ(buf.vc(0).capacity(), 64u);
    EXPECT_EQ(buf.vc(1).capacity(), 64u);
    EXPECT_EQ(buf.totalCapacity(), 128u);
}

TEST(InputBuffer, TotalOccupancySumsVcs)
{
    InputBuffer buf(2, 8);
    buf.vc(0).enqueue(makeFlit(0));
    buf.vc(1).enqueue(makeFlit(0));
    buf.vc(1).enqueue(makeFlit(1));
    EXPECT_EQ(buf.totalOccupancy(), 3u);
}

TEST(InputBuffer, OddCapacityFloors)
{
    InputBuffer buf(3, 10);
    EXPECT_EQ(buf.vc(0).capacity(), 3u);
    EXPECT_EQ(buf.totalCapacity(), 9u);
}

TEST(Inbox, ReadyRespectsTimestamps)
{
    Inbox<int> box;
    box.push(100, 7);
    EXPECT_FALSE(box.ready(99));
    EXPECT_TRUE(box.ready(100));
    EXPECT_TRUE(box.ready(200));
}

TEST(Inbox, PopsInOrder)
{
    Inbox<int> box;
    box.push(10, 1);
    box.push(20, 2);
    box.push(20, 3);
    EXPECT_EQ(box.pop(50), 1);
    EXPECT_EQ(box.pop(50), 2);
    EXPECT_EQ(box.pop(50), 3);
    EXPECT_TRUE(box.empty());
}

TEST(Inbox, NextArrival)
{
    Inbox<int> box;
    EXPECT_EQ(box.nextArrival(), dvsnet::kTickNever);
    box.push(42, 1);
    EXPECT_EQ(box.nextArrival(), Tick{42});
}

TEST(Inbox, CompactionKeepsFifoOrder)
{
    // A busy link: the inbox never fully drains, so only compaction
    // reclaims the consumed prefix.  Order and storage must both hold.
    Inbox<int> box;
    Tick t = 0;
    int pushed = 0;
    int popped = 0;
    for (int i = 0; i < 3; ++i)
        box.push(t += 10, pushed++);
    for (int round = 0; round < 20000; ++round) {
        box.push(t += 10, pushed++);
        if (round % 2 == 0)
            box.push(t += 10, pushed++);
        while (box.size() > 3)
            ASSERT_EQ(box.pop(t), popped++);
    }
    EXPECT_EQ(box.size(), 3u);
    // Bounded by pending + kCompactMin slots, times vector slack.
    EXPECT_LE(box.storageBytes(),
              4 * (3 + Inbox<int>::kCompactMin) * sizeof(Inbox<int>::Slot));
    while (!box.empty())
        ASSERT_EQ(box.pop(t), popped++);
    EXPECT_EQ(popped, pushed);
}

TEST(Inbox, PushBatchAfterCompaction)
{
    Inbox<int> box;
    const std::size_t n = 4 * Inbox<int>::kCompactMin;
    for (std::size_t i = 0; i < n; ++i)
        box.push(static_cast<Tick>(i), static_cast<int>(i));
    // Pop past half: the prefix is compacted away, two items remain.
    for (std::size_t i = 0; i + 2 < n; ++i)
        ASSERT_EQ(box.pop(static_cast<Tick>(n)), static_cast<int>(i));
    std::vector<Inbox<int>::Slot> batch;
    for (std::size_t i = n; i < n + 5; ++i)
        batch.push_back({static_cast<Tick>(i), static_cast<int>(i)});
    box.pushBatch(batch);
    EXPECT_EQ(box.size(), 7u);
    EXPECT_EQ(box.nextArrival(), static_cast<Tick>(n - 2));
    for (std::size_t i = n - 2; i < n + 5; ++i)
        ASSERT_EQ(box.pop(static_cast<Tick>(n + 5)), static_cast<int>(i));
    EXPECT_TRUE(box.empty());
}

TEST(InboxDeathTest, MonotoneAssertSurvivesCompaction)
{
    Inbox<int> box;
    const std::size_t n = 4 * Inbox<int>::kCompactMin;
    for (std::size_t i = 0; i < n; ++i)
        box.push(static_cast<Tick>(100 + i), static_cast<int>(i));
    for (std::size_t i = 0; i + 1 < n; ++i)
        box.pop(static_cast<Tick>(1000));
    // One item left (arrival 100 + n - 1) after compaction: an earlier
    // arrival, alone or in a batch, must still be rejected.
    EXPECT_DEATH(box.push(100, 1), "monotone");
    const std::vector<Inbox<int>::Slot> early{{Tick{101}, 1}};
    EXPECT_DEATH(box.pushBatch(early), "monotone");
}

TEST(InboxDeathTest, NonMonotonePushPanics)
{
    Inbox<int> box;
    box.push(100, 1);
    EXPECT_DEATH(box.push(50, 2), "monotone");
}

TEST(InboxDeathTest, PrematurePopPanics)
{
    Inbox<int> box;
    box.push(100, 1);
    EXPECT_DEATH(box.pop(50), "nothing ready");
}

/**
 * @file
 * Discrete-event queue with picosecond resolution.
 *
 * Events scheduled for the same tick execute in insertion (FIFO) order —
 * a determinism guarantee the rest of the simulator relies on (e.g. a
 * router's cycle step always observes link deliveries scheduled earlier
 * at the same tick).  The queue executes in strict (tick, insertion
 * sequence) order regardless of which internal tier holds an event.
 *
 * Performance: this is the hottest structure in the simulator, so it is
 * two-tiered.  Near-horizon events (link deliveries, clock edges,
 * controller windows) go into a bucketed time wheel — 4096 64-tick
 * buckets (a router cycle spans ~16), each a small binary min-heap of
 * 24-byte POD keys, with an occupancy bitmap to find the next non-empty
 * bucket.
 * Events beyond the wheel horizon (voltage ramps, long off-periods,
 * task lifetimes) overflow into a single binary heap, which is also the
 * always-correct fallback for events behind the wheel cursor.  Callbacks
 * are heap-free InlineFn callables living in recycled side slots, so
 * sift operations only move keys.  Memory is bounded by the number of
 * *pending* events: a slot is recycled as soon as its key pops (fired
 * or cancelled), and a bucket that drains while holding storage for
 * more than kBucketRetainKeys keys frees it, so a same-tick burst that
 * lands in a different bucket each time does not leave every bucket at
 * its high-water capacity.
 */

#pragma once

#include <cstdint>
#include <queue>
#include <vector>

#include "common/inline_fn.hpp"
#include "common/types.hpp"

namespace dvsnet::sim
{

/**
 * Callback type executed when an event fires.  Heap-free: captures are
 * limited to two words (a `this` pointer plus one packed word) and
 * overflow is a compile error — see common/inline_fn.hpp.
 */
using EventFn = InlineFn;

/** Two-tier (time wheel + overflow heap) event queue keyed by
 *  (tick, insertion sequence). */
class EventQueue
{
    /** log2 of the bucket width in ticks. */
    static constexpr int kBucketShift = 6;

    /** Bucket count; a power of two and a multiple of 64. */
    static constexpr std::size_t kNumBuckets = 4096;

    static constexpr Tick kBucketWidth = Tick{1} << kBucketShift;

  public:
    /**
     * Opaque cancellation handle: packs the slot index and a per-slot
     * generation counter so stale handles are detected.
     */
    using EventId = std::uint64_t;

    /** Width of the wheel's near-future window, in ticks. */
    static constexpr Tick kWheelHorizon =
        kBucketWidth * static_cast<Tick>(kNumBuckets);

    /** Schedule `fn` at absolute tick `when`. Returns a cancel handle. */
    EventId schedule(Tick when, EventFn fn);

    /**
     * Cancel a previously scheduled event.  Returns true if the event was
     * pending (it will not fire); false if it already fired or was
     * cancelled.  Cancellation is lazy: the key is skipped on pop.
     */
    bool cancel(EventId id);

    /** True if no live events remain. */
    bool empty() const { return liveCount_ == 0; }

    /** Number of live (non-cancelled, unfired) events. */
    std::size_t size() const { return liveCount_; }

    /** Tick of the earliest live event; kTickNever if empty. */
    Tick nextTick() const;

    /**
     * Pop and execute the earliest event.  Returns its tick.
     * Precondition: !empty().
     */
    Tick executeNext();

    /** Total events ever executed (for micro-benchmarks/diagnostics). */
    std::uint64_t executedCount() const { return executed_; }

    /** Pending keys (live + lazily cancelled) held by the wheel tier. */
    std::size_t wheelPending() const { return wheelKeys_; }

    /** Pending keys (live + lazily cancelled) held by the overflow heap. */
    std::size_t overflowPending() const { return heap_.size(); }

    /**
     * Heap bytes held by the queue's stores: wheel buckets (their
     * capacity), overflow heap, event slots and the free-slot list.
     * Walks every bucket — a diagnostic, not a per-event call.
     */
    std::size_t storageBytes() const;

  private:
    static constexpr std::size_t kBitmapWords = kNumBuckets / 64;

    /** Key capacity a drained bucket keeps; larger buckets free it. */
    static constexpr std::size_t kBucketRetainKeys = 32;

    struct Key
    {
        Tick when;
        std::uint64_t seq;   ///< FIFO tiebreaker for same-tick events
        std::uint32_t slot;  ///< index into slots_

        bool operator>(const Key &o) const
        {
            return when != o.when ? when > o.when : seq > o.seq;
        }
    };

    struct Slot
    {
        EventFn fn;             ///< empty = cancelled (key still queued)
        std::uint32_t gen = 0;  ///< bumped when the slot is recycled
    };

    using Bucket = std::vector<Key>;

    /** Route a key to the wheel (inside window) or the overflow heap. */
    void pushKey(const Key &key);

    /**
     * Earliest pending wheel key, skipping/recycling cancelled keys and
     * advancing the cursor past drained buckets.  nullptr if the wheel
     * is empty.  The returned key lives at the cursor bucket's top.
     */
    const Key *wheelPeek();

    /** Earliest pending heap key, skipping/recycling cancelled keys. */
    const Key *heapPeek();

    /** Index of the first occupied bucket at/after `from` (circular).
     *  Precondition: some bucket is occupied. */
    std::size_t nextOccupied(std::size_t from) const;

    /** Clear bucket `idx`'s occupancy bit after it drained, freeing its
     *  storage if it holds more than kBucketRetainKeys keys. */
    void releaseBucket(std::size_t idx);

    /** Return a slot to the free list after its key popped. */
    void recycle(std::uint32_t slot);

    std::vector<Bucket> buckets_ = std::vector<Bucket>(kNumBuckets);
    std::vector<std::uint64_t> occupied_ =
        std::vector<std::uint64_t>(kBitmapWords);
    Tick wheelBase_ = 0;        ///< window start; multiple of kBucketWidth
    std::size_t cursorIdx_ = 0; ///< bucket index of wheelBase_
    std::size_t wheelKeys_ = 0; ///< pending keys (live + dead) in wheel

    /** The overflow heap, with its container's capacity exposed. */
    struct OverflowHeap
        : std::priority_queue<Key, std::vector<Key>, std::greater<Key>>
    {
        std::size_t capacity() const { return c.capacity(); }
    };

    OverflowHeap heap_;

    std::vector<Slot> slots_;
    std::vector<std::uint32_t> freeSlots_;
    std::uint64_t nextSeq_ = 0;
    std::size_t liveCount_ = 0;
    std::uint64_t executed_ = 0;
};

} // namespace dvsnet::sim

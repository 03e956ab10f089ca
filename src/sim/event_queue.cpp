#include "sim/event_queue.hpp"

#include <algorithm>
#include <bit>

#include "common/fatal.hpp"

namespace dvsnet::sim
{

namespace
{

std::uint64_t
packId(std::uint32_t gen, std::uint32_t slot)
{
    return (static_cast<std::uint64_t>(gen) << 32) | slot;
}

} // namespace

void
EventQueue::pushKey(const Key &key)
{
    if (key.when >= wheelBase_ && key.when - wheelBase_ < kWheelHorizon) {
        const auto idx = static_cast<std::size_t>(
            (key.when >> kBucketShift) & (kNumBuckets - 1));
        Bucket &b = buckets_[idx];
        if (b.empty())
            occupied_[idx >> 6] |= std::uint64_t{1} << (idx & 63);
        b.push_back(key);
        std::push_heap(b.begin(), b.end(), std::greater<Key>{});
        ++wheelKeys_;
    } else {
        // Beyond the window — or behind the cursor (the wheel never
        // moves backwards) — the heap is the always-correct fallback.
        heap_.push(key);
    }
}

EventQueue::EventId
EventQueue::schedule(Tick when, EventFn fn)
{
    DVSNET_ASSERT(static_cast<bool>(fn), "scheduling a null event");

    std::uint32_t slot;
    if (!freeSlots_.empty()) {
        slot = freeSlots_.back();
        freeSlots_.pop_back();
    } else {
        slot = static_cast<std::uint32_t>(slots_.size());
        slots_.emplace_back();
    }
    slots_[slot].fn = std::move(fn);

    pushKey(Key{when, nextSeq_++, slot});
    ++liveCount_;
    return packId(slots_[slot].gen, slot);
}

bool
EventQueue::cancel(EventId id)
{
    const auto slot = static_cast<std::uint32_t>(id & 0xffffffffu);
    const auto gen = static_cast<std::uint32_t>(id >> 32);
    if (slot >= slots_.size() || slots_[slot].gen != gen ||
        !slots_[slot].fn) {
        return false;  // already fired, cancelled, or recycled
    }
    // The key stays in its tier until it pops; the slot is recycled then.
    slots_[slot].fn.reset();
    DVSNET_ASSERT(liveCount_ > 0, "cancel with no live events");
    --liveCount_;
    return true;
}

void
EventQueue::recycle(std::uint32_t slot)
{
    ++slots_[slot].gen;
    freeSlots_.push_back(slot);
}

void
EventQueue::releaseBucket(std::size_t idx)
{
    occupied_[idx >> 6] &= ~(std::uint64_t{1} << (idx & 63));
    Bucket &b = buckets_[idx];
    if (b.capacity() > kBucketRetainKeys)
        Bucket().swap(b);
}

std::size_t
EventQueue::storageBytes() const
{
    std::size_t n = buckets_.capacity() * sizeof(Bucket) +
                    occupied_.capacity() * sizeof(std::uint64_t) +
                    heap_.capacity() * sizeof(Key) +
                    slots_.capacity() * sizeof(Slot) +
                    freeSlots_.capacity() * sizeof(std::uint32_t);
    for (const Bucket &b : buckets_)
        n += b.capacity() * sizeof(Key);
    return n;
}

std::size_t
EventQueue::nextOccupied(std::size_t from) const
{
    std::size_t word = from >> 6;
    std::uint64_t bits = occupied_[word] & (~std::uint64_t{0} << (from & 63));
    for (std::size_t i = 0; i <= kBitmapWords; ++i) {
        if (bits != 0)
            return (word << 6) + static_cast<std::size_t>(
                                     std::countr_zero(bits));
        word = (word + 1) & (kBitmapWords - 1);
        bits = occupied_[word];
    }
    DVSNET_FATAL("wheel bitmap empty with wheelKeys_=", wheelKeys_);
}

const EventQueue::Key *
EventQueue::wheelPeek()
{
    while (wheelKeys_ > 0) {
        if (buckets_[cursorIdx_].empty()) {
            // Advance the window to the next occupied bucket.  All wheel
            // keys lie within [wheelBase_, wheelBase_ + horizon), so a
            // single circular scan finds the earliest one.
            const std::size_t idx = nextOccupied(cursorIdx_);
            const std::size_t steps =
                (idx - cursorIdx_ + kNumBuckets) & (kNumBuckets - 1);
            wheelBase_ += static_cast<Tick>(steps) * kBucketWidth;
            cursorIdx_ = idx;
        }
        Bucket &b = buckets_[cursorIdx_];
        while (!b.empty() && !slots_[b.front().slot].fn) {
            recycle(b.front().slot);
            std::pop_heap(b.begin(), b.end(), std::greater<Key>{});
            b.pop_back();
            --wheelKeys_;
        }
        if (!b.empty())
            return &b.front();
        releaseBucket(cursorIdx_);
    }
    return nullptr;
}

const EventQueue::Key *
EventQueue::heapPeek()
{
    while (!heap_.empty() && !slots_[heap_.top().slot].fn) {
        recycle(heap_.top().slot);
        heap_.pop();
    }
    return heap_.empty() ? nullptr : &heap_.top();
}

Tick
EventQueue::nextTick() const
{
    auto *self = const_cast<EventQueue *>(this);
    const Key *w = self->wheelPeek();
    const Key *h = self->heapPeek();
    if (w == nullptr && h == nullptr)
        return kTickNever;
    if (w == nullptr)
        return h->when;
    if (h == nullptr)
        return w->when;
    return (*w > *h) ? h->when : w->when;
}

Tick
EventQueue::executeNext()
{
    const Key *w = wheelPeek();
    const Key *h = heapPeek();
    DVSNET_ASSERT(w != nullptr || h != nullptr,
                  "executeNext on empty queue");

    // Strict (when, seq) order across tiers preserves same-tick FIFO
    // even when one event sits in the wheel and the other in the heap.
    const bool fromWheel = w != nullptr && (h == nullptr || !(*w > *h));
    Key key;
    if (fromWheel) {
        Bucket &b = buckets_[cursorIdx_];
        key = b.front();
        std::pop_heap(b.begin(), b.end(), std::greater<Key>{});
        b.pop_back();
        --wheelKeys_;
        if (b.empty())
            releaseBucket(cursorIdx_);
    } else {
        key = *h;
        heap_.pop();
        // With the wheel empty, re-anchor the window at the time just
        // popped so subsequent near-future schedules use the wheel again.
        if (wheelKeys_ == 0 && key.when >= wheelBase_ + kWheelHorizon) {
            wheelBase_ = key.when & ~(kBucketWidth - 1);
            cursorIdx_ = static_cast<std::size_t>(
                (key.when >> kBucketShift) & (kNumBuckets - 1));
        }
    }

    EventFn fn = std::move(slots_[key.slot].fn);
    slots_[key.slot].fn.reset();
    recycle(key.slot);
    --liveCount_;
    ++executed_;
    fn();
    return key.when;
}

} // namespace dvsnet::sim

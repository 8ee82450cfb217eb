#include "sim/simulator.h"

#include <utility>

#include "common/logging.h"

namespace proteus {

Simulator::Simulator()
{
    // Make log output attributable to a point on the virtual
    // timeline. With several simulators alive the newest wins; the
    // clear below is owner-checked so a dying old one never unhooks it.
    setLogTimeSource(this, [](const void* owner) {
        return toSeconds(
            static_cast<const Simulator*>(owner)->now());
    });
}

Simulator::~Simulator()
{
    clearLogTimeSource(this);
}

void
Simulator::reserveEvents(std::size_t n)
{
    heap_.reserve(n);
    free_slots_.reserve(n);
    slots_.reserve(n);
    while (slots_.size() < n) {
        free_slots_.push_back(static_cast<std::uint32_t>(slots_.size()));
        slots_.emplace_back();
    }
    while (lane_.size() < n)
        growLane();
}

EventId
Simulator::arm(std::uint32_t slot, Time at)
{
    PROTEUS_ASSERT(at >= now_, "scheduling into the past: at=", at,
                   " now=", now_);
    ++armed_;
    enqueue(slot, at);
    return (static_cast<EventId>(slots_[slot].gen) << 32) |
           static_cast<EventId>(slot + 1);
}

void
Simulator::enqueue(std::uint32_t slot, Time at)
{
    if (at == now_) {
        lanePush(slot);  // lane order is push order; seq orders the heap
        return;
    }
    heap_.push_back(Entry{});
    siftUp(heap_.size() - 1, Entry{at, seq_++, slot});
}

void
Simulator::unlink(std::uint32_t slot)
{
    const std::uint32_t pos = slots_[slot].pos;
    if (pos & kInLane)
        lane_[pos & ~kInLane] = kHole;
    else
        heapRemove(pos);
}

void
Simulator::releaseSlot(std::uint32_t slot)
{
    EventSlot& s = slots_[slot];
    s.gen = (s.gen + 1) & kGenMask;
    s.pos = kFree;
    --armed_;
    free_slots_.push_back(slot);
}

void
Simulator::fire(std::uint32_t slot)
{
    Callback cb = std::move(slots_[slot].cb);
    // Release before invoking so the callback itself can recycle the
    // slot — reuse order stays deterministic (LIFO).
    releaseSlot(slot);
    ++executed_;
    cb();
}

std::uint32_t
Simulator::pendingSlot(EventId id) const
{
    if ((id & kPeriodicTag) != 0)
        return kFree;
    const std::uint32_t encoded_slot =
        static_cast<std::uint32_t>(id & 0xFFFFFFFFu);
    if (encoded_slot == 0 || encoded_slot > slots_.size())
        return kFree;
    const std::uint32_t slot = encoded_slot - 1;
    const EventSlot& s = slots_[slot];
    if (s.pos == kFree || s.gen != static_cast<std::uint32_t>(id >> 32))
        return kFree;
    return slot;
}

bool
Simulator::cancel(EventId id)
{
    const std::uint32_t slot = pendingSlot(id);
    if (slot == kFree)
        return false;
    unlink(slot);
    slots_[slot].cb.reset();
    releaseSlot(slot);
    return true;
}

bool
Simulator::reschedule(EventId id, Time at)
{
    const std::uint32_t slot = pendingSlot(id);
    if (slot == kFree)
        return false;
    PROTEUS_ASSERT(at >= now_, "rescheduling into the past: at=", at,
                   " now=", now_);
    const std::uint32_t pos = slots_[slot].pos;
    if (at == now_ || (pos & kInLane)) {
        unlink(slot);
        enqueue(slot, at);
        return true;
    }
    // Heap to heap: rewrite the key in place and sift once.
    heapFix(pos, Entry{at, seq_++, slot});
    return true;
}

EventId
Simulator::schedulePeriodic(Duration period, Callback cb)
{
    PROTEUS_ASSERT(period > 0, "periodic task needs positive period");
    const std::uint32_t index =
        static_cast<std::uint32_t>(periodics_.size());
    periodics_.push_back(PeriodicTask{std::move(cb), period, false});
    scheduleAfter(period, [this, index] { firePeriodic(index); });
    return kPeriodicTag | index;
}

void
Simulator::firePeriodic(std::uint32_t index)
{
    // Re-index instead of holding a reference across the call: the
    // callback may register new periodics.
    if (periodics_[index].cancelled)
        return;
    periodics_[index].cb();
    if (periodics_[index].cancelled)
        return;
    // Re-arm after the user callback so events it scheduled at the
    // same instant keep their FIFO position ahead of the next tick.
    scheduleAfter(periodics_[index].period,
                  [this, index] { firePeriodic(index); });
}

void
Simulator::cancelPeriodic(EventId id)
{
    if ((id & kPeriodicTag) == 0)
        return;
    const std::uint64_t index = id & ~kPeriodicTag;
    if (index < periodics_.size())
        periodics_[index].cancelled = true;
}

bool
Simulator::fireNext(Time until)
{
    // Heap entries at now() predate every lane entry (see the file
    // comment), so they go first; the clock advances only once the
    // lane is drained.
    if (!heap_.empty() && heap_.front().at == now_) {
        fire(heapPopRoot());
        return true;
    }
    if (laneLive()) {
        const std::uint32_t slot = lane_[lane_head_ & (lane_.size() - 1)];
        ++lane_head_;
        fire(slot);
        return true;
    }
    if (heap_.empty() || heap_.front().at > until)
        return false;
    now_ = heap_.front().at;
    fire(heapPopRoot());
    return true;
}

bool
Simulator::step()
{
    return fireNext(kTimeMax);
}

void
Simulator::run(Time until)
{
    if (until < now_)
        return;  // the clock never goes backwards
    while (fireNext(until)) {
    }
    if (until != kTimeMax)
        now_ = until;
}

// ---------------------------------------------------------------------
// Indexed binary heap

void
Simulator::place(std::size_t i, const Entry& e)
{
    heap_[i] = e;
    slots_[e.slot].pos = static_cast<std::uint32_t>(i);
}

void
Simulator::siftUp(std::size_t i, const Entry& e)
{
    while (i > 0) {
        const std::size_t parent = (i - 1) / 2;
        if (!before(e, heap_[parent]))
            break;
        place(i, heap_[parent]);
        i = parent;
    }
    place(i, e);
}

void
Simulator::siftDown(std::size_t i, const Entry& e)
{
    const std::size_t n = heap_.size();
    for (;;) {
        std::size_t child = 2 * i + 1;
        if (child >= n)
            break;
        if (child + 1 < n && before(heap_[child + 1], heap_[child]))
            ++child;
        if (!before(heap_[child], e))
            break;
        place(i, heap_[child]);
        i = child;
    }
    place(i, e);
}

void
Simulator::heapFix(std::size_t i, const Entry& e)
{
    if (i > 0 && before(e, heap_[(i - 1) / 2]))
        siftUp(i, e);
    else
        siftDown(i, e);
}

void
Simulator::heapRemove(std::size_t i)
{
    const Entry last = heap_.back();
    heap_.pop_back();
    if (i < heap_.size())
        heapFix(i, last);
}

std::uint32_t
Simulator::heapPopRoot()
{
    // Floyd: walk the hole at the root down to a leaf along the
    // smaller children (one compare per level), then sift the last
    // entry up from there — it rarely climbs far.
    const std::uint32_t top = heap_.front().slot;
    const Entry last = heap_.back();
    heap_.pop_back();
    const std::size_t n = heap_.size();
    if (n == 0)
        return top;
    std::size_t i = 0;
    for (;;) {
        std::size_t child = 2 * i + 1;
        if (child >= n)
            break;
        if (child + 1 < n && before(heap_[child + 1], heap_[child]))
            ++child;
        place(i, heap_[child]);
        i = child;
    }
    siftUp(i, last);
    return top;
}

// ---------------------------------------------------------------------
// Same-instant lane

void
Simulator::growLane()
{
    // Double and re-lay live entries at their new cells; the
    // free-running counters stay valid.
    std::vector<std::uint32_t> grown(lane_.empty() ? 16 : 2 * lane_.size());
    const std::uint32_t mask = static_cast<std::uint32_t>(grown.size() - 1);
    for (std::uint32_t k = lane_head_; k != lane_tail_; ++k) {
        const std::uint32_t s = lane_[k & (lane_.size() - 1)];
        grown[k & mask] = s;
        if (s != kHole)
            slots_[s].pos = kInLane | (k & mask);
    }
    lane_.swap(grown);
}

void
Simulator::lanePush(std::uint32_t slot)
{
    if (lane_tail_ - lane_head_ == lane_.size())
        growLane();
    const std::uint32_t cell =
        lane_tail_++ & static_cast<std::uint32_t>(lane_.size() - 1);
    lane_[cell] = slot;
    slots_[slot].pos = kInLane | cell;
}

bool
Simulator::laneLive()
{
    while (lane_head_ != lane_tail_) {
        if (lane_[lane_head_ & (lane_.size() - 1)] != kHole)
            return true;
        ++lane_head_;
    }
    return false;
}

}  // namespace proteus

/**
 * @file
 * Discrete-event simulation core.
 *
 * The simulator owns a virtual clock and the set of pending events.
 * Every event is ordered by (time, scheduling sequence number), so
 * events at equal times fire in scheduling order (FIFO) and runs are
 * fully deterministic.
 *
 * Pending events live in one of two places:
 *  - a **same-instant lane**, a FIFO ring for events scheduled at
 *    exactly now(). Zero-delay hand-offs (pipeline stage forwarding,
 *    re-evaluations) never touch the heap.
 *  - an **indexed binary min-heap** for everything later. Each slot
 *    records its heap position, so cancel() and reschedule() fix the
 *    heap in O(log n) on the spot and no stale entry is ever left
 *    behind. The root is removed with Floyd's hole-to-leaf pop.
 *
 * The split keeps the (time, seq) order exact. A heap entry at time T
 * was pushed while now() < T; a lane entry at T was pushed while
 * now() == T. The clock never goes backwards, so every heap entry at T
 * carries a lower seq than every lane entry at T. step() therefore
 * fires heap entries at now() first, then drains the lane, and only
 * then advances the clock to the heap root. A cancelled lane entry
 * leaves a hole that the drain skips; the lane is empty before the
 * clock moves, so holes never outlive their instant.
 *
 * This is the substrate the paper's trace-driven evaluation runs on
 * (§6.1.5): arrival of queries, batch completions, controller periods
 * and monitoring reports are all simulator events.
 *
 * Memory: the hot path is allocation-free at steady state (DESIGN.md,
 * "Memory management"). Callbacks are constructed directly in their
 * event slot (InplaceFunction, no per-event heap closure), slots are
 * recycled through a freelist in LIFO order, and a per-slot
 * generation counter invalidates the handles of fired and cancelled
 * events. reserveEvents() pre-warms the slots, the heap and the lane so
 * a sized run never grows them mid-flight.
 */

#ifndef PROTEUS_SIM_SIMULATOR_H_
#define PROTEUS_SIM_SIMULATOR_H_

#include <cstdint>
#include <deque>
#include <utility>
#include <vector>

#include "common/alloc/inplace_function.h"
#include "common/types.h"

namespace proteus {

/** Handle identifying a scheduled event; usable for cancellation.
 *  Encoding: low 32 bits = slot index + 1 (so kNoEvent == 0 is never
 *  produced), bits 32..62 = slot generation (stale-handle detection),
 *  bit 63 = periodic-task tag. */
using EventId = std::uint64_t;

/** Sentinel handle for "no event". */
inline constexpr EventId kNoEvent = 0;

/**
 * Deterministic discrete-event simulator with a virtual microsecond
 * clock.
 */
class Simulator
{
  public:
    /** Inline capacity for event closures. A closure that exceeds it
     *  fails to compile — move the state into a member of the
     *  scheduling object and capture `this`. */
    static constexpr std::size_t kCallbackCapacity = 64;

    using Callback = alloc::InplaceFunction<kCallbackCapacity>;

    Simulator();
    ~Simulator();
    Simulator(const Simulator&) = delete;
    Simulator& operator=(const Simulator&) = delete;

    /** @return the current virtual time. */
    Time now() const { return now_; }

    /**
     * Schedule @p fn to run at absolute time @p at (>= now). The
     * closure is constructed directly in its event slot.
     * @return a handle that can be passed to cancel() / reschedule().
     */
    template <typename F>
    EventId
    scheduleAt(Time at, F&& fn)
    {
        const std::uint32_t slot = acquireSlot();
        slots_[slot].cb.emplace(std::forward<F>(fn));
        return arm(slot, at);
    }

    /** Schedule @p fn to run @p delay (>= 0) from now. */
    template <typename F>
    EventId
    scheduleAfter(Duration delay, F&& fn)
    {
        return scheduleAt(now_ + delay, std::forward<F>(fn));
    }

    /**
     * Schedule @p cb every @p period, with the first invocation after
     * one full period. The callback keeps repeating until the run
     * ends or cancelPeriodic() is called with the returned handle.
     */
    EventId schedulePeriodic(Duration period, Callback cb);

    /**
     * Cancel a pending event. Cancelling an already-fired or unknown
     * handle is a harmless no-op.
     * @return true if the event was pending and is now cancelled.
     */
    bool cancel(EventId id);

    /**
     * Move a pending event to absolute time @p at (>= now). Exactly
     * equivalent to cancel() followed by scheduleAt() with the same
     * callback — the event takes the next sequence number, so it
     * fires after everything already scheduled at @p at — except that
     * the handle stays valid. Fired, cancelled, unknown and periodic
     * handles are left alone.
     * @return true if the event was pending and has been moved.
     */
    bool reschedule(EventId id, Time at);

    /** Stop a periodic task created with schedulePeriodic(). */
    void cancelPeriodic(EventId id);

    /** Run until the event queue is empty or until() time is reached.
     *  The clock ends at @p until unless it is already past it (it
     *  never moves backwards) or @p until is kTimeMax. */
    void run(Time until = kTimeMax);

    /** Execute at most one event. @return false if the queue is empty. */
    bool step();

    /** @return the number of events executed so far. */
    std::uint64_t eventsExecuted() const { return executed_; }

    /** @return the number of events currently pending. */
    std::size_t pendingEvents() const { return armed_; }

    /**
     * Pre-warm the event slots, heap and lane so runs with at most
     * @p n events pending at once never allocate while stepping.
     */
    void reserveEvents(std::size_t n);

    /** @return live slots + freelist capacity (alloc.pool gauges). */
    std::size_t eventSlotCapacity() const { return slots_.size(); }

  private:
    /** Tag bit distinguishing periodic handles from event handles. */
    static constexpr EventId kPeriodicTag = EventId{1} << 63;
    /** Generation bits available in the handle encoding. */
    static constexpr std::uint32_t kGenMask = 0x7FFFFFFFu;
    /** EventSlot::pos of a slot that holds no pending event. */
    static constexpr std::uint32_t kFree = 0xFFFFFFFFu;
    /** EventSlot::pos tag: the low bits index the lane, not the heap. */
    static constexpr std::uint32_t kInLane = 0x80000000u;
    /** Lane cell left behind by a cancelled or moved event. */
    static constexpr std::uint32_t kHole = 0xFFFFFFFFu;

    /** Storage for one scheduled callback. */
    struct EventSlot {
        Callback cb;
        std::uint32_t gen = 0;    ///< bumped on every release
        std::uint32_t pos = kFree;  ///< heap index, kInLane|cell, kFree
    };

    /** Heap entry; (at, seq) gives deterministic FIFO at equal times. */
    struct Entry {
        Time at;
        std::uint64_t seq;
        std::uint32_t slot;
    };
    static bool
    before(const Entry& a, const Entry& b)
    {
        // One branch-free 128-bit compare of (at, seq): a tie on `at`
        // is common and a tie-break branch mispredicts.
        return key(a) < key(b);
    }
    static __int128
    key(const Entry& e)
    {
        // at * 2^64 + seq: signed on `at`, unsigned on `seq`.
        return (static_cast<__int128>(e.at) << 64) | e.seq;
    }

    /** Pop the freelist (LIFO), or grow the slots by one. */
    std::uint32_t
    acquireSlot()
    {
        if (free_slots_.empty()) {
            slots_.emplace_back();
            return static_cast<std::uint32_t>(slots_.size() - 1);
        }
        const std::uint32_t slot = free_slots_.back();
        free_slots_.pop_back();
        return slot;
    }
    EventId arm(std::uint32_t slot, Time at);
    void enqueue(std::uint32_t slot, Time at);
    void unlink(std::uint32_t slot);
    void releaseSlot(std::uint32_t slot);
    void fire(std::uint32_t slot);
    /** Fire the next event if it is due by @p until (>= now()). */
    bool fireNext(Time until);
    void firePeriodic(std::uint32_t index);
    /** Resolve @p id to the slot of a pending event, or kFree. */
    std::uint32_t pendingSlot(EventId id) const;

    // Heap primitives; every move records the entry's new position in
    // its slot.
    void place(std::size_t i, const Entry& e);
    void siftUp(std::size_t i, const Entry& e);
    void siftDown(std::size_t i, const Entry& e);
    /** Put @p e into the hole at @p i, sifting whichever way it must. */
    void heapFix(std::size_t i, const Entry& e);
    void heapRemove(std::size_t i);
    std::uint32_t heapPopRoot();

    // Lane primitives.
    void lanePush(std::uint32_t slot);
    void growLane();
    /** Drop holes at the lane front. @return true if a live entry is left. */
    bool laneLive();

    Time now_ = 0;
    std::uint64_t seq_ = 0;
    std::uint64_t executed_ = 0;
    std::size_t armed_ = 0;  ///< live (pending, uncancelled) events

    // Event slots: slots_ never shrinks, free_slots_ recycles LIFO so
    // reuse order is deterministic and cache-warm.
    std::vector<EventSlot> slots_;
    std::vector<std::uint32_t> free_slots_;

    // Min-heap on (at, seq) of events later than now(); an explicit
    // vector so reserveEvents() can pre-size it.
    std::vector<Entry> heap_;

    // Same-instant lane: power-of-two ring of slot indices (or kHole)
    // addressed by free-running counters masked to the capacity.
    std::vector<std::uint32_t> lane_;
    std::uint32_t lane_head_ = 0;
    std::uint32_t lane_tail_ = 0;

    // Periodic tasks are registered once and live for the whole run;
    // a deque so in-flight callbacks stay put when another periodic
    // is registered mid-run.
    struct PeriodicTask {
        Callback cb;
        Duration period = 0;
        bool cancelled = false;
    };
    std::deque<PeriodicTask> periodics_;
};

}  // namespace proteus

#endif  // PROTEUS_SIM_SIMULATOR_H_

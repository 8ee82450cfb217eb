/**
 * @file
 * Differential property test of the event core. Seeded random
 * operation sequences — scheduleAt, zero-delay scheduleAfter, cancel
 * (of pending, fired, cancelled and bogus handles), reschedule,
 * schedulePeriodic / cancelPeriodic, step and run(until) — drive the
 * Simulator and a naive reference that keeps every pending event in a
 * flat list and always fires the minimum (at, seq). Event callbacks
 * themselves schedule, cancel and reschedule, so the same-instant lane
 * is exercised while it drains. The fired order, now(),
 * pendingEvents(), eventsExecuted() and the return value of every
 * operation must agree exactly.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "sim/simulator.h"

namespace proteus {
namespace {

/** What an event does when it fires, besides logging itself. */
enum class Action { None, Spawn, RescheduleToNow, Cancel };

/** Per-handle payload, identical in both worlds. */
struct EventSpec {
    Action action = Action::None;
    int target = -1;  ///< handle acted upon (RescheduleToNow, Cancel)
};

/** Fired-callback log line plus operation results, in call order. */
using Log = std::vector<std::string>;

std::string
line(const char* what, long long a, long long b)
{
    return std::string(what) + " " + std::to_string(a) + " " +
           std::to_string(b);
}

/** The simulator under test, addressed by dense handles. */
class SimWorld
{
  public:
    Simulator sim;
    std::vector<EventId> ids;       // handle -> EventId
    std::vector<EventSpec> specs;   // handle -> payload
    std::vector<EventId> periodic;  // periodic handle -> EventId
    Log log;

    int
    scheduleAt(Time at, EventSpec spec)
    {
        const int h = static_cast<int>(ids.size());
        specs.push_back(spec);
        ids.push_back(sim.scheduleAt(at, [this, h] { fire(h); }));
        return h;
    }

    int
    scheduleZeroDelay(EventSpec spec)
    {
        const int h = static_cast<int>(ids.size());
        specs.push_back(spec);
        ids.push_back(sim.scheduleAfter(0, [this, h] { fire(h); }));
        return h;
    }

    int
    schedulePeriodic(Duration period)
    {
        const int p = static_cast<int>(periodic.size());
        periodic.push_back(sim.schedulePeriodic(period, [this, p] {
            log.push_back(line("tick", p, sim.now()));
        }));
        return p;
    }

    bool cancel(int h) { return sim.cancel(ids[h]); }
    bool reschedule(int h, Time at) { return sim.reschedule(ids[h], at); }
    void cancelPeriodic(int p) { sim.cancelPeriodic(periodic[p]); }

  private:
    void
    fire(int h)
    {
        log.push_back(line("fire", h, sim.now()));
        const EventSpec spec = specs[h];
        switch (spec.action) {
        case Action::None:
            break;
        case Action::Spawn:
            scheduleZeroDelay(EventSpec{});
            break;
        case Action::RescheduleToNow:
            log.push_back(line("cb-resched", spec.target,
                               reschedule(spec.target, sim.now())));
            break;
        case Action::Cancel:
            log.push_back(line("cb-cancel", spec.target,
                               cancel(spec.target)));
            break;
        }
    }
};

/** Naive reference: a flat list, linear scan for the min (at, seq). */
class RefWorld
{
  public:
    Time now = 0;
    std::uint64_t executed = 0;
    Log log;

    std::size_t pending() const { return pending_.size(); }

    int
    scheduleAt(Time at, EventSpec spec)
    {
        const int h = static_cast<int>(specs_.size());
        specs_.push_back(spec);
        push(at, h, -1);
        return h;
    }

    int scheduleZeroDelay(EventSpec spec) { return scheduleAt(now, spec); }

    int
    schedulePeriodic(Duration period)
    {
        const int p = static_cast<int>(periods_.size());
        periods_.push_back(period);
        periodic_cancelled_.push_back(false);
        push(now + period, -1, p);
        return p;
    }

    bool
    cancel(int h)
    {
        const std::size_t i = find(h);
        if (i == pending_.size())
            return false;
        pending_.erase(pending_.begin() + static_cast<long>(i));
        return true;
    }

    /** Cancel + schedule with the same payload: takes a fresh seq. */
    bool
    reschedule(int h, Time at)
    {
        const std::size_t i = find(h);
        if (i == pending_.size())
            return false;
        pending_[i].at = at;
        pending_[i].seq = seq_++;
        return true;
    }

    void cancelPeriodic(int p) { periodic_cancelled_[p] = true; }

    bool
    step()
    {
        if (pending_.empty())
            return false;
        std::size_t best = 0;
        for (std::size_t i = 1; i < pending_.size(); ++i) {
            const Pending& a = pending_[i];
            const Pending& b = pending_[best];
            if (a.at < b.at || (a.at == b.at && a.seq < b.seq))
                best = i;
        }
        const Pending e = pending_[best];
        pending_.erase(pending_.begin() + static_cast<long>(best));
        now = e.at;
        ++executed;
        if (e.periodic >= 0) {
            if (periodic_cancelled_[e.periodic])
                return true;
            log.push_back(line("tick", e.periodic, now));
            push(now + periods_[e.periodic], -1, e.periodic);
            return true;
        }
        log.push_back(line("fire", e.handle, now));
        const EventSpec spec = specs_[e.handle];
        switch (spec.action) {
        case Action::None:
            break;
        case Action::Spawn:
            scheduleZeroDelay(EventSpec{});
            break;
        case Action::RescheduleToNow:
            log.push_back(line("cb-resched", spec.target,
                               reschedule(spec.target, now)));
            break;
        case Action::Cancel:
            log.push_back(line("cb-cancel", spec.target,
                               cancel(spec.target)));
            break;
        }
        return true;
    }

    void
    run(Time until)
    {
        if (until < now)
            return;
        for (;;) {
            Time next = kTimeMax;
            for (const Pending& p : pending_)
                next = std::min(next, p.at);
            if (pending_.empty() || next > until)
                break;
            step();
        }
        if (until != kTimeMax)
            now = until;
    }

  private:
    struct Pending {
        Time at;
        std::uint64_t seq;
        int handle;    ///< -1 for a periodic tick
        int periodic;  ///< periodic index, or -1
    };

    void
    push(Time at, int handle, int periodic)
    {
        pending_.push_back(Pending{at, seq_++, handle, periodic});
    }

    std::size_t
    find(int h) const
    {
        std::size_t i = 0;
        while (i < pending_.size() && pending_[i].handle != h)
            ++i;
        return i;
    }

    std::uint64_t seq_ = 0;
    std::vector<Pending> pending_;
    std::vector<EventSpec> specs_;
    std::vector<Duration> periods_;
    std::vector<bool> periodic_cancelled_;
};

/** Run one seeded op sequence against both worlds. */
void
runSeed(std::uint64_t seed)
{
    std::mt19937_64 rng(seed);
    auto pick = [&rng](std::uint64_t n) {
        return static_cast<int>(rng() % n);
    };
    SimWorld sim;
    RefWorld ref;

    auto randomSpec = [&](int handles) {
        EventSpec spec;
        const int kind = pick(8);
        if (kind == 0) {
            spec.action = Action::Spawn;
        } else if (handles > 0 && kind == 1) {
            spec.action = Action::RescheduleToNow;
            spec.target = pick(static_cast<std::uint64_t>(handles));
        } else if (handles > 0 && kind == 2) {
            spec.action = Action::Cancel;
            spec.target = pick(static_cast<std::uint64_t>(handles));
        }
        return spec;
    };
    // Small delays so equal timestamps (and the lane) are common.
    auto randomAt = [&]() -> Time {
        return pick(3) == 0 ? ref.now : ref.now + pick(6);
    };

    constexpr int kOps = 160;
    for (int op = 0; op < kOps; ++op) {
        ASSERT_EQ(sim.ids.size(), sim.specs.size());
        const int handles = static_cast<int>(sim.ids.size());
        const int periodics = static_cast<int>(sim.periodic.size());
        const int kind = pick(100);
        if (kind < 25) {
            const Time at = randomAt();
            const EventSpec spec = randomSpec(handles);
            ASSERT_EQ(sim.scheduleAt(at, spec), ref.scheduleAt(at, spec));
        } else if (kind < 35) {
            const EventSpec spec = randomSpec(handles);
            ASSERT_EQ(sim.scheduleZeroDelay(spec),
                      ref.scheduleZeroDelay(spec));
        } else if (kind < 47 && handles > 0) {
            const int h = pick(static_cast<std::uint64_t>(handles));
            const bool a = sim.cancel(h);
            ASSERT_EQ(a, ref.cancel(h)) << "cancel " << h;
        } else if (kind < 60 && handles > 0) {
            const int h = pick(static_cast<std::uint64_t>(handles));
            const Time at = randomAt();
            const bool a = sim.reschedule(h, at);
            ASSERT_EQ(a, ref.reschedule(h, at)) << "reschedule " << h;
        } else if (kind < 63) {
            // Bogus handles: never issued, or a periodic handle.
            const EventId bogus[] = {
                kNoEvent, (EventId{0x7FFFFFF0} << 32) | 1,
                EventId{0xFFFFFFFF},
                periodics > 0 ? sim.periodic[0] : EventId{1} << 63};
            const EventId id = bogus[pick(4)];
            ASSERT_FALSE(sim.sim.cancel(id));
            ASSERT_FALSE(sim.sim.reschedule(id, sim.sim.now()));
        } else if (kind < 66) {
            const Duration period = 1 + pick(4);
            ASSERT_EQ(sim.schedulePeriodic(period),
                      ref.schedulePeriodic(period));
        } else if (kind < 69 && periodics > 0) {
            const int p = pick(static_cast<std::uint64_t>(periodics));
            sim.cancelPeriodic(p);
            ref.cancelPeriodic(p);
        } else if (kind < 88) {
            ASSERT_EQ(sim.sim.step(), ref.step());
        } else {
            // Mostly forward, sometimes behind the clock.
            const Time until =
                pick(5) == 0 ? ref.now - pick(3) : ref.now + pick(8);
            sim.sim.run(until);
            ref.run(until);
        }
        ASSERT_EQ(sim.sim.now(), ref.now) << "op " << op;
        ASSERT_EQ(sim.sim.pendingEvents(), ref.pending()) << "op " << op;
        ASSERT_EQ(sim.sim.eventsExecuted(), ref.executed) << "op " << op;
        ASSERT_EQ(sim.log, ref.log) << "op " << op;
    }
    // Drain what is left; periodic tasks keep the queue alive, so stop
    // them first and bound the horizon.
    for (int p = 0; p < static_cast<int>(sim.periodic.size()); ++p) {
        sim.cancelPeriodic(p);
        ref.cancelPeriodic(p);
    }
    sim.sim.run(ref.now + 100);
    ref.run(ref.now + 100);
    EXPECT_EQ(sim.sim.now(), ref.now);
    EXPECT_EQ(sim.sim.pendingEvents(), ref.pending());
    EXPECT_EQ(sim.sim.pendingEvents(), 0u);
    EXPECT_EQ(sim.sim.eventsExecuted(), ref.executed);
    EXPECT_EQ(sim.log, ref.log);
}

TEST(SimulatorPropertyTest, MatchesNaiveReferenceOverSeeds)
{
    for (std::uint64_t seed = 1; seed <= 600; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        runSeed(seed);
        if (::testing::Test::HasFatalFailure())
            return;
    }
}

}  // namespace
}  // namespace proteus

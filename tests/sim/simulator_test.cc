#include "sim/simulator.h"

#include <gtest/gtest.h>

#include <vector>

namespace proteus {
namespace {

TEST(SimulatorTest, StartsAtZero)
{
    Simulator sim;
    EXPECT_EQ(sim.now(), 0);
    EXPECT_EQ(sim.pendingEvents(), 0u);
}

TEST(SimulatorTest, EventsFireInTimeOrder)
{
    Simulator sim;
    std::vector<int> order;
    sim.scheduleAt(seconds(3.0), [&] { order.push_back(3); });
    sim.scheduleAt(seconds(1.0), [&] { order.push_back(1); });
    sim.scheduleAt(seconds(2.0), [&] { order.push_back(2); });
    sim.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(sim.now(), seconds(3.0));
}

TEST(SimulatorTest, EqualTimesFireFifo)
{
    Simulator sim;
    std::vector<int> order;
    for (int i = 0; i < 10; ++i)
        sim.scheduleAt(seconds(1.0), [&order, i] { order.push_back(i); });
    sim.run();
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(SimulatorTest, ScheduleAfterUsesCurrentTime)
{
    Simulator sim;
    Time fired_at = kNoTime;
    sim.scheduleAt(seconds(5.0), [&] {
        sim.scheduleAfter(seconds(2.0), [&] { fired_at = sim.now(); });
    });
    sim.run();
    EXPECT_EQ(fired_at, seconds(7.0));
}

TEST(SimulatorTest, CancelPreventsExecution)
{
    Simulator sim;
    bool fired = false;
    EventId id = sim.scheduleAt(seconds(1.0), [&] { fired = true; });
    EXPECT_TRUE(sim.cancel(id));
    EXPECT_FALSE(sim.cancel(id));  // already gone
    sim.run();
    EXPECT_FALSE(fired);
}

TEST(SimulatorTest, CancelUnknownIdIsNoop)
{
    Simulator sim;
    EXPECT_FALSE(sim.cancel(9999));
}

TEST(SimulatorTest, RunUntilStopsClock)
{
    Simulator sim;
    int count = 0;
    sim.scheduleAt(seconds(1.0), [&] { ++count; });
    sim.scheduleAt(seconds(10.0), [&] { ++count; });
    sim.run(seconds(5.0));
    EXPECT_EQ(count, 1);
    EXPECT_EQ(sim.now(), seconds(5.0));
    // Remaining event still fires if we keep running.
    sim.run();
    EXPECT_EQ(count, 2);
}

TEST(SimulatorTest, RunUntilSkipsCancelledFrontEvent)
{
    // A cancelled event at the front of the queue must not let run()
    // fire a live event past its horizon.
    Simulator sim;
    int late = 0;
    const EventId a = sim.scheduleAt(seconds(1.0), [] {});
    sim.scheduleAt(seconds(10.0), [&] { ++late; });
    EXPECT_TRUE(sim.cancel(a));
    sim.run(seconds(5.0));
    EXPECT_EQ(late, 0);
    EXPECT_EQ(sim.now(), seconds(5.0));
    EXPECT_EQ(sim.pendingEvents(), 1u);
    sim.run();
    EXPECT_EQ(late, 1);
    EXPECT_EQ(sim.now(), seconds(10.0));
}

TEST(SimulatorTest, RunUntilBehindTheClockLeavesItAlone)
{
    Simulator sim;
    int count = 0;
    sim.scheduleAt(seconds(10.0), [&] { ++count; });
    sim.run(seconds(5.0));
    sim.run(seconds(3.0));
    EXPECT_EQ(sim.now(), seconds(5.0));
    EXPECT_EQ(count, 0);
    EXPECT_EQ(sim.pendingEvents(), 1u);
}

TEST(SimulatorTest, ZeroDelayEventsFireAfterHeapEventsAtTheSameInstant)
{
    // B was scheduled for t=5 before the clock got there, so it
    // precedes everything A schedules at t=5 while running.
    Simulator sim;
    std::vector<char> order;
    sim.scheduleAt(5, [&] {
        order.push_back('A');
        sim.scheduleAfter(0, [&] {
            order.push_back('C');
            sim.scheduleAfter(0, [&] { order.push_back('E'); });
        });
        sim.scheduleAt(5, [&] { order.push_back('D'); });
    });
    sim.scheduleAt(5, [&] { order.push_back('B'); });
    sim.scheduleAt(6, [&] { order.push_back('F'); });
    sim.run();
    EXPECT_EQ(order, (std::vector<char>{'A', 'B', 'C', 'D', 'E', 'F'}));
}

TEST(SimulatorTest, RescheduleMovesAPendingEvent)
{
    Simulator sim;
    std::vector<int> order;
    const EventId a = sim.scheduleAt(10, [&] { order.push_back(1); });
    sim.scheduleAt(4, [&] { order.push_back(2); });
    sim.scheduleAt(7, [&] { order.push_back(3); });
    // Earlier than everything, then later than everything.
    EXPECT_TRUE(sim.reschedule(a, 2));
    EXPECT_TRUE(sim.reschedule(a, 7));  // ties go after the t=7 event
    EXPECT_EQ(sim.pendingEvents(), 3u);
    sim.run();
    EXPECT_EQ(order, (std::vector<int>{2, 3, 1}));
    EXPECT_EQ(sim.now(), 7);
}

TEST(SimulatorTest, RescheduleKeepsTheHandleValid)
{
    Simulator sim;
    bool fired = false;
    const EventId a = sim.scheduleAt(10, [&] { fired = true; });
    EXPECT_TRUE(sim.reschedule(a, 20));
    EXPECT_TRUE(sim.cancel(a));
    EXPECT_FALSE(sim.reschedule(a, 30));
    sim.run();
    EXPECT_FALSE(fired);
    EXPECT_EQ(sim.pendingEvents(), 0u);
}

TEST(SimulatorTest, RescheduleIgnoresFiredCancelledAndPeriodicHandles)
{
    Simulator sim;
    int ticks = 0;
    const EventId fired = sim.scheduleAt(1, [] {});
    const EventId cancelled = sim.scheduleAt(2, [] {});
    const EventId periodic = sim.schedulePeriodic(5, [&] { ++ticks; });
    EXPECT_TRUE(sim.cancel(cancelled));
    sim.run(3);
    EXPECT_FALSE(sim.reschedule(fired, 4));
    EXPECT_FALSE(sim.reschedule(cancelled, 4));
    EXPECT_FALSE(sim.reschedule(periodic, 4));
    EXPECT_FALSE(sim.reschedule(kNoEvent, 4));
    EXPECT_EQ(sim.pendingEvents(), 1u);  // the periodic tick
    sim.run(11);
    EXPECT_EQ(ticks, 2);
    sim.cancelPeriodic(periodic);
}

TEST(SimulatorTest, RescheduleToNowJoinsTheLaneBehindPendingWork)
{
    // Moving an event to now() is cancel + scheduleAt(now): it fires
    // at this instant, after every event already due now — including
    // zero-delay events queued earlier in the same instant.
    Simulator sim;
    std::vector<char> order;
    EventId d = kNoEvent;
    sim.scheduleAt(5, [&] {
        order.push_back('A');
        sim.scheduleAfter(0, [&] { order.push_back('C'); });
        EXPECT_TRUE(sim.reschedule(d, sim.now()));
    });
    sim.scheduleAt(5, [&] { order.push_back('B'); });
    d = sim.scheduleAt(9, [&] { order.push_back('D'); });
    sim.run();
    EXPECT_EQ(order, (std::vector<char>{'A', 'B', 'C', 'D'}));
    EXPECT_EQ(sim.now(), 5);
}

TEST(SimulatorTest, RescheduleWithinTheLaneGoesToItsBack)
{
    Simulator sim;
    std::vector<char> order;
    sim.scheduleAt(5, [&] {
        const EventId b =
            sim.scheduleAfter(0, [&] { order.push_back('B'); });
        sim.scheduleAfter(0, [&] { order.push_back('C'); });
        EXPECT_TRUE(sim.reschedule(b, sim.now()));
        const EventId d =
            sim.scheduleAfter(0, [&] { order.push_back('D'); });
        EXPECT_TRUE(sim.reschedule(d, 8));  // lane -> heap
        EXPECT_EQ(sim.pendingEvents(), 3u);
    });
    sim.run();
    EXPECT_EQ(order, (std::vector<char>{'C', 'B', 'D'}));
    EXPECT_EQ(sim.now(), 8);
}

TEST(SimulatorTest, CancelInsideTheLaneLeavesNoPendingEvent)
{
    Simulator sim;
    int fired = 0;
    sim.scheduleAt(5, [&] {
        const EventId b = sim.scheduleAfter(0, [&] { ++fired; });
        EXPECT_TRUE(sim.cancel(b));
        EXPECT_EQ(sim.pendingEvents(), 0u);
    });
    EXPECT_TRUE(sim.step());
    EXPECT_FALSE(sim.step());
    EXPECT_EQ(fired, 0);
}

TEST(SimulatorTest, LaneGrowthKeepsHandlesValid)
{
    // 100 same-instant events outgrow the initial lane several times,
    // with the ring already wrapped by an earlier instant; cancel and
    // reschedule must still find each one afterwards.
    Simulator sim;
    std::vector<int> order;
    std::vector<EventId> ids;
    for (int i = 0; i < 10; ++i)
        sim.scheduleAt(0, [] {});
    sim.run(1);
    sim.scheduleAt(5, [&] {
        for (int i = 0; i < 100; ++i)
            ids.push_back(
                sim.scheduleAfter(0, [&order, i] { order.push_back(i); }));
        for (int i = 0; i < 100; i += 3)
            EXPECT_TRUE(sim.cancel(ids[i]));
        EXPECT_TRUE(sim.reschedule(ids[1], sim.now()));
        EXPECT_TRUE(sim.reschedule(ids[4], sim.now()));
    });
    sim.run();
    std::vector<int> expected;
    for (int i = 0; i < 100; ++i) {
        if (i % 3 != 0 && i != 1 && i != 4)
            expected.push_back(i);
    }
    expected.push_back(1);
    expected.push_back(4);
    EXPECT_EQ(order, expected);
    EXPECT_EQ(sim.pendingEvents(), 0u);
}

TEST(SimulatorTest, SchedulingMovesTheClosureOnceIntoItsSlot)
{
    struct Counted {
        int* moves;
        explicit Counted(int* m) : moves(m) {}
        Counted(Counted&& o) noexcept : moves(o.moves) { ++*moves; }
        Counted(const Counted&) = delete;
        void operator()() const {}
    };
    Simulator sim;
    int moves = 0;
    sim.scheduleAt(1, Counted(&moves));
    EXPECT_EQ(moves, 1);
}

TEST(SimulatorTest, PeriodicTaskRepeatsUntilCancelled)
{
    Simulator sim;
    int ticks = 0;
    EventId id = sim.schedulePeriodic(seconds(1.0), [&] {
        ++ticks;
        if (ticks == 4)
            sim.cancelPeriodic(id);
    });
    sim.run(seconds(100.0));
    EXPECT_EQ(ticks, 4);
}

TEST(SimulatorTest, PeriodicFirstFiringAfterOnePeriod)
{
    Simulator sim;
    Time first = kNoTime;
    EventId id = sim.schedulePeriodic(seconds(30.0), [&] {
        if (first == kNoTime)
            first = sim.now();
        sim.cancelPeriodic(id);
    });
    sim.run(seconds(120.0));
    EXPECT_EQ(first, seconds(30.0));
}

TEST(SimulatorTest, EventsScheduledDuringRunExecute)
{
    Simulator sim;
    int depth = 0;
    std::function<void()> recurse = [&] {
        if (++depth < 5)
            sim.scheduleAfter(seconds(1.0), recurse);
    };
    sim.scheduleAfter(seconds(1.0), recurse);
    sim.run();
    EXPECT_EQ(depth, 5);
    EXPECT_EQ(sim.now(), seconds(5.0));
}

TEST(SimulatorTest, EventsExecutedCounter)
{
    Simulator sim;
    for (int i = 0; i < 7; ++i)
        sim.scheduleAt(i, [] {});
    sim.run();
    EXPECT_EQ(sim.eventsExecuted(), 7u);
}

TEST(SimulatorTest, StepExecutesExactlyOne)
{
    Simulator sim;
    int count = 0;
    sim.scheduleAt(1, [&] { ++count; });
    sim.scheduleAt(2, [&] { ++count; });
    EXPECT_TRUE(sim.step());
    EXPECT_EQ(count, 1);
    EXPECT_TRUE(sim.step());
    EXPECT_EQ(count, 2);
    EXPECT_FALSE(sim.step());
}

}  // namespace
}  // namespace proteus

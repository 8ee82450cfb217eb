/**
 * @file
 * Allocation-layer throughput bench: how fast the discrete-event core
 * turns over, and how many heap allocations the serving system
 * performs per query once warm.
 *
 *  - events_per_sec: wall-clock event throughput of the Simulator
 *    under a pure scheduling workload (periodic tasks recycling event
 *    slots). Best of three passes to damp scheduler noise; the
 *    committed baseline is deliberately conservative (~quarter of a
 *    dev-box measurement) so only a catastrophic regression — e.g.
 *    reintroducing per-event allocation — trips the bench_diff gate on
 *    shared CI runners.
 *  - timer_events_per_sec: the same measure for the Worker batch-timer
 *    pattern — each task arms a timer, every arrival moves it earlier
 *    (Simulator::reschedule), and when it fires it re-arms — so the
 *    gate also covers the cancel/reschedule path. Same best-of-three
 *    and ~quarter baseline.
 *  - allocs_per_query: operator-new calls inside a 30 s steady-state
 *    serving window divided by the queries that arrive in it. The
 *    zero-allocation refactor pins this at exactly 0, and the gate
 *    (LowerBetter, abs tolerance 0.01) keeps it there.
 *
 * The steady window uses the same isolation recipe as
 * tests/alloc/zero_alloc_test.cc: control_period and snapshot_interval
 * longer than the trace and an effectively-disabled burst alarm, so no
 * sanctioned epoch-boundary allocation site (solver scratch, metric
 * commits) lands inside the measured slice.
 */

#include <cstdint>
#include <iostream>
#include <vector>

#include "bench_util.h"
#include "common/alloc/alloc_counter.h"
#include "common/clock.h"
#include "sim/simulator.h"
#include "workload/generators.h"

namespace {

using namespace proteus;

/** One pass: 64 periodic tasks at 1 ms over 60 simulated seconds. */
double
simulatorEventsPerSec()
{
    constexpr int kTasks = 64;
    constexpr double kSimSeconds = 60.0;

    Simulator sim;
    sim.reserveEvents(kTasks + 8);
    std::uint64_t sink = 0;
    for (int i = 0; i < kTasks; ++i) {
        sim.schedulePeriodic(seconds(0.001),
                             [&sink, i] { sink += std::uint64_t(i); });
    }

    WallTimer timer;
    sim.run(seconds(kSimSeconds));
    const double elapsed = timer.elapsedSeconds();

    if (sink == 0)  // keeps the callback side effect observable
        std::cerr << "events_per_sec: periodic tasks never fired\n";
    return static_cast<double>(sim.eventsExecuted()) /
           (elapsed > 0.0 ? elapsed : 1e-9);
}

/**
 * One Worker-like batch timer per task: armed 1 ms out on firing,
 * pulled 50 us earlier by every arrival (one per 100 us) while it stays
 * in the future, so each timer is moved about six times before it
 * fires.
 */
struct TimerTask {
    Simulator* sim = nullptr;
    EventId timer = kNoEvent;
    Time timer_at = kNoTime;

    void
    arm()
    {
        timer_at = sim->now() + micros(1000);
        timer = sim->scheduleAt(timer_at, [this] { arm(); });
    }

    void
    arrive()
    {
        if (timer_at - micros(50) > sim->now()) {
            timer_at -= micros(50);
            sim->reschedule(timer, timer_at);
        }
    }
};

/** One pass: 64 timer tasks over 10 simulated seconds. */
double
timerEventsPerSec()
{
    constexpr int kTasks = 64;
    constexpr double kSimSeconds = 10.0;

    Simulator sim;
    sim.reserveEvents(2 * kTasks + 8);
    std::vector<TimerTask> tasks(kTasks);
    for (TimerTask& t : tasks) {
        t.sim = &sim;
        t.arm();
        sim.schedulePeriodic(micros(100), [&t] { t.arrive(); });
    }

    WallTimer timer;
    sim.run(seconds(kSimSeconds));
    const double elapsed = timer.elapsedSeconds();
    return static_cast<double>(sim.eventsExecuted()) /
           (elapsed > 0.0 ? elapsed : 1e-9);
}

/**
 * Heap allocations per query over a warm 30 s window of a uniform
 * 60 QPS mini-system run (measures [20 s, 50 s] of a 60 s trace, so
 * the window holds exactly half the arrivals).
 */
double
allocsPerQuery(std::uint64_t* window_allocs,
               std::uint64_t* window_queries)
{
    Cluster cluster;
    StandardTypes types = addStandardTypes(&cluster);
    cluster.addDevices(types.cpu, 4);
    cluster.addDevices(types.gtx1080ti, 2);
    cluster.addDevices(types.v100, 2);
    ModelRegistry reg;
    for (const auto& fam : miniModelZoo())
        reg.registerFamily(fam);

    SystemConfig cfg;
    cfg.control_period = seconds(3600.0);
    cfg.snapshot_interval = seconds(3600.0);
    cfg.burst_threshold = 1e9;

    const Trace trace = steadyTrace(reg.numFamilies(), 60.0,
                                    seconds(60.0),
                                    ArrivalProcess::Uniform);
    ServingSystem system(&cluster, &reg, cfg);
    system.beginRun(trace);
    system.advanceTo(seconds(20.0));  // warm-up: high-water marks hit

    alloc::ScopedHeapTally tally;
    system.advanceTo(seconds(50.0));
    *window_allocs = tally.count();

    RunResult r = system.finishRun();
    *window_queries = r.summary.arrivals / 2;
    return *window_queries == 0
               ? 0.0
               : static_cast<double>(*window_allocs) /
                     static_cast<double>(*window_queries);
}

}  // namespace

int
main()
{
    using namespace proteus;
    using namespace proteus::bench;

    std::cout << "== events/sec: pooled event core + steady-state "
                 "allocation rate ==\n\n";
    if (!alloc::heapTallyActive()) {
        std::cerr << "events_per_sec: counting operator new not "
                     "linked; allocs_per_query would read 0 vacuously\n";
        return 2;
    }

    double best_eps = 0.0;
    for (int pass = 0; pass < 3; ++pass) {
        const double eps = simulatorEventsPerSec();
        std::cout << "  simulator pass " << (pass + 1) << ": "
                  << fmtDouble(eps / 1e6, 2) << " M events/s\n";
        if (eps > best_eps)
            best_eps = eps;
    }

    double best_timer_eps = 0.0;
    for (int pass = 0; pass < 3; ++pass) {
        const double eps = timerEventsPerSec();
        std::cout << "  timer pass " << (pass + 1) << ": "
                  << fmtDouble(eps / 1e6, 2) << " M events/s\n";
        if (eps > best_timer_eps)
            best_timer_eps = eps;
    }

    std::uint64_t window_allocs = 0;
    std::uint64_t window_queries = 0;
    const double apq = allocsPerQuery(&window_allocs, &window_queries);

    std::cout << "\n  events_per_sec  : " << fmtDouble(best_eps, 0)
              << "  (best of 3)\n"
              << "  timer_events_per_sec: " << fmtDouble(best_timer_eps, 0)
              << "  (best of 3)\n"
              << "  allocs_per_query: " << fmtDouble(apq, 6) << "  ("
              << window_allocs << " allocs / " << window_queries
              << " queries in the steady window)\n";

    JsonReport report("events_per_sec");
    report.addValue("events_per_sec", best_eps);
    report.addValue("timer_events_per_sec", best_timer_eps);
    report.addValue("allocs_per_query", apq);
    report.write();
    return 0;
}

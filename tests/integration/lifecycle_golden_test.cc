/**
 * @file
 * Query-lifecycle golden net: four small seeded runs, each once with
 * observability off and once on, that together cross every place a
 * query's life can end — served, served late, shed at a router,
 * bounced by a variant swap and requeued, dropped at a middle
 * pipeline stage, lost on a crashed device, and drained at the
 * horizon.
 *
 * The expected digests were recorded by running these test bodies on
 * the serving system as it stood when terminal outcomes still flowed
 * through a chain of observers (stage router, pool release, obs
 * fan-out, metrics collector). Any change to how a query is counted
 * must leave every digest bit-identical; a change here is a behaviour
 * change and has to be explained. The timeline-CSV and Chrome-trace
 * digests of the three scenarios whose MILPs branch were re-recorded
 * when branch and bound began re-solving its nodes by dual simplex:
 * the run results stayed bit-identical, and only the solver's own
 * work counts (the solve spans' `nodes` and `simplex_iters`, the
 * `solver.last_nodes`, `solver.last_simplex_iters` and
 * `solver.work_frac` channels) moved.
 *
 * The MILP wall-clock backstop is off, so every value is a function of
 * the seed alone and not of the machine's load.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <utility>

#include "core/serving_system.h"
#include "models/model.h"
#include "obs/exporter.h"
#include "testing/fixtures.h"
#include "workload/generators.h"

namespace proteus {
namespace {

/** 64-bit FNV-1a. */
class Fnv1a
{
  public:
    void
    add(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h_ ^= (v >> (8 * i)) & 0xffu;
            h_ *= 0x100000001b3ull;
        }
    }
    void add(double v) { add(std::bit_cast<std::uint64_t>(v)); }
    void
    add(const std::string& s)
    {
        add(static_cast<std::uint64_t>(s.size()));
        for (unsigned char c : s) {
            h_ ^= c;
            h_ *= 0x100000001b3ull;
        }
    }
    void
    add(const IntervalCounters& c)
    {
        add(c.arrivals);
        add(c.served);
        add(c.served_late);
        add(c.dropped);
        add(c.accuracy_sum);
    }
    std::uint64_t value() const { return h_; }

  private:
    std::uint64_t h_ = 0xcbf29ce484222325ull;
};

/** Digest of everything a run reports except the SLO alarm count. */
std::uint64_t
resultDigest(const RunResult& r)
{
    Fnv1a h;
    const RunSummary& s = r.summary;
    h.add(s.arrivals);
    h.add(s.served);
    h.add(s.served_late);
    h.add(s.dropped);
    h.add(s.avg_throughput_qps);
    h.add(s.avg_demand_qps);
    h.add(s.effective_accuracy);
    h.add(s.max_accuracy_drop);
    h.add(s.slo_violation_ratio);
    h.add(s.fault_count);
    h.add(s.total_downtime_s);
    h.add(s.mean_recovery_s);
    h.add(s.fault_violations);
    h.add(static_cast<std::uint64_t>(r.timeline.size()));
    for (const IntervalSnapshot& snap : r.timeline) {
        h.add(static_cast<std::uint64_t>(snap.start));
        h.add(static_cast<std::uint64_t>(snap.length));
        h.add(snap.total);
        for (const IntervalCounters& c : snap.per_family)
            h.add(c);
        h.add(static_cast<std::uint64_t>(snap.devices_down));
    }
    for (const IntervalCounters& c : r.family_totals)
        h.add(c);
    h.add(static_cast<std::uint64_t>(r.reallocations));
    h.add(r.mean_batch_size);
    h.add(r.shed);
    h.add(static_cast<std::uint64_t>(r.fault_windows.size()));
    for (const FaultWindow& w : r.fault_windows) {
        h.add(static_cast<std::uint64_t>(w.device));
        h.add(static_cast<std::uint64_t>(w.start));
        h.add(static_cast<std::uint64_t>(w.end));
        h.add(w.capacity_lost_qps);
        h.add(w.violations_during);
    }
    h.add(static_cast<std::uint64_t>(r.faults_injected));
    h.add(r.forwarded);
    for (const PipelineRunStats& p : r.pipelines) {
        h.add(p.name);
        h.add(p.stats.served);
        h.add(p.stats.served_late);
        h.add(p.stats.dropped);
        for (const StageStats& st : p.stats.stages) {
            h.add(st.forwarded);
            h.add(st.dropped);
        }
    }
    return h.value();
}

std::uint64_t
textDigest(const std::string& text)
{
    Fnv1a h;
    h.add(text);
    return h.value();
}

/** What one scenario leaves behind, with observability off or on. */
struct Outcome {
    RunResult result;
    std::uint64_t arrivals_in_trace = 0;
    /** Live queries at the horizon, before finishRun drains them. */
    std::size_t in_flight_at_horizon = 0;
    std::size_t in_flight_after = 0;
    std::uint64_t timeline_csv = 0;  ///< obs on only
    std::uint64_t chrome_trace = 0;  ///< obs on only
};

Outcome
runStaged(const Cluster& cluster, const ModelRegistry& registry,
          SystemConfig cfg, const Trace& trace, bool obs)
{
    cfg.milp_time_limit_sec = 0.0;
    cfg.obs.enabled = obs;
    cfg.obs.ring_capacity = 1 << 18;
    ServingSystem system(&cluster, &registry, cfg);
    Outcome out;
    out.arrivals_in_trace = trace.size();
    const Time horizon = system.beginRun(trace);
    system.advanceTo(horizon);
    out.in_flight_at_horizon = system.queriesInFlight();
    out.result = system.finishRun();
    out.in_flight_after = system.queriesInFlight();
    if (obs) {
        out.timeline_csv = textDigest(system.timeseries()->toCsv());
        out.chrome_trace = textDigest(
            obs::toChromeTraceJson(*system.tracer(), system.traceNames()));
    }
    return out;
}

/** Recorded digests of one scenario. */
struct Golden {
    std::uint64_t result;
    std::uint64_t timeline_csv;
    std::uint64_t chrome_trace;
};

/** Run @p scenario off and on and check both against @p golden. */
template <typename Scenario>
std::pair<Outcome, Outcome>
checkScenario(const char* name, Scenario scenario, const Golden& golden)
{
    Outcome off = scenario(false);
    Outcome on = scenario(true);
    for (const Outcome* o : {&off, &on}) {
        EXPECT_EQ(o->result.summary.arrivals, o->arrivals_in_trace)
            << name;
        EXPECT_EQ(o->in_flight_after, 0u) << name;
        EXPECT_EQ(o->result.summary.served + o->result.summary.served_late +
                      o->result.summary.dropped,
                  o->result.summary.arrivals)
            << name;
    }
    EXPECT_EQ(off.in_flight_at_horizon, on.in_flight_at_horizon) << name;
    EXPECT_EQ(resultDigest(off.result), golden.result) << name;
    EXPECT_EQ(resultDigest(on.result), resultDigest(off.result)) << name;
    EXPECT_EQ(on.timeline_csv, golden.timeline_csv) << name;
    EXPECT_EQ(on.chrome_trace, golden.chrome_trace) << name;
    return {std::move(off), std::move(on)};
}

TEST(LifecycleGolden, ReplanningMiniZoo)
{
    // Macro-bursts well past a four-device cluster's capacity: burst
    // alarms re-plan, swapped variants bounce their queues (requeue),
    // and the router sheds what the plan cannot carry.
    testing::World w = testing::miniWorld(2, 1, 1);
    BurstTraceConfig wl;
    wl.duration = seconds(120.0);
    wl.low_qps = 40.0;
    wl.high_qps = 1200.0;
    wl.phase = seconds(30.0);
    wl.seed = 11;
    const Trace trace = burstTrace(w.registry.numFamilies(), wl);
    SystemConfig cfg;
    cfg.seed = 11;
    cfg.control_period = seconds(10.0);
    auto [off, on] = checkScenario(
        "replan",
        [&](bool obs) {
            return runStaged(w.cluster, w.registry, cfg, trace, obs);
        },
        Golden{0xafdca3a108659699ull, 0x66de273c373f347dull,
               0xaed182ea3a93d62eull});
    EXPECT_GT(off.result.reallocations, 3);
    EXPECT_GT(off.result.shed, 0u);
}

PipelineSpec
visionPipeline()
{
    PipelineSpec spec;
    spec.name = "vision";
    spec.slo = millis(60.0);
    spec.stages.push_back({"detect", "resnet", {}});
    spec.stages.push_back({"classify", "efficientnet", {"detect"}});
    spec.stages.push_back({"annotate", "mobilenet", {"classify"}});
    return spec;
}

TEST(LifecycleGolden, OverloadedPipeline)
{
    // A 3-stage chain loaded past its middle stages' capacity: queries
    // are forwarded twice, dropped at every stage, and counted once,
    // end to end, at the entry family.
    Cluster cluster;
    StandardTypes types = addStandardTypes(&cluster);
    cluster.addDevices(types.cpu, 4);
    cluster.addDevices(types.gtx1080ti, 2);
    cluster.addDevices(types.v100, 2);
    ModelRegistry reg;
    for (const auto& fam : miniModelZoo())
        reg.registerFamily(fam);
    PipelineTraceConfig wl;
    wl.qps = 160.0;
    wl.duration = seconds(30.0);
    wl.seed = 12;
    const Trace trace = pipelineTrace({0}, wl);
    SystemConfig cfg;
    cfg.seed = 12;
    cfg.pipelines = {visionPipeline()};
    auto [off, on] = checkScenario(
        "pipeline",
        [&](bool obs) {
            return runStaged(cluster, reg, cfg, trace, obs);
        },
        Golden{0x9888f321c56fd4f3ull, 0x644c0b1c76b9e8caull,
               0x34e6b36175eaad2bull});
    ASSERT_EQ(off.result.pipelines.size(), 1u);
    const PipelineStats& stats = off.result.pipelines[0].stats;
    ASSERT_EQ(stats.stages.size(), 3u);
    EXPECT_GT(stats.stages[1].dropped, 0u);
    EXPECT_GT(stats.stages[2].dropped, 0u);
    EXPECT_EQ(stats.served + stats.served_late + stats.dropped,
              off.result.summary.arrivals);
}

TEST(LifecycleGolden, ScriptedCrash)
{
    // A V100 dies mid-run and recovers: its queued and executing work
    // is lost, the worker bounces, and the fault window counts the
    // violations completed while it was down.
    testing::World w = testing::miniWorld();
    const Trace trace = steadyTrace(w.registry.numFamilies(), 120.0,
                                    seconds(60.0),
                                    ArrivalProcess::Poisson, 13);
    SystemConfig cfg;
    cfg.seed = 13;
    FaultEvent crash;
    crash.at = seconds(20.0);
    crash.kind = FaultKind::DeviceCrash;
    crash.device = 6;  // first v100
    crash.downtime = seconds(15.0);
    cfg.faults.scripted.push_back(crash);
    auto [off, on] = checkScenario(
        "crash",
        [&](bool obs) {
            return runStaged(w.cluster, w.registry, cfg, trace, obs);
        },
        Golden{0x594cafa99a13032aull, 0x75c7721e056b4da1ull,
               0x04a95200b0bc402full});
    EXPECT_EQ(off.result.faults_injected, 2);  // crash + recovery
    ASSERT_EQ(off.result.fault_windows.size(), 1u);
    EXPECT_NE(off.result.fault_windows[0].end, kNoTime);
}

TEST(LifecycleGolden, HorizonDrain)
{
    // Every device stalls hard just before the trace ends, so batches
    // still executing (and queries queued behind them) are live at
    // the horizon and finishRun drains them as dropped.
    testing::World w = testing::miniWorld();
    const Trace trace = steadyTrace(w.registry.numFamilies(), 60.0,
                                    seconds(20.0),
                                    ArrivalProcess::Poisson, 14);
    SystemConfig cfg;
    cfg.seed = 14;
    for (DeviceId d = 0; d < w.cluster.numDevices(); ++d) {
        FaultEvent stall;
        stall.at = seconds(19.0);
        stall.kind = FaultKind::WorkerStall;
        stall.device = d;
        stall.stall_factor = 10000.0;
        stall.stall_window = seconds(60.0);
        cfg.faults.scripted.push_back(stall);
    }
    auto [off, on] = checkScenario(
        "drain",
        [&](bool obs) {
            return runStaged(w.cluster, w.registry, cfg, trace, obs);
        },
        Golden{0xa6b10ac8134fa738ull, 0x8c1db24a8a441bf5ull,
               0x040f2efff5dd39ddull});
    EXPECT_GT(off.in_flight_at_horizon, 0u);
}

}  // namespace
}  // namespace proteus

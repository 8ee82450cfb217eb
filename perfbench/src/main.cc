/**
 * @file
 * perfbench: one seeded benchmark of the full ServingSystem (Proteus
 * MILP allocator + accscale batching), measured from outside.
 *
 *   perfbench --workload <burst|steady_gamma|pipeline> --seed <n>
 *             --seconds <s> --trace <0|1>
 *
 * The program builds the workload's open-loop traces (one per shard)
 * from the seed, then repeats rounds of whole passes over them
 * (construct, beginRun, advanceTo in short simulated slices,
 * finishRun) until --seconds of wall time are spent, timing every
 * call with its own clock. After each slice it reads the allocator's
 * last-solve record: a slice that contains a controller decision is a
 * decision slice, every other slice is pure data path. --trace 0
 * reports the end-to-end metrics of untraced rounds; --trace 1
 * alternates untraced and traced rounds and reports the per-layer
 * metrics. Every line before the last is a readable listing of all
 * metrics; the last line is one JSON object.
 * See perfbench/METRICS.md for the glossary.
 */

#include <sys/resource.h>

#include <array>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "bench_core.h"
#include "core/serving_system.h"
#include "obs/lineage.h"
#include "span_log.h"
#include "workloads.h"

namespace {

using namespace proteus;
using perfbench::median;
using perfbench::nowSeconds;
using perfbench::percentile;
using perfbench::percentileSupported;

/**
 * Simulated length of one advanceTo() slice. Must stay below the
 * controller's minimum decision spacing (the MILP decision delay) so
 * no slice can hold two decisions.
 */
const Duration kSlice = seconds(2.0);

/** Set-up samples (construct + beginRun) taken per --trace 0 run. */
const int kMinSetups = 3;

/** Span ring of a traced pass: large enough for a lineage sample. */
const std::size_t kTraceRing = std::size_t{1} << 18;

struct Args {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    int trace = 0;
};

void
usage()
{
    std::cerr << "usage: perfbench --workload <";
    const auto names = perfbench::workloadNames();
    for (std::size_t i = 0; i < names.size(); ++i)
        std::cerr << (i ? "|" : "") << names[i];
    std::cerr << "> --seed <n> --seconds <s> --trace <0|1>\n";
}

bool
parseArgs(int argc, char** argv, Args* args)
{
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string key = argv[i];
        if (i + 1 >= argc)
            return false;
        const std::string value = argv[++i];
        char* end = nullptr;
        if (key == "--workload") {
            args->workload = value;
            have_workload = true;
        } else if (key == "--seed") {
            args->seed = std::strtoull(value.c_str(), &end, 10);
            if (value.empty() || *end || value[0] == '-')
                return false;
        } else if (key == "--seconds") {
            args->seconds = std::strtod(value.c_str(), &end);
            if (value.empty() || *end || !(args->seconds > 0.0) ||
                args->seconds > 3600.0)
                return false;
        } else if (key == "--trace") {
            if (value != "0" && value != "1")
                return false;
            args->trace = value == "1";
        } else {
            return false;
        }
    }
    return have_workload;
}

/** Everything measured or read back over one pass of the trace. */
struct Pass {
    double ctor_s = 0.0;
    double begin_s = 0.0;
    double run_s = 0.0;
    double finish_s = 0.0;
    RunResult result;
    std::size_t in_flight = 0;
    std::size_t pool_capacity = 0;
    std::uint64_t digest = 0;
    /** Every solve's record, the set-up solve first. */
    std::vector<AllocatorSolveMeta> solves;
    std::vector<double> decision_slice_ms;
    std::vector<double> quiet_slice_ms;
    double decision_wall_s = 0.0;
    double quiet_wall_s = 0.0;
    std::uint64_t quiet_arrivals = 0;
    int budget_exhausted = 0;
    int wall_limited = 0;

    // Read from the program's observability (traced passes only).
    std::uint64_t registry_decisions = 0;
    std::uint64_t spans_recorded = 0;
    std::uint64_t spans_dropped = 0;
    /** Simulated ns per latency segment kind, over lineage_queries. */
    std::array<double, obs::kNumSegmentKinds> segment_ns{};
    std::uint64_t lineage_queries = 0;
};

/** Sim-time latency partition of the queries the span ring retains. */
void
readLineage(const obs::Tracer& tracer, Pass* pass)
{
    obs::LineageIndex index(tracer.spans(), tracer.links());
    // Spans enter the ring when they end, so once the ring has wrapped
    // only queries arriving after the oldest retained span's end still
    // have every hop span; older ones would be blamed as stall.
    Time window = 0;
    if (tracer.dropped() > 0) {
        window = std::numeric_limits<Time>::max();
        for (const obs::SpanRecord& s : index.spans())
            window = std::min(window, s.end);
    }
    for (const obs::SpanRecord& s : index.spans()) {
        if (s.kind != obs::SpanKind::Query || s.start < window)
            continue;
        const obs::CriticalPath path = index.analyze(s.id);
        if (path.segments.empty())
            continue;
        ++pass->lineage_queries;
        for (const obs::Segment& seg : path.segments) {
            pass->segment_ns[static_cast<std::size_t>(seg.kind)] +=
                static_cast<double>(seg.duration());
        }
    }
}

/**
 * One pass over @p trace. With @p spans set the pass is traced: the
 * system records its own spans, and every call into it is recorded as
 * a benchmark span under @p parent.
 */
Pass
runPass(const perfbench::WorkloadSpec& spec, const Trace& trace,
        std::uint64_t seed, perfbench::SpanLog* spans, std::uint64_t parent)
{
    Pass pass;
    const bool traced = spans != nullptr;
    SystemConfig config = spec.config;
    config.seed = seed;
    config.obs.enabled = traced;
    if (traced)
        config.obs.ring_capacity = kTraceRing;

    auto open = [&](const char* name) {
        return spans ? spans->begin(name, parent) : 0;
    };
    auto close = [&](std::uint64_t id,
                     std::vector<std::pair<const char*, std::int64_t>>
                         args = {}) {
        if (spans)
            spans->end(id, std::move(args));
    };

    std::uint64_t span = open("serving.construct");
    double t0 = nowSeconds();
    auto system = std::make_unique<ServingSystem>(&spec.cluster,
                                                  &spec.registry, config);
    pass.ctor_s = nowSeconds() - t0;
    close(span);

    span = open("serving.begin_run");
    t0 = nowSeconds();
    const Time horizon = system->beginRun(trace, spec.planning_demand);
    pass.begin_s = nowSeconds() - t0;
    close(span);

    const double time_limit = config.milp_time_limit_sec;
    auto noteSolve = [&](const AllocatorSolveMeta& meta) {
        pass.solves.push_back(meta);
        const perfbench::SolveTruncation t =
            perfbench::classifySolve(meta, time_limit);
        pass.budget_exhausted += t.budget_exhausted;
        pass.wall_limited += t.wall_limited;
    };
    perfbench::DecisionDetector detector;
    detector.reset(system->allocator()->lastSolveMeta());
    noteSolve(system->allocator()->lastSolveMeta());

    const auto& events = trace.events();
    std::size_t cursor = 0;
    for (Time at = 0; at < horizon;) {
        at = std::min(at + kSlice, horizon);
        span = open("serving.advance");
        t0 = nowSeconds();
        system->advanceTo(at);
        const double wall = nowSeconds() - t0;
        std::uint64_t arrivals = 0;
        for (; cursor < events.size() && events[cursor].at <= at; ++cursor)
            ++arrivals;
        const AllocatorSolveMeta meta = system->allocator()->lastSolveMeta();
        const bool decision = detector.observe(meta);
        if (decision) {
            noteSolve(meta);
            pass.decision_slice_ms.push_back(wall * 1e3);
            pass.decision_wall_s += wall;
        } else {
            pass.quiet_slice_ms.push_back(wall * 1e3);
            pass.quiet_wall_s += wall;
            pass.quiet_arrivals += arrivals;
        }
        close(span, {{"decision", decision},
                     {"nodes", decision ? meta.nodes : 0},
                     {"iterations", decision ? meta.simplex_iterations : 0},
                     {"arrivals", static_cast<std::int64_t>(arrivals)}});
    }
    pass.run_s = pass.decision_wall_s + pass.quiet_wall_s;

    span = open("serving.finish_run");
    t0 = nowSeconds();
    pass.result = system->finishRun();
    pass.finish_s = nowSeconds() - t0;
    close(span);

    pass.in_flight = system->queriesInFlight();
    pass.pool_capacity = system->queryPoolCapacity();
    pass.digest = perfbench::outcomeDigest(pass.result);
    if (traced) {
        const auto& counters = system->metricsRegistry().counters();
        auto it = counters.find("controller.decisions");
        pass.registry_decisions =
            it == counters.end() ? 0 : it->second->value();
        pass.spans_recorded = system->tracer()->recorded();
        pass.spans_dropped = system->tracer()->dropped();
        readLineage(*system->tracer(), &pass);
    }
    return pass;
}

/** Set-up only: construct and provision, then discard the system. */
double
setupOnly(const perfbench::WorkloadSpec& spec, const Trace& trace,
          std::uint64_t seed)
{
    SystemConfig config = spec.config;
    config.seed = seed;
    const double t0 = nowSeconds();
    ServingSystem system(&spec.cluster, &spec.registry, config);
    system.beginRun(trace, spec.planning_demand);
    return nowSeconds() - t0;
}

/** One reported metric. */
struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
    /** Sample count and how it was taken, for the listing. */
    std::string note;
};

class Report
{
  public:
    void
    add(std::string name, double value, std::string unit,
        std::string note = "")
    {
        metrics_.push_back({std::move(name), value, std::move(unit),
                            std::move(note)});
    }

    /**
     * The median or a tail percentile of @p samples. A tail percentile
     * without kMinSamplesBeyond samples above it is listed as not
     * reported instead.
     */
    void
    addPercentile(const std::string& name,
                  const std::vector<double>& samples, double p,
                  const std::string& unit)
    {
        const std::string n = "n=" + std::to_string(samples.size());
        if (samples.empty() ||
            (p > 50.0 && !percentileSupported(samples.size(), p))) {
            unsupported_.push_back(
                name + " (" + n + "; p" +
                std::to_string(static_cast<int>(p)) + " needs " +
                std::to_string(perfbench::kMinSamplesBeyond) +
                " samples beyond it)");
            return;
        }
        add(name, percentile(samples, p), unit, n);
    }

    const Metric*
    find(const std::string& name) const
    {
        for (const Metric& m : metrics_) {
            if (m.name == name)
                return &m;
        }
        return nullptr;
    }

    void
    print(std::ostream& os) const
    {
        char buf[64];
        for (const Metric& m : metrics_) {
            std::snprintf(buf, sizeof buf, "%.6g", m.value);
            os << "metric " << m.name << " = " << buf << " " << m.unit;
            if (!m.note.empty())
                os << "  (" << m.note << ")";
            os << "\n";
        }
        for (const std::string& u : unsupported_)
            os << "metric " << u << ": not reported\n";
    }

  private:
    std::vector<Metric> metrics_;
    std::vector<std::string> unsupported_;
};

/** Metric names the final JSON line carries, per mode. */
const std::vector<std::string> kEndToEnd = {
    "sim_qps", "setup_s", "peak_rss_mb", "slo_violation_ratio",
    "effective_accuracy"};
const std::vector<std::string> kPerLayer = {
    "controller.decisions", "controller.plans_applied",
    "controller.decision_wall_frac", "solver.nodes_total",
    "solver.nodes_p50", "solver.simplex_iters_total",
    "solver.iters_per_node", "solver.us_per_iter",
    "solver.budget_exhausted", "solver.wall_limited", "solver.gap_max",
    "solver.backoff_steps_total", "datapath.ns_per_query",
    "datapath.slice_ms_p50", "datapath.slice_ms_p90", "serving.ctor_s",
    "serving.begin_run_s", "serving.finish_run_s", "alloc.pool_capacity",
    "router.shed_frac", "batching.mean_batch_size", "latency.route_frac",
    "latency.stage_handoff_frac", "latency.queue_behind_batch_frac",
    "latency.epoch_stall_frac", "latency.batch_formation_frac",
    "latency.execution_frac", "latency.stall_frac", "pipeline.forwarded",
    "pipeline.e2e_violation_ratio", "obs.trace_overhead_frac",
    "obs.spans_recorded", "obs.spans_dropped", "workload.gen_s",
    "workload.arrivals"};

double
peakRssMb()
{
    struct rusage usage {};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

template <typename T>
double
ratio(T num, T den)
{
    return den ? static_cast<double>(num) / static_cast<double>(den) : 0.0;
}

/** One pass per shard, traced or not. */
struct Round {
    bool traced = false;
    std::vector<Pass> passes;

    double
    runWall() const
    {
        double s = 0.0;
        for (const Pass& p : passes)
            s += p.run_s;
        return s;
    }
};

/** Sums of one round's simulated outcomes over its shards. */
struct Outcome {
    std::uint64_t arrivals = 0;
    std::uint64_t served = 0;
    std::uint64_t late = 0;
    std::uint64_t dropped = 0;
    std::uint64_t shed = 0;
    double accuracy_sum = 0.0;
};

Outcome
outcomeOf(const Round& round)
{
    Outcome o;
    for (const Pass& p : round.passes) {
        const RunSummary& s = p.result.summary;
        o.arrivals += s.arrivals;
        o.served += s.served;
        o.late += s.served_late;
        o.dropped += s.dropped;
        o.shed += p.result.shed;
        o.accuracy_sum += s.effective_accuracy *
                          static_cast<double>(s.served + s.served_late);
    }
    return o;
}

/** Median over the untraced passes of @p field. */
double
medianOverPasses(const std::vector<Round>& rounds,
                 double (*field)(const Pass&))
{
    std::vector<double> v;
    for (const Round& r : rounds) {
        if (r.traced)
            continue;
        for (const Pass& p : r.passes)
            v.push_back(field(p));
    }
    return median(std::move(v));
}

/** Correctness of every pass; @return what failed (empty = all held). */
std::vector<std::string>
checkRounds(const std::vector<Round>& rounds,
            const std::vector<Trace>& traces, int wall_limited)
{
    std::vector<std::string> errors;
    const Round& first = rounds.front();
    for (const Round& r : rounds) {
        for (std::size_t i = 0; i < r.passes.size(); ++i) {
            const Pass& p = r.passes[i];
            const std::string shard = "shard " + std::to_string(i) + ": ";
            const std::string c = perfbench::checkConservation(
                p.result.summary, p.in_flight, traces[i].size());
            if (!c.empty())
                errors.push_back(shard + "conservation: " + c);
            if (p.result.shed > p.result.summary.dropped)
                errors.push_back(shard + "shed exceeds dropped");
            // A wall-clock-limited solve may return another incumbent
            // on another pass, so outcomes are only comparable without.
            if (wall_limited > 0)
                continue;
            if (p.digest != first.passes[i].digest) {
                errors.push_back(shard + "outcome digest of a " +
                                 (r.traced ? "traced" : "untraced") +
                                 " pass differs from the first pass");
            }
            if (r.traced && p.registry_decisions != p.solves.size()) {
                errors.push_back(
                    shard + "decisions counted from outside (" +
                    std::to_string(p.solves.size()) +
                    ") != controller.decisions (" +
                    std::to_string(p.registry_decisions) + ")");
            }
        }
    }
    return errors;
}

void
addEndToEnd(Report* report, const perfbench::WorkloadSpec& spec,
            const std::vector<Round>& rounds,
            const std::vector<double>& setups,
            const std::vector<double>& decision_ms, const Outcome& o)
{
    std::vector<double> qps;
    for (const Round& r : rounds) {
        if (!r.traced)
            qps.push_back(static_cast<double>(o.arrivals) / r.runWall());
    }
    std::string per_round;
    for (double q : qps) {
        char buf[32];
        std::snprintf(buf, sizeof buf, "%s%.4g", per_round.empty() ? "" : " ",
                      q);
        per_round += buf;
    }
    report->add("sim_qps", median(qps), "queries/s",
                "median of " + std::to_string(qps.size()) + " rounds: " +
                    per_round);
    report->add("setup_s", median(setups), "s",
                "median of " + std::to_string(setups.size()) + " set-ups");
    if (spec.has_decisions) {
        report->addPercentile("decision_ms_p50", decision_ms, 50.0, "ms");
        report->addPercentile("decision_ms_p90", decision_ms, 90.0, "ms");
    }
    report->add("peak_rss_mb", peakRssMb(), "MB", "process high-water");
    report->add("slo_violation_ratio",
                ratio(o.late + o.dropped, o.arrivals), "ratio",
                "n=" + std::to_string(o.arrivals) + " arrivals");
    report->add("effective_accuracy",
                o.served + o.late
                    ? o.accuracy_sum / static_cast<double>(o.served + o.late)
                    : 0.0,
                "%", "n=" + std::to_string(o.served + o.late) + " served");
}

void
addPerLayer(Report* report, const perfbench::WorkloadSpec& spec,
            const std::vector<Round>& rounds,
            const std::vector<double>& decision_ms, const Outcome& o,
            double gen_s, std::size_t arrivals)
{
    // Wall-time splits come from the untraced rounds; counts and the
    // latency partition from the last traced round.
    const Round* traced = nullptr;
    double decision_wall = 0.0, quiet_wall = 0.0;
    std::uint64_t quiet_arrivals = 0;
    std::vector<double> quiet_ms;
    std::vector<double> traced_wall, untraced_wall;
    for (const Round& r : rounds) {
        (r.traced ? traced_wall : untraced_wall).push_back(r.runWall());
        if (r.traced) {
            traced = &r;
            continue;
        }
        for (const Pass& p : r.passes) {
            decision_wall += p.decision_wall_s;
            quiet_wall += p.quiet_wall_s;
            quiet_arrivals += p.quiet_arrivals;
            quiet_ms.insert(quiet_ms.end(), p.quiet_slice_ms.begin(),
                            p.quiet_slice_ms.end());
        }
    }
    const std::string untraced_note =
        std::to_string(untraced_wall.size()) + " untraced rounds";

    std::int64_t nodes = 0, iters = 0, plans = 0, pool = 0;
    std::uint64_t forwarded = 0, spans_recorded = 0, spans_dropped = 0;
    std::uint64_t lineage_queries = 0, e2e_viol = 0, e2e_done = 0;
    int backoff = 0, exhausted = 0, wall_limited = 0;
    double gap_max = 0.0, solve_wall = 0.0, batched = 0.0, batches = 0.0;
    std::array<double, obs::kNumSegmentKinds> segment_ns{};
    std::vector<double> node_samples;
    for (const Pass& p : traced->passes) {
        for (const AllocatorSolveMeta& m : p.solves) {
            nodes += m.nodes;
            iters += m.simplex_iterations;
            backoff += m.backoff_steps;
            gap_max = std::max(gap_max, m.gap);
            solve_wall += m.wall_seconds;
            node_samples.push_back(static_cast<double>(m.nodes));
        }
        exhausted += p.budget_exhausted;
        wall_limited += p.wall_limited;
        plans += p.result.reallocations;
        pool = std::max<std::int64_t>(
            pool, static_cast<std::int64_t>(p.pool_capacity));
        forwarded += p.result.forwarded;
        spans_recorded += p.spans_recorded;
        spans_dropped += p.spans_dropped;
        lineage_queries += p.lineage_queries;
        for (std::size_t k = 0; k < segment_ns.size(); ++k)
            segment_ns[k] += p.segment_ns[k];
        const double done = static_cast<double>(
            p.result.summary.served + p.result.summary.served_late);
        batched += p.result.mean_batch_size * done;
        batches += done;
        for (const PipelineRunStats& ps : p.result.pipelines) {
            e2e_viol += ps.stats.served_late + ps.stats.dropped;
            e2e_done +=
                ps.stats.served + ps.stats.served_late + ps.stats.dropped;
        }
    }
    const std::string n_solves =
        "n=" + std::to_string(node_samples.size()) + " solves";

    report->add("controller.decisions",
                static_cast<double>(node_samples.size()), "count",
                "incl. set-up solves");
    report->add("controller.plans_applied", static_cast<double>(plans),
                "count");
    report->add("controller.decision_wall_frac",
                ratio(decision_wall, decision_wall + quiet_wall), "ratio",
                untraced_note);
    if (spec.has_decisions) {
        report->addPercentile("decision_ms_p50", decision_ms, 50.0, "ms");
        report->addPercentile("decision_ms_p90", decision_ms, 90.0, "ms");
    }
    report->add("solver.nodes_total", static_cast<double>(nodes), "count");
    report->addPercentile("solver.nodes_p50", node_samples, 50.0, "count");
    report->addPercentile("solver.nodes_p90", node_samples, 90.0, "count");
    report->add("solver.simplex_iters_total", static_cast<double>(iters),
                "count");
    report->add("solver.iters_per_node", ratio(iters, nodes), "ratio");
    report->add("solver.us_per_iter",
                iters ? solve_wall * 1e6 / static_cast<double>(iters) : 0.0,
                "us", n_solves);
    report->add("solver.budget_exhausted", exhausted, "count", n_solves);
    report->add("solver.wall_limited", wall_limited, "count", n_solves);
    report->add("solver.gap_max", gap_max, "ratio");
    report->add("solver.backoff_steps_total", backoff, "count");
    report->add("datapath.ns_per_query",
                quiet_arrivals ? quiet_wall * 1e9 /
                                     static_cast<double>(quiet_arrivals)
                               : 0.0,
                "ns", "n=" + std::to_string(quiet_arrivals) + " arrivals");
    report->addPercentile("datapath.slice_ms_p50", quiet_ms, 50.0, "ms");
    report->addPercentile("datapath.slice_ms_p90", quiet_ms, 90.0, "ms");
    report->add("serving.ctor_s",
                medianOverPasses(rounds, [](const Pass& p) { return p.ctor_s; }),
                "s", "median over passes of " + untraced_note);
    report->add("serving.begin_run_s",
                medianOverPasses(rounds,
                                 [](const Pass& p) { return p.begin_s; }),
                "s", "median over passes of " + untraced_note);
    report->add("serving.finish_run_s",
                medianOverPasses(rounds,
                                 [](const Pass& p) { return p.finish_s; }),
                "s", "median over passes of " + untraced_note);
    report->add("alloc.pool_capacity", static_cast<double>(pool), "count",
                "largest over shards");
    report->add("router.shed_frac", ratio(o.shed, o.arrivals), "ratio");
    report->add("batching.mean_batch_size", ratio(batched, batches),
                "queries");
    double lineage_total = 0.0;
    for (double ns : segment_ns)
        lineage_total += ns;
    const std::string lineage_note =
        "n=" + std::to_string(lineage_queries) + " traced queries";
    for (std::size_t k = 0; k < segment_ns.size(); ++k) {
        report->add(std::string("latency.") +
                        obs::toString(static_cast<obs::SegmentKind>(k)) +
                        "_frac",
                    ratio(segment_ns[k], lineage_total), "ratio",
                    lineage_note);
    }
    report->add("pipeline.forwarded", static_cast<double>(forwarded),
                "count");
    report->add("pipeline.e2e_violation_ratio", ratio(e2e_viol, e2e_done),
                "ratio");
    report->add("obs.trace_overhead_frac",
                median(traced_wall) / median(untraced_wall) - 1.0, "ratio",
                "median traced / untraced round wall, " +
                    std::to_string(traced_wall.size()) + " pairs");
    report->add("obs.spans_recorded", static_cast<double>(spans_recorded),
                "count");
    report->add("obs.spans_dropped", static_cast<double>(spans_dropped),
                "count");
    report->add("workload.gen_s", gen_s, "s", "all shards, n=1");
    report->add("workload.arrivals", static_cast<double>(arrivals),
                "count");
}

}  // namespace

int
main(int argc, char** argv)
{
    Args args;
    if (!parseArgs(argc, argv, &args)) {
        usage();
        return 2;
    }
    perfbench::WorkloadSpec spec;
    if (!perfbench::makeWorkload(args.workload, &spec)) {
        std::cerr << "perfbench: unknown workload '" << args.workload
                  << "'\n";
        usage();
        return 2;
    }
    if (spec.config.ilp_decision_delay <= kSlice) {
        std::cerr << "perfbench: slice must be shorter than the decision "
                     "delay\n";
        return 2;
    }

    perfbench::SpanLog spans;
    const bool traced_mode = args.trace == 1;
    const std::uint64_t root = traced_mode ? spans.begin("perfbench.run") : 0;

    std::vector<std::uint64_t> seeds;
    std::vector<Trace> traces;
    std::size_t arrivals = 0;
    const double gen_start = nowSeconds();
    for (int i = 0; i < spec.shards; ++i) {
        seeds.push_back(perfbench::shardSeed(spec, args.seed, i));
        const std::uint64_t span =
            traced_mode ? spans.begin("workload.generate", root) : 0;
        traces.push_back(perfbench::makeTrace(spec, seeds.back()));
        arrivals += traces.back().size();
        if (traced_mode) {
            spans.end(span,
                      {{"shard", i},
                       {"arrivals",
                        static_cast<std::int64_t>(traces.back().size())}});
        }
    }
    const double gen_s = nowSeconds() - gen_start;

    // Whole rounds (one pass per shard) until the wall budget is spent:
    // untraced rounds for --trace 0, untraced/traced pairs for --trace 1.
    std::vector<Round> rounds;
    auto runRound = [&](bool traced) {
        Round round;
        round.traced = traced;
        const std::uint64_t span =
            traced ? spans.begin("round.traced", root) : 0;
        for (int i = 0; i < spec.shards; ++i) {
            round.passes.push_back(runPass(spec, traces[i], seeds[i],
                                           traced ? &spans : nullptr, span));
        }
        if (traced)
            spans.end(span);
        rounds.push_back(std::move(round));
    };
    const double start = nowSeconds();
    while (rounds.empty() || nowSeconds() - start < args.seconds) {
        runRound(false);
        if (traced_mode)
            runRound(true);
    }

    std::vector<double> setups;
    std::vector<double> decision_ms;
    int wall_limited = 0;
    for (const Round& r : rounds) {
        for (const Pass& p : r.passes) {
            wall_limited += p.wall_limited;
            if (r.traced)
                continue;
            setups.push_back(p.ctor_s + p.begin_s);
            decision_ms.insert(decision_ms.end(), p.decision_slice_ms.begin(),
                               p.decision_slice_ms.end());
        }
    }
    for (int i = 0; !traced_mode && setups.size() < kMinSetups; ++i) {
        const std::size_t shard = static_cast<std::size_t>(i) % traces.size();
        setups.push_back(setupOnly(spec, traces[shard], seeds[shard]));
    }

    std::vector<std::string> errors = checkRounds(rounds, traces, wall_limited);
    if (wall_limited > 0) {
        std::cerr << "perfbench: WARNING: " << wall_limited
                  << " solve(s) stopped at the "
                  << spec.config.milp_time_limit_sec
                  << " s wall-clock backstop; this seed's outcome metrics "
                     "depend on machine load\n";
    }

    const Outcome outcome = outcomeOf(rounds.front());
    std::cout << "perfbench workload=" << args.workload
              << " seed=" << args.seed << " trace=" << args.trace
              << " shards=" << spec.shards << " rounds=" << rounds.size()
              << " arrivals=" << arrivals << "\n";
    Report report;
    if (traced_mode) {
        addPerLayer(&report, spec, rounds, decision_ms, outcome, gen_s,
                    arrivals);
    } else {
        addEndToEnd(&report, spec, rounds, setups, decision_ms, outcome);
    }
    report.add("attempted", static_cast<double>(outcome.arrivals), "queries",
               "simulated arrivals, all shards");
    report.add("failed", static_cast<double>(outcome.dropped), "queries",
               "dropped, incl. " + std::to_string(outcome.shed) + " shed");
    report.print(std::cout);

    if (traced_mode) {
        spans.end(root, {{"rounds", static_cast<std::int64_t>(rounds.size())}});
        const std::string dir = ".bench_build/spans";
        const std::string path = dir + "/" + args.workload + "-seed" +
                                 std::to_string(args.seed) + ".json";
        std::error_code ec;
        std::filesystem::create_directories(dir, ec);
        if (spans.writeChromeTrace(path)) {
            std::cout << "spans: " << spans.size() << " written to " << path
                      << "\n";
        } else {
            errors.push_back("could not write spans to " + path);
        }
    }
    for (const std::string& e : errors)
        std::cout << "CHECK FAILED: " << e << "\n";

    // Final line: exactly the metrics BENCHMARK.json lists for the mode.
    std::cout << "{\"correct\": " << (errors.empty() ? "true" : "false")
              << ", \"attempted\": " << outcome.arrivals
              << ", \"failed\": " << outcome.dropped << ", \"metrics\": {";
    const auto& names = traced_mode ? kPerLayer : kEndToEnd;
    for (std::size_t i = 0; i < names.size(); ++i) {
        const Metric* m = report.find(names[i]);
        if (!m) {
            std::cerr << "perfbench: metric " << names[i]
                      << " not measured\n";
            return 1;
        }
        char buf[64];
        std::snprintf(buf, sizeof buf, "%.17g", m->value);
        std::cout << (i ? ", " : "") << "\"" << names[i]
                  << "\": {\"value\": " << buf << ", \"unit\": \"" << m->unit
                  << "\"}";
    }
    std::cout << "}}" << std::endl;
    return errors.empty() ? 0 : 1;
}

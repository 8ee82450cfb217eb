/**
 * @file
 * proteus_trace: offline analyser for the Chrome trace-event files
 * written by the observability subsystem (proteus_sim --trace, or any
 * bench binary run with PROTEUS_TRACE_FILE set).
 *
 * Prints a per-stage latency breakdown (route wait, queue wait,
 * execution, end-to-end) with p50/p95/p99 per model variant, the
 * controller/solver decision summary, and the top-N slowest queries.
 * With --critical-path, reconstructs the causal lineage graph from
 * the trace and decomposes each tail exemplar's end-to-end latency
 * into the exact segment partition (obs/lineage.h), aggregating
 * per-family/per-variant blame tables (JSON via --blame-json).
 *
 * Exit codes: 0 = ok, 1 = findings or error (unreadable or malformed
 * trace, inexact partition), 2 = usage. A trace is malformed when
 * traceEvents or links is not an array of objects, a ts/dur/arg
 * value is not a number, a dur is negative, or an otherData name
 * table has the wrong shape; the diagnostic names the entry.
 */

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <initializer_list>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/stats.h"
#include "common/table.h"
#include "obs/lineage.h"
#include "obs/trace.h"

namespace {

using proteus::JsonValue;

void
usage(std::ostream& os)
{
    os << "usage: proteus_trace <trace.json> [options]\n"
          "\n"
          "options:\n"
          "  --top N              rows in the slowest-queries table "
          "(default 10)\n"
          "  --critical-path [Q]  decompose query Q's latency into the "
          "exact segment\n"
          "                       partition; without Q, analyze the "
          "trace's tail\n"
          "                       exemplars (fallback: top-N slowest)\n"
          "  --blame-json PATH    write the per-family/per-variant "
          "blame tables as\n"
          "                       JSON (implies --critical-path)\n"
          "  --help               this text\n"
          "\n"
          "exit codes: 0 ok, 1 findings or error, 2 usage\n";
}

/** One parsed trace event (times in microseconds). */
struct Event {
    std::string name;
    double ts = 0.0;
    double dur = 0.0;
    std::map<std::string, double> args;
};

double
argOr(const Event& e, const std::string& key, double fallback)
{
    auto it = e.args.find(key);
    return it == e.args.end() ? fallback : it->second;
}

std::string
ms(double us)
{
    return proteus::fmtDouble(us / 1000.0, 2);
}

/** Name tables parsed from otherData (empty on older traces). */
struct NameTables {
    std::vector<std::string> families;
    std::vector<std::string> variants;
    struct Pipeline {
        std::string name;
        std::vector<std::string> stages;
    };
    std::vector<Pipeline> pipelines;

    /** @return the name for @p id, or the bare id when unnamed. */
    static std::string
    label(const std::vector<std::string>& names, long long id)
    {
        if (id >= 0 && static_cast<std::size_t>(id) < names.size())
            return names[static_cast<std::size_t>(id)];
        return std::to_string(id);
    }
};

NameTables
parseNameTables(const JsonValue& doc)
{
    NameTables names;
    if (!doc.has("otherData"))
        return names;
    const JsonValue& other = doc.at("otherData");
    if (other.has("families")) {
        for (const JsonValue& f : other.at("families").asArray())
            names.families.push_back(f.asString());
    }
    if (other.has("variants")) {
        for (const JsonValue& v : other.at("variants").asArray())
            names.variants.push_back(v.asString());
    }
    if (other.has("pipelines")) {
        for (const JsonValue& p : other.at("pipelines").asArray()) {
            NameTables::Pipeline pipe;
            pipe.name = p.stringOr("name", "");
            if (p.has("stages")) {
                for (const JsonValue& s : p.at("stages").asArray())
                    pipe.stages.push_back(s.asString());
            }
            names.pipelines.push_back(std::move(pipe));
        }
    }
    return names;
}

const char*
typeName(JsonValue::Type t)
{
    switch (t) {
      case JsonValue::Type::Null: return "null";
      case JsonValue::Type::Bool: return "a bool";
      case JsonValue::Type::Number: return "a number";
      case JsonValue::Type::String: return "a string";
      case JsonValue::Type::Array: return "an array";
      case JsonValue::Type::Object: return "an object";
    }
    return "unknown";
}

/**
 * Check every part of @p doc the analysis reads, before any of it
 * runs, so a malformed file is a diagnostic instead of an abort.
 * @return "" when well formed, else what is wrong and where, e.g.
 *         "traceEvents[3].dur is -5, expected >= 0".
 */
std::string
checkTrace(const JsonValue& doc)
{
    using Type = JsonValue::Type;
    std::string err;
    const auto need = [&err](const JsonValue& v, Type t,
                             const std::string& where) {
        if (err.empty() && v.type() != t) {
            err = where + " is " + typeName(v.type()) + ", expected " +
                  typeName(t);
        }
        return err.empty();
    };
    // Optional members: absent is fine, present must have type t.
    const auto opt = [&need](const JsonValue& obj,
                             std::initializer_list<const char*> keys,
                             Type t, const std::string& where) {
        for (const char* key : keys) {
            if (obj.has(key) &&
                !need(obj.at(key), t, where + "." + key)) {
                return false;
            }
        }
        return true;
    };
    const auto arrayOf = [&need](const JsonValue& v, Type t,
                                 const std::string& where) {
        if (!need(v, Type::Array, where))
            return false;
        const std::vector<JsonValue>& items = v.asArray();
        for (std::size_t i = 0; i < items.size(); ++i) {
            if (!need(items[i], t, where + "[" + std::to_string(i) + "]"))
                return false;
        }
        return true;
    };

    if (!arrayOf(doc.at("traceEvents"), Type::Object, "traceEvents"))
        return err;
    const std::vector<JsonValue>& events = doc.at("traceEvents").asArray();
    for (std::size_t i = 0; i < events.size(); ++i) {
        const JsonValue& e = events[i];
        const std::string where = "traceEvents[" + std::to_string(i) + "]";
        if (!opt(e, {"name"}, Type::String, where) ||
            !opt(e, {"ts", "dur"}, Type::Number, where) ||
            !opt(e, {"args"}, Type::Object, where)) {
            return err;
        }
        if (e.has("dur") && e.at("dur").asNumber() < 0.0) {
            char dur[32];
            std::snprintf(dur, sizeof(dur), "%g", e.at("dur").asNumber());
            return where + ".dur is " + dur + ", expected >= 0";
        }
        if (e.has("args")) {
            const JsonValue& args = e.at("args");
            for (const std::string& key : args.keys()) {
                if (!need(args.at(key), Type::Number,
                          where + ".args." + key)) {
                    return err;
                }
            }
        }
    }
    if (doc.has("links")) {
        if (!arrayOf(doc.at("links"), Type::Object, "links"))
            return err;
        const std::vector<JsonValue>& links = doc.at("links").asArray();
        for (std::size_t i = 0; i < links.size(); ++i) {
            const std::string where = "links[" + std::to_string(i) + "]";
            if (!opt(links[i], {"k"}, Type::String, where) ||
                !opt(links[i], {"ts", "from", "to", "aux"}, Type::Number,
                     where)) {
                return err;
            }
        }
    }
    if (doc.has("otherData")) {
        const JsonValue& other = doc.at("otherData");
        if (!need(other, Type::Object, "otherData") ||
            !opt(other, {"spans_recorded", "spans_dropped"}, Type::Number,
                 "otherData")) {
            return err;
        }
        for (const char* key : {"families", "variants"}) {
            if (other.has(key) &&
                !arrayOf(other.at(key), Type::String,
                         std::string("otherData.") + key)) {
                return err;
            }
        }
        if (other.has("tail_exemplars") &&
            !arrayOf(other.at("tail_exemplars"), Type::Number,
                     "otherData.tail_exemplars")) {
            return err;
        }
        if (other.has("pipelines")) {
            const JsonValue& pipes = other.at("pipelines");
            if (!arrayOf(pipes, Type::Object, "otherData.pipelines"))
                return err;
            for (std::size_t i = 0; i < pipes.asArray().size(); ++i) {
                const JsonValue& p = pipes.asArray()[i];
                const std::string where =
                    "otherData.pipelines[" + std::to_string(i) + "]";
                if (!opt(p, {"name"}, Type::String, where) ||
                    (p.has("stages") &&
                     !arrayOf(p.at("stages"), Type::String,
                              where + ".stages"))) {
                    return err;
                }
            }
        }
    }
    return err;
}

/**
 * Reverse the exporter's per-kind args mapping: rebuild the
 * SpanRecords the tracer held so the lineage analyzer runs on trace
 * files exactly as it runs on a live tracer.
 */
std::vector<proteus::obs::SpanRecord>
reconstructSpans(const std::vector<Event>& events)
{
    using proteus::kInvalidId;
    using proteus::obs::SpanKind;
    using proteus::obs::SpanRecord;
    static const std::map<std::string, SpanKind> kKinds = {
        {"query", SpanKind::Query},   {"route", SpanKind::Route},
        {"queue", SpanKind::Queue},   {"exec", SpanKind::Exec},
        {"batch", SpanKind::Batch},   {"load", SpanKind::Load},
        {"solve", SpanKind::Solve},   {"apply", SpanKind::Apply},
        {"alarm", SpanKind::Alarm},   {"slo_alarm", SpanKind::SloAlarm},
    };
    const auto i64 = [](const Event& e, const char* key,
                        std::int64_t fallback) {
        auto it = e.args.find(key);
        return it == e.args.end()
                   ? fallback
                   : static_cast<std::int64_t>(std::llround(it->second));
    };
    const auto variantOf = [&](const Event& e) {
        const std::int64_t v = i64(e, "variant", -1);
        return v < 0 ? kInvalidId : static_cast<std::uint32_t>(v);
    };
    std::vector<SpanRecord> spans;
    spans.reserve(events.size());
    for (const Event& e : events) {
        const auto kit = kKinds.find(e.name);
        if (kit == kKinds.end())
            continue;
        SpanRecord s;
        s.kind = kit->second;
        s.start = static_cast<proteus::Time>(std::llround(e.ts));
        s.end = s.start + static_cast<proteus::Time>(std::llround(e.dur));
        s.span_id = static_cast<std::uint64_t>(i64(e, "sid", 0));
        const std::int64_t pid = i64(e, "pid", 0);
        if (pid != 0) {
            s.parent_id = static_cast<std::uint64_t>(pid);
            s.parent_kind = static_cast<SpanKind>(i64(e, "pk", 0));
        }
        switch (s.kind) {
          case SpanKind::Query:
            s.id = static_cast<std::uint64_t>(i64(e, "qid", 0));
            s.a = static_cast<std::uint32_t>(i64(e, "family", 0));
            s.b = variantOf(e);
            s.v0 = i64(e, "status", 0);
            s.v1 = i64(e, "device", -1);
            s.v2 = e.args.count("pipeline") ? i64(e, "pipeline", 0) + 1
                                            : 0;
            break;
          case SpanKind::Route:
            s.id = static_cast<std::uint64_t>(i64(e, "qid", 0));
            s.a = static_cast<std::uint32_t>(i64(e, "family", 0));
            s.v0 = e.args.count("stage") ? i64(e, "stage", 0) + 1 : 0;
            break;
          case SpanKind::Queue:
          case SpanKind::Exec:
            s.id = static_cast<std::uint64_t>(i64(e, "qid", 0));
            s.a = static_cast<std::uint32_t>(i64(e, "family", 0));
            s.b = variantOf(e);
            s.v0 = i64(e, "device", 0);
            s.v1 = e.args.count("stage") ? i64(e, "stage", 0) + 1 : 0;
            break;
          case SpanKind::Batch:
            s.id = static_cast<std::uint64_t>(i64(e, "batch", 0));
            s.a = static_cast<std::uint32_t>(i64(e, "device", 0));
            s.b = static_cast<std::uint32_t>(i64(e, "variant", 0));
            s.v0 = i64(e, "size", 0);
            break;
          case SpanKind::Load:
            s.a = static_cast<std::uint32_t>(i64(e, "device", 0));
            s.b = static_cast<std::uint32_t>(i64(e, "variant", 0));
            break;
          case SpanKind::Solve:
            s.id = static_cast<std::uint64_t>(i64(e, "decision", 0));
            s.v0 = i64(e, "nodes", 0);
            s.v1 = i64(e, "simplex_iters", 0);
            s.v2 = i64(e, "gap_ppm", 0);
            break;
          case SpanKind::Apply:
            s.id = static_cast<std::uint64_t>(i64(e, "decision", 0));
            s.v0 = i64(e, "plans", 0);
            break;
          case SpanKind::Alarm:
            s.a = static_cast<std::uint32_t>(i64(e, "family", 0));
            break;
          case SpanKind::SloAlarm:
            s.a = static_cast<std::uint32_t>(i64(e, "family", 0));
            s.v0 = i64(e, "raised", 0);
            s.v1 = i64(e, "burn_milli", 0);
            s.v2 = i64(e, "window_completed", 0);
            break;
        }
        spans.push_back(s);
    }
    return spans;
}

/** Parse the top-level "links" array (empty on pre-lineage traces). */
std::vector<proteus::obs::LinkRecord>
parseLinks(const JsonValue& doc)
{
    using proteus::obs::LinkKind;
    using proteus::obs::LinkRecord;
    std::vector<LinkRecord> links;
    if (!doc.has("links"))
        return links;
    static const std::map<std::string, LinkKind> kKinds = {
        {"query_in_batch", LinkKind::QueryInBatch},
        {"batch_on_device", LinkKind::BatchOnDevice},
        {"batch_on_epoch", LinkKind::BatchOnEpoch},
        {"stage_handoff", LinkKind::StageHandoff},
        {"queued_behind", LinkKind::QueuedBehind},
    };
    for (const JsonValue& jl : doc.at("links").asArray()) {
        const auto kit = kKinds.find(jl.stringOr("k", ""));
        if (kit == kKinds.end())
            continue;
        LinkRecord l;
        l.kind = kit->second;
        l.at = static_cast<proteus::Time>(
            std::llround(jl.numberOr("ts", 0.0)));
        l.from = static_cast<std::uint64_t>(
            std::llround(jl.numberOr("from", 0.0)));
        l.to = static_cast<std::uint64_t>(
            std::llround(jl.numberOr("to", 0.0)));
        l.aux = static_cast<std::int64_t>(
            std::llround(jl.numberOr("aux", 0.0)));
        links.push_back(l);
    }
    return links;
}

}  // namespace

int
main(int argc, char** argv)
{
    using namespace proteus;
    std::string path;
    int top_n = 10;
    bool critical_path = false;
    long long critical_qid = -1;
    std::string blame_path;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            usage(std::cout);
            return 0;
        } else if (arg == "--top" && i + 1 < argc) {
            top_n = std::max(1, std::atoi(argv[++i]));
        } else if (arg == "--critical-path") {
            critical_path = true;
            // Optional query id operand (digits only).
            if (i + 1 < argc) {
                const std::string next = argv[i + 1];
                if (!next.empty() &&
                    next.find_first_not_of("0123456789") ==
                        std::string::npos) {
                    critical_qid = std::atoll(argv[++i]);
                }
            }
        } else if (arg == "--blame-json" && i + 1 < argc) {
            critical_path = true;
            blame_path = argv[++i];
        } else if (!arg.empty() && arg[0] == '-') {
            std::cerr << "proteus_trace: unknown option " << arg
                      << "\n";
            usage(std::cerr);
            return 2;
        } else if (path.empty()) {
            path = arg;
        } else {
            std::cerr << "proteus_trace: unexpected argument " << arg
                      << "\n";
            usage(std::cerr);
            return 2;
        }
    }
    if (path.empty()) {
        usage(std::cerr);
        return 2;
    }

    JsonValue doc;
    std::string error;
    if (!parseJsonFile(path, &doc, &error)) {
        std::cerr << "cannot parse " << path << ": " << error << "\n";
        return 1;
    }
    if (!doc.isObject() || !doc.has("traceEvents")) {
        std::cerr << path << " is not a Chrome trace-event file\n";
        return 1;
    }
    const std::string malformed = checkTrace(doc);
    if (!malformed.empty()) {
        std::cerr << "proteus_trace: malformed trace " << path << ": "
                  << malformed << "\n";
        return 1;
    }

    std::vector<Event> events;
    for (const JsonValue& je : doc.at("traceEvents").asArray()) {
        Event e;
        e.name = je.stringOr("name", "");
        e.ts = je.numberOr("ts", 0.0);
        e.dur = je.numberOr("dur", 0.0);
        if (je.has("args")) {
            const JsonValue& args = je.at("args");
            for (const std::string& key : args.keys())
                e.args[key] = args.at(key).asNumber();
        }
        events.push_back(std::move(e));
    }

    std::cout << "== " << path << ": " << events.size()
              << " spans";
    if (doc.has("otherData")) {
        const JsonValue& other = doc.at("otherData");
        std::cout << " (recorded "
                  << static_cast<long long>(
                         other.numberOr("spans_recorded", 0.0))
                  << ", dropped "
                  << static_cast<long long>(
                         other.numberOr("spans_dropped", 0.0))
                  << ")";
    }
    std::cout << " ==\n\n";

    const NameTables names = parseNameTables(doc);

    // Per-variant stage breakdown. Stage durations are grouped by the
    // variant that served the query: queue/exec spans carry it
    // directly; route waits and end-to-end times come from the query
    // span (variant -1 = dropped before execution).
    struct StageDurations {
        std::vector<double> route, queue, exec, total;
    };
    std::map<long long, StageDurations> by_variant;
    std::map<long long, long long> route_variant_of_query;
    std::vector<const Event*> queries;
    std::vector<double> solve_durs, solve_nodes;

    for (const Event& e : events) {
        if (e.name == "queue" || e.name == "exec") {
            long long v =
                static_cast<long long>(argOr(e, "variant", -1));
            auto& s = by_variant[v];
            (e.name == "queue" ? s.queue : s.exec).push_back(e.dur);
            route_variant_of_query[static_cast<long long>(
                argOr(e, "qid", -1))] = v;
        } else if (e.name == "solve") {
            solve_durs.push_back(e.dur);
            solve_nodes.push_back(argOr(e, "nodes", 0.0));
        } else if (e.name == "query") {
            queries.push_back(&e);
        }
    }
    for (const Event& e : events) {
        if (e.name == "query") {
            long long v =
                static_cast<long long>(argOr(e, "variant", -1));
            by_variant[v].total.push_back(e.dur);
        } else if (e.name == "route") {
            long long qid =
                static_cast<long long>(argOr(e, "qid", -1));
            auto it = route_variant_of_query.find(qid);
            long long v = it == route_variant_of_query.end()
                              ? -1
                              : it->second;
            by_variant[v].route.push_back(e.dur);
        }
    }

    const std::vector<double> kPs{50.0, 95.0, 99.0};
    TextTable stages;
    stages.setHeader({"variant", "stage", "count", "p50_ms", "p95_ms",
                      "p99_ms"});
    for (auto& [variant, s] : by_variant) {
        struct Row {
            const char* stage;
            std::vector<double>* vals;
        };
        for (const Row& row :
             {Row{"route", &s.route}, Row{"queue", &s.queue},
              Row{"exec", &s.exec}, Row{"total", &s.total}}) {
            if (row.vals->empty())
                continue;
            std::vector<double> p = percentiles(*row.vals, kPs);
            stages.addRow({variant < 0
                               ? std::string("(dropped)")
                               : NameTables::label(names.variants,
                                                   variant),
                           row.stage,
                           std::to_string(row.vals->size()), ms(p[0]),
                           ms(p[1]), ms(p[2])});
        }
    }
    std::cout << "-- per-variant stage latency --\n";
    stages.print(std::cout);

    // Per-pipeline e2e breakdown: exec time per stage, the queue gap
    // between consecutive stages (next stage's exec start minus the
    // previous stage's exec end — routing plus queueing of the hop),
    // and the end-to-end latency from the query span. Only present
    // when the trace carries pipeline/stage args.
    struct PipelineDurations {
        std::map<long long, std::vector<double>> stage_exec;
        std::map<long long, std::vector<double>> stage_gap;
        std::vector<double> e2e;
    };
    std::map<long long, PipelineDurations> by_pipeline;
    // qid -> pipeline, from the (terminal) query spans.
    std::map<long long, long long> pipeline_of_query;
    // qid -> per-stage exec (ts, dur), for the gap computation.
    std::map<long long,
             std::map<long long, std::pair<double, double>>>
        exec_of_query;
    for (const Event& e : events) {
        if (e.name == "exec" && e.args.count("stage")) {
            long long stage =
                static_cast<long long>(e.args.at("stage"));
            long long qid =
                static_cast<long long>(argOr(e, "qid", -1));
            exec_of_query[qid][stage] = {e.ts, e.dur};
        }
        auto pit = e.args.find("pipeline");
        if (pit == e.args.end())
            continue;
        long long p = static_cast<long long>(pit->second);
        if (e.name == "query") {
            by_pipeline[p].e2e.push_back(e.dur);
            pipeline_of_query[static_cast<long long>(
                argOr(e, "qid", -1))] = p;
        }
    }
    for (const auto& [qid, stages_of] : exec_of_query) {
        auto pit = pipeline_of_query.find(qid);
        if (pit == pipeline_of_query.end())
            continue;  // dropped before the terminal query span
        PipelineDurations& pd = by_pipeline[pit->second];
        const std::pair<double, double>* prev = nullptr;
        long long prev_stage = -1;
        for (const auto& [stage, td] : stages_of) {
            pd.stage_exec[stage].push_back(td.second);
            if (prev && stage == prev_stage + 1) {
                pd.stage_gap[stage].push_back(
                    td.first - (prev->first + prev->second));
            }
            prev = &td;
            prev_stage = stage;
        }
    }
    for (const auto& [pipe, pd] : by_pipeline) {
        std::string pname =
            pipe >= 0 &&
                    static_cast<std::size_t>(pipe) <
                        names.pipelines.size()
                ? names.pipelines[static_cast<std::size_t>(pipe)].name
                : std::to_string(pipe);
        const std::vector<std::string>* stage_names =
            pipe >= 0 && static_cast<std::size_t>(pipe) <
                             names.pipelines.size()
                ? &names.pipelines[static_cast<std::size_t>(pipe)]
                       .stages
                : nullptr;
        auto stageLabel = [&](long long s) {
            if (stage_names &&
                static_cast<std::size_t>(s) < stage_names->size())
                return (*stage_names)[static_cast<std::size_t>(s)];
            return "stage " + std::to_string(s);
        };
        TextTable bt;
        bt.setHeader({"segment", "count", "p50_ms", "p95_ms",
                      "p99_ms"});
        for (const auto& [stage, durs] : pd.stage_exec) {
            std::vector<double> p = percentiles(durs, kPs);
            bt.addRow({stageLabel(stage) + " exec",
                       std::to_string(durs.size()), ms(p[0]),
                       ms(p[1]), ms(p[2])});
            auto git = pd.stage_gap.find(stage);
            if (git != pd.stage_gap.end()) {
                std::vector<double> g =
                    percentiles(git->second, kPs);
                bt.addRow({stageLabel(stage - 1) + " -> " +
                               stageLabel(stage) + " gap",
                           std::to_string(git->second.size()),
                           ms(g[0]), ms(g[1]), ms(g[2])});
            }
        }
        if (!pd.e2e.empty()) {
            std::vector<double> p = percentiles(pd.e2e, kPs);
            bt.addRow({"e2e", std::to_string(pd.e2e.size()), ms(p[0]),
                       ms(p[1]), ms(p[2])});
        }
        std::cout << "\n-- pipeline " << pname
                  << " e2e breakdown --\n";
        bt.print(std::cout);
    }

    if (!solve_durs.empty()) {
        std::vector<double> dp = percentiles(solve_durs, kPs);
        std::vector<double> np = percentiles(solve_nodes, kPs);
        std::cout << "\n-- controller decisions --\n"
                  << "solves: " << solve_durs.size()
                  << "  solve->apply p50/p95/p99 ms: " << ms(dp[0])
                  << "/" << ms(dp[1]) << "/" << ms(dp[2])
                  << "  B&B nodes p50/p99: " << fmtDouble(np[0], 0)
                  << "/" << fmtDouble(np[2], 0) << "\n";
    }

    std::sort(queries.begin(), queries.end(),
              [](const Event* a, const Event* b) {
                  if (a->dur != b->dur)
                      return a->dur > b->dur;
                  // Exact integer qid tie-break: comparing the raw
                  // double arg would go inexact past 2^53 and make
                  // the top-N order depend on span-buffer layout.
                  return static_cast<long long>(argOr(*a, "qid", -1)) <
                         static_cast<long long>(argOr(*b, "qid", -1));
              });
    TextTable slow;
    slow.setHeader({"qid", "family", "variant", "device", "status",
                    "latency_ms"});
    const char* kStatus[] = {"pending", "served", "late", "dropped"};
    int shown = 0;
    for (const Event* e : queries) {
        if (shown++ >= top_n)
            break;
        int status = static_cast<int>(argOr(*e, "status", 0));
        const long long fam =
            static_cast<long long>(argOr(*e, "family", -1));
        const long long var =
            static_cast<long long>(argOr(*e, "variant", -1));
        slow.addRow({std::to_string(
                         static_cast<long long>(argOr(*e, "qid", -1))),
                     NameTables::label(names.families, fam),
                     var < 0 ? std::string("-")
                             : NameTables::label(names.variants, var),
                     std::to_string(static_cast<long long>(
                         argOr(*e, "device", -1))),
                     status >= 0 && status <= 3 ? kStatus[status]
                                                : "?",
                     ms(e->dur)});
    }
    std::cout << "\n-- top " << std::min<std::size_t>(
                                    static_cast<std::size_t>(top_n),
                                    queries.size())
              << " slowest queries --\n";
    slow.print(std::cout);

    if (!critical_path)
        return 0;

    // Critical-path analysis: rebuild the lineage records from the
    // trace and run the exact-partition decomposition on the chosen
    // queries (explicit id > recorded tail exemplars > slowest).
    const obs::LineageIndex index(reconstructSpans(events),
                                  parseLinks(doc));
    std::vector<std::uint64_t> exemplar_ids;
    const char* exemplar_source = "";
    if (critical_qid >= 0) {
        exemplar_ids.push_back(
            static_cast<std::uint64_t>(critical_qid));
        exemplar_source = "requested query";
    } else {
        if (doc.has("otherData") &&
            doc.at("otherData").has("tail_exemplars")) {
            for (const JsonValue& q :
                 doc.at("otherData").at("tail_exemplars").asArray()) {
                exemplar_ids.push_back(static_cast<std::uint64_t>(
                    std::llround(q.asNumber())));
            }
            exemplar_source = "tail exemplars (seeded reservoir)";
        }
        if (exemplar_ids.empty()) {
            exemplar_ids = index.slowestQueries(
                static_cast<std::size_t>(top_n));
            exemplar_source = "slowest traced queries (fallback)";
        }
    }

    std::vector<obs::CriticalPath> paths;
    std::size_t missing = 0, inexact = 0;
    const auto analyzeInto = [&](const std::vector<std::uint64_t>& ids) {
        for (const std::uint64_t qid : ids) {
            obs::CriticalPath cp = index.analyze(qid);
            if (cp.family == kInvalidId) {
                ++missing;
                continue;
            }
            if (!cp.exact())
                ++inexact;
            paths.push_back(std::move(cp));
        }
    };
    analyzeInto(exemplar_ids);
    // Reservoir exemplars sample the whole run while the span ring
    // keeps only the newest spans, so exemplars can be evicted from
    // the trace. That is not an error: fall back to the slowest
    // queries that are still fully present.
    if (paths.empty() && critical_qid < 0 && !exemplar_ids.empty()) {
        missing = 0;
        exemplar_source = "slowest traced queries (exemplars evicted)";
        analyzeInto(
            index.slowestQueries(static_cast<std::size_t>(top_n)));
    }

    const auto us_ms = [](Duration d) {
        return ms(static_cast<double>(d));
    };
    std::cout << "\n-- critical path: " << paths.size() << " "
              << exemplar_source << " --\n";

    // One summary row per exemplar: e2e plus the per-kind totals of
    // its partition (columns sum to e2e exactly).
    TextTable summary;
    {
        std::vector<std::string> header = {"qid", "family", "variant",
                                           "e2e_ms"};
        for (std::size_t k = 0; k < obs::kNumSegmentKinds; ++k)
            header.push_back(std::string(obs::toString(
                                 static_cast<obs::SegmentKind>(k))) +
                             "_ms");
        summary.setHeader(header);
    }
    for (const obs::CriticalPath& cp : paths) {
        Duration by_kind[obs::kNumSegmentKinds] = {};
        for (const obs::Segment& s : cp.segments)
            by_kind[static_cast<std::size_t>(s.kind)] += s.duration();
        std::vector<std::string> row = {
            std::to_string(cp.query),
            NameTables::label(names.families,
                              static_cast<long long>(cp.family)),
            cp.variant == kInvalidId
                ? std::string("-")
                : NameTables::label(names.variants,
                                    static_cast<long long>(cp.variant)),
            us_ms(cp.total())};
        for (const Duration d : by_kind)
            row.push_back(us_ms(d));
        summary.addRow(row);
    }
    summary.print(std::cout);

    // Detailed segment walk for an explicitly requested query.
    if (critical_qid >= 0 && !paths.empty()) {
        const obs::CriticalPath& cp = paths.front();
        TextTable walk;
        walk.setHeader({"segment", "start_ms", "dur_ms", "device",
                        "ref"});
        for (const obs::Segment& s : cp.segments) {
            walk.addRow({obs::toString(s.kind),
                         us_ms(s.start - cp.arrival),
                         us_ms(s.duration()),
                         s.device < 0 ? std::string("-")
                                      : std::to_string(s.device),
                         s.ref == 0 ? std::string("-")
                                    : std::to_string(s.ref)});
        }
        std::cout << "\n-- query " << cp.query << " segment walk ("
                  << (cp.exact() ? "exact" : "INEXACT")
                  << " partition) --\n";
        walk.print(std::cout);
    }

    // Blame tables: per-family / per-variant totals over the set.
    const obs::BlameTables blame = obs::aggregateBlame(paths);
    const auto printBlame =
        [&](const char* title,
            const std::unordered_map<std::uint32_t, obs::BlameRow>& rows,
            const std::vector<std::string>& name_table,
            bool variant_keys) {
            if (rows.empty())
                return;
            TextTable bt;
            std::vector<std::string> header = {variant_keys ? "variant"
                                                            : "family",
                                               "queries"};
            for (std::size_t k = 0; k < obs::kNumSegmentKinds; ++k)
                header.push_back(
                    std::string(obs::toString(
                        static_cast<obs::SegmentKind>(k))) +
                    "_ms");
            bt.setHeader(header);
            std::vector<std::uint32_t> keys;
            keys.reserve(rows.size());
            for (const auto& [key, row] : rows)
                keys.push_back(key);
            std::sort(keys.begin(), keys.end());
            for (const std::uint32_t key : keys) {
                const obs::BlameRow& row = rows.at(key);
                std::vector<std::string> cells = {
                    variant_keys && key == kInvalidId
                        ? std::string("(dropped)")
                        : NameTables::label(name_table,
                                            static_cast<long long>(key)),
                    std::to_string(row.queries)};
                for (const Duration d : row.by_kind)
                    cells.push_back(us_ms(d));
                bt.addRow(cells);
            }
            std::cout << "\n-- blame " << title << " --\n";
            bt.print(std::cout);
        };
    printBlame("by family", blame.by_family, names.families, false);
    printBlame("by variant", blame.by_variant, names.variants, true);

    if (!blame_path.empty()) {
        std::string out = "{\"schema\":1,\"trace\":\"";
        out += path;
        out += "\",\"exemplar_source\":\"";
        out += exemplar_source;
        out += "\",\"exemplars\":[";
        bool first = true;
        for (const obs::CriticalPath& cp : paths) {
            if (!first)
                out += ',';
            first = false;
            out += "{\"qid\":" + std::to_string(cp.query);
            out += ",\"family\":" + std::to_string(cp.family);
            out += ",\"variant\":" +
                   std::to_string(
                       cp.variant == kInvalidId
                           ? -1
                           : static_cast<std::int64_t>(cp.variant));
            out += ",\"status\":" + std::to_string(cp.status);
            out += ",\"pipeline\":" + std::to_string(cp.pipeline);
            out += ",\"e2e_us\":" + std::to_string(cp.total());
            out += ",\"exact\":";
            out += cp.exact() ? "true" : "false";
            out += ",\"segments\":[";
            bool sfirst = true;
            for (const obs::Segment& s : cp.segments) {
                if (!sfirst)
                    out += ',';
                sfirst = false;
                out += "{\"kind\":\"";
                out += obs::toString(s.kind);
                out += "\",\"start_us\":" +
                       std::to_string(s.start - cp.arrival);
                out += ",\"dur_us\":" + std::to_string(s.duration());
                out += ",\"device\":" + std::to_string(s.device);
                out += ",\"ref\":" + std::to_string(s.ref);
                out += '}';
            }
            out += "]}";
        }
        out += "]";
        const auto appendBlame =
            [&](const char* key,
                const std::unordered_map<std::uint32_t, obs::BlameRow>&
                    rows,
                const std::vector<std::string>& name_table,
                bool variant_keys) {
                out += ",\"";
                out += key;
                out += "\":{";
                std::vector<std::uint32_t> keys;
                keys.reserve(rows.size());
                for (const auto& [k, row] : rows)
                    keys.push_back(k);
                std::sort(keys.begin(), keys.end());
                bool bfirst = true;
                for (const std::uint32_t k : keys) {
                    const obs::BlameRow& row = rows.at(k);
                    if (!bfirst)
                        out += ',';
                    bfirst = false;
                    out += '"';
                    out += variant_keys && k == kInvalidId
                               ? std::string("(dropped)")
                               : NameTables::label(
                                     name_table,
                                     static_cast<long long>(k));
                    out += "\":{\"queries\":" +
                           std::to_string(row.queries);
                    for (std::size_t s = 0;
                         s < obs::kNumSegmentKinds; ++s) {
                        out += ",\"";
                        out += obs::toString(
                            static_cast<obs::SegmentKind>(s));
                        out += "_us\":" +
                               std::to_string(row.by_kind[s]);
                    }
                    out += '}';
                }
                out += '}';
            };
        appendBlame("by_family", blame.by_family, names.families,
                    false);
        appendBlame("by_variant", blame.by_variant, names.variants,
                    true);
        out += "}\n";
        std::ofstream f(blame_path,
                        std::ios::binary | std::ios::trunc);
        if (!f || !f.write(out.data(),
                           static_cast<std::streamsize>(out.size()))) {
            std::cerr << "proteus_trace: cannot write " << blame_path
                      << "\n";
            return 1;
        }
        std::cout << "\nblame tables written to " << blame_path
                  << "\n";
    }

    if (inexact > 0 || (critical_qid >= 0 && missing > 0)) {
        std::cerr << "proteus_trace: " << inexact
                  << " inexact partition(s), " << missing
                  << " missing query span(s)\n";
        return 1;
    }
    return 0;
}

#include "core/experiment.h"

#include <fstream>

#include "common/logging.h"
#include "obs/exporter.h"
#include "workload/generators.h"

namespace proteus {

AllocatorKind
allocatorKindFromName(const std::string& name)
{
    if (name == "ilp" || name == "proteus")
        return AllocatorKind::ProteusIlp;
    if (name == "infaas_v2" || name == "infaas")
        return AllocatorKind::InfaasAccuracy;
    if (name == "clipper_ht" || name == "clipper")
        return AllocatorKind::ClipperHT;
    if (name == "clipper_ha")
        return AllocatorKind::ClipperHA;
    if (name == "sommelier" || name == "ilp_no_mp")
        return AllocatorKind::Sommelier;
    if (name == "ilp_no_ms")
        return AllocatorKind::ProteusNoMS;
    if (name == "ilp_no_qa")
        return AllocatorKind::ProteusNoQA;
    PROTEUS_FATAL("unknown model_allocation algorithm: ", name);
}

BatchingKind
batchingKindFromName(const std::string& name)
{
    if (name == "accscale" || name == "proteus")
        return BatchingKind::Proteus;
    if (name == "aimd" || name == "clipper")
        return BatchingKind::ClipperAimd;
    if (name == "nexus")
        return BatchingKind::NexusEarlyDrop;
    if (name == "static" || name == "none")
        return BatchingKind::StaticOne;
    PROTEUS_FATAL("unknown batching algorithm: ", name);
}

namespace {

/** The range a checked config number must lie in. */
enum class Range {
    Positive,     ///< > 0: rates, multipliers, budgets
    Seconds,      ///< a duration of at least one clock tick (1 us)
    Size,         ///< a capacity of at least one item
    NonNegative,  ///< >= 0: device counts
};

/**
 * Number @p key of the config object @p scope names (@p fallback when
 * absent). The components these keys reach assert on values outside
 * @p range, so a config that asks for one is rejected here with a
 * diagnostic naming the key (exit 1) instead.
 */
double
checkedNumber(const JsonValue& obj, const char* scope, const char* key,
              double fallback, Range range)
{
    const double v = obj.numberOr(key, fallback);
    bool ok = false;
    const char* expected = "";
    switch (range) {
      case Range::Positive:
        ok = v > 0.0;
        expected = "positive";
        break;
      case Range::Seconds:
        ok = v >= 1e-6;
        expected = "at least 1e-06 (one microsecond)";
        break;
      case Range::Size:
        ok = v >= 1.0;
        expected = "at least 1";
        break;
      case Range::NonNegative:
        ok = v >= 0.0;
        expected = "non-negative";
        break;
    }
    if (!ok)
        PROTEUS_FATAL(scope, " \"", key, "\" must be ", expected, ", got ", v);
    return v;
}

Cluster
clusterFromJson(const JsonValue& json)
{
    Cluster cluster;
    StandardTypes types = addStandardTypes(&cluster);
    if (!json.has("cluster")) {
        cluster.addDevices(types.cpu, 20);
        cluster.addDevices(types.gtx1080ti, 10);
        cluster.addDevices(types.v100, 10);
        return cluster;
    }
    const JsonValue& c = json.at("cluster");
    auto count = [&c](const char* key) {
        return static_cast<int>(
            checkedNumber(c, "cluster", key, 0.0, Range::NonNegative));
    };
    cluster.addDevices(types.cpu, count("cpu"));
    cluster.addDevices(types.gtx1080ti, count("gtx1080ti"));
    cluster.addDevices(types.v100, count("v100"));
    if (cluster.numDevices() == 0)
        PROTEUS_FATAL("config cluster has no devices");
    return cluster;
}

ModelRegistry
registryFromJson(const JsonValue& json)
{
    std::string zoo = json.stringOr("zoo", "paper");
    ModelRegistry reg;
    if (zoo == "paper") {
        for (const auto& fam : paperModelZoo())
            reg.registerFamily(fam);
    } else if (zoo == "mini") {
        for (const auto& fam : miniModelZoo())
            reg.registerFamily(fam);
    } else {
        PROTEUS_FATAL("unknown zoo: ", zoo, " (use \"paper\"/\"mini\")");
    }
    return reg;
}

std::vector<PipelineSpec>
pipelinesFromJson(const JsonValue& json)
{
    std::vector<PipelineSpec> specs;
    if (!json.has("pipelines"))
        return specs;
    for (const JsonValue& p : json.at("pipelines").asArray()) {
        PipelineSpec spec;
        spec.name = p.stringOr("name", "");
        if (spec.name.empty())
            PROTEUS_FATAL("pipeline entry is missing \"name\"");
        spec.slo = seconds(p.numberOr("slo_sec", 0.0));
        spec.slo_multiplier = p.numberOr("slo_multiplier", 0.0);
        if (!p.has("stages"))
            PROTEUS_FATAL("pipeline \"", spec.name,
                          "\" is missing \"stages\"");
        for (const JsonValue& s : p.at("stages").asArray()) {
            PipelineStageSpec stage;
            stage.name = s.stringOr("name", "");
            stage.family = s.stringOr("family", "");
            if (s.has("deps")) {
                for (const JsonValue& d : s.at("deps").asArray())
                    stage.deps.push_back(d.asString());
            }
            spec.stages.push_back(std::move(stage));
        }
        specs.push_back(std::move(spec));
    }
    return specs;
}

Trace
traceFromJson(const JsonValue& json, const ModelRegistry& registry,
              const std::vector<PipelineSpec>& pipelines)
{
    const std::size_t num_families = registry.numFamilies();
    if (!json.has("workload"))
        PROTEUS_FATAL("config is missing the \"workload\" object");
    const JsonValue& w = json.at("workload");
    std::string kind = w.stringOr("kind", "diurnal");
    auto secs = [&w](const char* key, double fallback) {
        return seconds(
            checkedNumber(w, "workload", key, fallback, Range::Seconds));
    };
    auto rate = [&w](const char* key, double fallback) {
        return checkedNumber(w, "workload", key, fallback, Range::Positive);
    };
    Duration duration = secs("duration_sec", 360.0);
    std::uint64_t seed =
        static_cast<std::uint64_t>(w.numberOr("seed", 42.0));

    if (kind == "diurnal") {
        DiurnalTraceConfig cfg;
        cfg.duration = duration;
        cfg.base_qps = rate("base_qps", 250.0);
        cfg.diurnal_amplitude_qps = w.numberOr("amplitude_qps", 350.0);
        cfg.cycles = w.numberOr("cycles", 2.0);
        cfg.seed = seed;
        return diurnalTrace(num_families, cfg);
    }
    if (kind == "burst") {
        BurstTraceConfig cfg;
        cfg.duration = duration;
        cfg.low_qps = rate("low_qps", 150.0);
        cfg.high_qps = rate("high_qps", 900.0);
        cfg.phase = secs("phase_sec", 240.0);
        cfg.seed = seed;
        return burstTrace(num_families, cfg);
    }
    if (kind == "steady") {
        std::string process = w.stringOr("process", "poisson");
        ArrivalProcess p;
        if (process == "uniform")
            p = ArrivalProcess::Uniform;
        else if (process == "poisson")
            p = ArrivalProcess::Poisson;
        else if (process == "gamma")
            p = ArrivalProcess::Gamma;
        else
            PROTEUS_FATAL("unknown arrival process: ", process);
        return steadyTrace(num_families, rate("qps", 100.0),
                           duration, p, seed);
    }
    if (kind == "file") {
        std::string path = w.stringOr("path", "");
        if (path.empty())
            PROTEUS_FATAL("workload kind \"file\" needs \"path\"");
        std::ifstream in(path);
        if (!in)
            PROTEUS_FATAL("cannot open trace file: ", path);
        return Trace::readCsv(in);
    }
    if (kind == "pipeline") {
        if (pipelines.empty())
            PROTEUS_FATAL("workload kind \"pipeline\" needs a "
                          "\"pipelines\" array in the config");
        // Compile here to resolve family names and topo order; the
        // serving system recompiles identically from the same specs.
        CompiledPipelines compiled;
        std::string error;
        if (!compilePipelines(pipelines, registry, &compiled, &error))
            PROTEUS_FATAL("pipeline config error: ", error);
        std::vector<FamilyId> entries;
        for (PipelineId p = 0; p < compiled.size(); ++p)
            entries.push_back(compiled.entryFamily(p));
        PipelineTraceConfig cfg;
        cfg.qps = rate("qps", cfg.qps);
        cfg.duration = duration;
        cfg.seed = seed;
        std::string process = w.stringOr("process", "poisson");
        if (process == "uniform")
            cfg.process = ArrivalProcess::Uniform;
        else if (process == "poisson")
            cfg.process = ArrivalProcess::Poisson;
        else if (process == "gamma")
            cfg.process = ArrivalProcess::Gamma;
        else
            PROTEUS_FATAL("unknown arrival process: ", process);
        return pipelineTrace(entries, cfg);
    }
    PROTEUS_FATAL("unknown workload kind: ", kind);
}

}  // namespace

ExperimentSpec
loadExperiment(const JsonValue& json)
{
    ExperimentSpec spec;
    spec.config.allocator = allocatorKindFromName(
        json.stringOr("model_allocation", "ilp"));
    spec.config.batching =
        batchingKindFromName(json.stringOr("batching", "accscale"));
    spec.config.slo_multiplier =
        checkedNumber(json, "config", "slo_multiplier",
                      spec.config.slo_multiplier, Range::Positive);
    spec.config.control_period = seconds(checkedNumber(
        json, "config", "control_period_sec",
        toSeconds(spec.config.control_period), Range::Seconds));
    spec.config.planning_headroom = json.numberOr(
        "planning_headroom", spec.config.planning_headroom);
    spec.config.burst_threshold =
        json.numberOr("burst_threshold", spec.config.burst_threshold);
    spec.config.snapshot_interval = seconds(checkedNumber(
        json, "config", "snapshot_interval_sec",
        toSeconds(spec.config.snapshot_interval), Range::Seconds));
    spec.config.ilp_decision_delay = seconds(json.numberOr(
        "decision_delay_sec",
        toSeconds(spec.config.ilp_decision_delay)));
    spec.config.milp_work_budget = static_cast<std::int64_t>(
        json.numberOr("milp_work_budget",
                      static_cast<double>(spec.config.milp_work_budget)));
    spec.config.latency_jitter_frac = json.numberOr(
        "latency_jitter", spec.config.latency_jitter_frac);
    spec.config.seed =
        static_cast<std::uint64_t>(json.numberOr("seed", 1.0));
    spec.config.pipelines = pipelinesFromJson(json);
    const std::string planning =
        json.stringOr("pipeline_planning", "joint");
    if (planning == "joint")
        spec.config.pipeline_joint_planning = true;
    else if (planning == "independent")
        spec.config.pipeline_joint_planning = false;
    else
        PROTEUS_FATAL("unknown pipeline_planning: ", planning,
                      " (use \"joint\"/\"independent\")");

    if (json.has("observability")) {
        const JsonValue& o = json.at("observability");
        spec.config.obs.enabled = o.boolOr("enabled", false);
        spec.config.obs.ring_capacity =
            static_cast<std::size_t>(checkedNumber(
                o, "observability", "ring_capacity",
                static_cast<double>(spec.config.obs.ring_capacity),
                Range::Size));
        spec.config.obs.sample_interval = seconds(o.numberOr(
            "sample_interval_sec",
            toSeconds(spec.config.obs.sample_interval)));
        spec.config.obs.timeseries_capacity = static_cast<std::size_t>(
            o.numberOr("timeseries_capacity",
                       static_cast<double>(
                           spec.config.obs.timeseries_capacity)));
        spec.config.obs.slo_window = seconds(checkedNumber(
            o, "observability", "slo_window_sec",
            toSeconds(spec.config.obs.slo_window), Range::Seconds));
        spec.config.obs.slo_budget =
            checkedNumber(o, "observability", "slo_budget",
                          spec.config.obs.slo_budget, Range::Positive);
        spec.config.obs.slo_burn_high =
            o.numberOr("slo_burn_high", spec.config.obs.slo_burn_high);
        spec.config.obs.slo_burn_low =
            o.numberOr("slo_burn_low", spec.config.obs.slo_burn_low);
        spec.config.obs.slo_min_count = static_cast<std::uint64_t>(
            o.numberOr("slo_min_count",
                       static_cast<double>(
                           spec.config.obs.slo_min_count)));
        spec.trace_path = o.stringOr("trace_file", "");
        spec.metrics_path = o.stringOr("metrics_file", "");
        spec.timeline_csv_path = o.stringOr("timeline_csv", "");
        spec.timeline_json_path = o.stringOr("timeline_json", "");
    }

    spec.cluster = clusterFromJson(json);
    spec.registry = registryFromJson(json);
    spec.trace =
        traceFromJson(json, spec.registry, spec.config.pipelines);
    return spec;
}

ExperimentSpec
loadExperimentFile(const std::string& path)
{
    JsonValue json;
    std::string error;
    if (!parseJsonFile(path, &json, &error))
        PROTEUS_FATAL("config parse error: ", error);
    return loadExperiment(json);
}

RunResult
runExperiment(ExperimentSpec* spec)
{
    if (!spec->trace_path.empty() || !spec->metrics_path.empty() ||
        !spec->timeline_csv_path.empty() ||
        !spec->timeline_json_path.empty()) {
        spec->config.obs.enabled = true;
    }
    ServingSystem system(&spec->cluster, &spec->registry,
                         spec->config);
    RunResult result = system.run(spec->trace);
    if (!spec->trace_path.empty()) {
        if (!obs::writeChromeTrace(*system.tracer(),
                                   system.traceNames(),
                                   spec->trace_path))
            warn("could not write trace file ", spec->trace_path);
    }
    if (!spec->metrics_path.empty()) {
        if (!obs::writeMetricsJson(system.metricsRegistry(),
                                   spec->metrics_path)) {
            warn("could not write metrics file ", spec->metrics_path);
        }
    }
    if (!spec->timeline_csv_path.empty()) {
        if (!system.timeseries()->writeCsv(spec->timeline_csv_path)) {
            warn("could not write timeline CSV ",
                 spec->timeline_csv_path);
        }
    }
    if (!spec->timeline_json_path.empty()) {
        if (!system.timeseries()->writeJson(spec->timeline_json_path)) {
            warn("could not write timeline JSON ",
                 spec->timeline_json_path);
        }
    }
    return result;
}

}  // namespace proteus

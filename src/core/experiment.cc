#include "core/experiment.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <initializer_list>

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

// Upper bounds of the config schema. Each keeps its key's conversion
// defined: a `*_sec` value times 1e6 stays far inside the int64
// microseconds of Time/Duration, a count fits its int/size_t/int64/
// uint64 field, and a seed is an integer a JSON double holds exactly.
constexpr double kTickSec = 1e-6;  ///< one clock tick (1 us)
/** Any *_sec key: as long as a trace file may run (1e6 s). */
constexpr double kMaxSeconds = toSeconds(kMaxTraceTime);
constexpr double kMaxQps = 1e6;               ///< any *_qps key
constexpr double kMaxFactor = 1e3;            ///< multipliers and ratios
constexpr double kMaxDevices = 1e5;           ///< devices of one type
constexpr double kMaxWorkBudget = 1e12;       ///< simplex iterations
constexpr double kMaxRingCapacity = 1 << 22;  ///< spans (~0.5 GB of rings)
constexpr double kMaxSeed = 9007199254740992.0;  ///< 2^53
constexpr double kMaxJitter = 0.9;  ///< keeps every jittered latency > 0

/** @return @p x as diagnostics print it (16 significant digits). */
std::string
fmtNumber(double x)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.16g", x);
    return buf;
}

/**
 * Typed reader over one JSON config object. Each getter is the schema
 * entry of its key: it names the key, its type, its default (returned
 * when the key is absent) and its accepted range [lo, hi]. finish()
 * then rejects every key no getter asked for, so the keys the loader
 * reads are exactly the keys a config may set. Every failure is
 * PROTEUS_FATAL (exit 1) naming `<scope> "<key>"`.
 */
class ConfigReader
{
  public:
    ConfigReader(const JsonValue& json, std::string scope)
        : json_(json), scope_(std::move(scope))
    {
        if (!json_.isObject())
            PROTEUS_FATAL(scope_, " must be an object, got ",
                          describe(json_));
    }

    /** A number in [lo, hi]. */
    double
    number(const char* key, double fallback, double lo, double hi)
    {
        const JsonValue* v = find(key, JsonValue::Type::Number, "a number");
        return v == nullptr ? fallback : inRange(key, *v, lo, hi);
    }

    /** A number in (0, hi]. */
    double
    positive(const char* key, double fallback, double hi)
    {
        const JsonValue* v = find(key, JsonValue::Type::Number, "a number");
        if (v == nullptr)
            return fallback;
        if (!(v->asNumber() > 0.0))
            fail(key, "positive", *v);
        return inRange(key, *v, 0.0, hi);
    }

    /** A `*_sec` number of seconds in [lo_sec, kMaxSeconds]. */
    Duration
    duration(const char* key, Duration fallback, double lo_sec)
    {
        const JsonValue* v = find(key, JsonValue::Type::Number, "a number");
        return v == nullptr ? fallback
                            : seconds(inRange(key, *v, lo_sec, kMaxSeconds));
    }

    /** A whole number in [lo, hi], converted to @p Int. */
    template <typename Int>
    Int
    integer(const char* key, Int fallback, double lo, double hi)
    {
        const JsonValue* v =
            find(key, JsonValue::Type::Number, "an integer");
        if (v == nullptr)
            return fallback;
        const double x = inRange(key, *v, lo, hi);
        if (x != std::floor(x))
            fail(key, "an integer", *v);
        return static_cast<Int>(x);
    }

    /** true or false. */
    bool
    flag(const char* key, bool fallback)
    {
        const JsonValue* v =
            find(key, JsonValue::Type::Bool, "true or false");
        return v == nullptr ? fallback : v->asBool();
    }

    /** Any string. */
    std::string
    string(const char* key, const std::string& fallback)
    {
        const JsonValue* v = find(key, JsonValue::Type::String, "a string");
        return v == nullptr ? fallback : v->asString();
    }

    /** One of the strings in @p options. */
    std::string
    choice(const char* key, const char* fallback,
           std::initializer_list<const char*> options)
    {
        std::string expected;
        for (const char* o : options)
            expected += (expected.empty() ? "one of \"" : ", \"") +
                        std::string(o) + "\"";
        const JsonValue* v =
            find(key, JsonValue::Type::String, expected.c_str());
        if (v == nullptr)
            return fallback;
        for (const char* o : options) {
            if (v->asString() == o)
                return o;
        }
        fail(key, expected, *v);
    }

    /** An array of strings (empty when absent). */
    std::vector<std::string>
    strings(const char* key)
    {
        std::vector<std::string> out;
        const JsonValue* v =
            find(key, JsonValue::Type::Array, "an array of strings");
        if (v == nullptr)
            return out;
        for (const JsonValue& e : v->asArray()) {
            if (!e.isString())
                fail(key, "an array of strings", e);
            out.push_back(e.asString());
        }
        return out;
    }

    /** An array (nullptr when absent); its elements are unchecked. */
    const std::vector<JsonValue>*
    array(const char* key)
    {
        const JsonValue* v = find(key, JsonValue::Type::Array, "an array");
        return v == nullptr ? nullptr : &v->asArray();
    }

    /** An object (nullptr when absent), for a nested ConfigReader. */
    const JsonValue*
    object(const char* key)
    {
        return find(key, JsonValue::Type::Object, "an object");
    }

    /** Reject every key no getter asked for. */
    void
    finish() const
    {
        for (const std::string& key : json_.keys()) {
            if (std::find(asked_.begin(), asked_.end(), key) !=
                asked_.end())
                continue;
            std::string known;
            for (const std::string& k : asked_)
                known += (known.empty() ? "" : ", ") + k;
            PROTEUS_FATAL(scope_, " \"", key,
                          "\" is not a known key (known: ", known, ")");
        }
    }

  private:
    /** @return @p v as a diagnostic shows it: scalars verbatim. */
    static std::string
    describe(const JsonValue& v)
    {
        switch (v.type()) {
          case JsonValue::Type::Null: return "null";
          case JsonValue::Type::Bool: return v.asBool() ? "true" : "false";
          case JsonValue::Type::Number: return fmtNumber(v.asNumber());
          case JsonValue::Type::String: return "\"" + v.asString() + "\"";
          case JsonValue::Type::Array: return "an array";
          case JsonValue::Type::Object: return "an object";
        }
        return "?";
    }

    /** Record @p key as read; @return its value, nullptr when absent. */
    const JsonValue*
    find(const char* key, JsonValue::Type type, const char* expected)
    {
        asked_.push_back(key);
        if (!json_.has(key))
            return nullptr;
        const JsonValue& v = json_.at(key);
        if (v.type() != type)
            fail(key, expected, v);
        return &v;
    }

    /** @return the number @p v, failing unless lo <= v <= hi. */
    double
    inRange(const char* key, const JsonValue& v, double lo, double hi) const
    {
        const double x = v.asNumber();
        if (x < lo)
            fail(key, lo == 0.0 ? "non-negative" : "at least " + fmtNumber(lo),
                 v);
        if (!(x <= hi))
            fail(key, "at most " + fmtNumber(hi), v);
        return x;
    }

    [[noreturn]] void
    fail(const char* key, const std::string& expected,
         const JsonValue& got) const
    {
        PROTEUS_FATAL(scope_, " \"", key, "\" must be ", expected,
                      ", got ", describe(got));
    }

    const JsonValue& json_;
    std::string scope_;
    std::vector<std::string> asked_;
};

Cluster
clusterFromJson(const JsonValue* json)
{
    Cluster cluster;
    StandardTypes types = addStandardTypes(&cluster);
    if (json == nullptr) {
        cluster.addDevices(types.cpu, 20);
        cluster.addDevices(types.gtx1080ti, 10);
        cluster.addDevices(types.v100, 10);
        return cluster;
    }
    ConfigReader c(*json, "cluster");
    const int cpu = c.integer<int>("cpu", 0, 0.0, kMaxDevices);
    const int gtx = c.integer<int>("gtx1080ti", 0, 0.0, kMaxDevices);
    const int v100 = c.integer<int>("v100", 0, 0.0, kMaxDevices);
    c.finish();
    cluster.addDevices(types.cpu, cpu);
    cluster.addDevices(types.gtx1080ti, gtx);
    cluster.addDevices(types.v100, v100);
    if (cluster.numDevices() == 0)
        PROTEUS_FATAL("config cluster has no devices");
    return cluster;
}

ModelRegistry
registryFromZoo(const std::string& zoo)
{
    ModelRegistry reg;
    for (const auto& fam : zoo == "mini" ? miniModelZoo() : paperModelZoo())
        reg.registerFamily(fam);
    return reg;
}

std::vector<PipelineSpec>
pipelinesFromJson(const std::vector<JsonValue>& entries)
{
    std::vector<PipelineSpec> specs;
    for (std::size_t i = 0; i < entries.size(); ++i) {
        const std::string scope = "pipelines[" + std::to_string(i) + "]";
        ConfigReader p(entries[i], scope);
        PipelineSpec spec;
        spec.name = p.string("name", "");
        spec.slo = p.duration("slo_sec", 0, 0.0);
        spec.slo_multiplier =
            p.number("slo_multiplier", 0.0, 0.0, kMaxFactor);
        const std::vector<JsonValue>* stages = p.array("stages");
        p.finish();
        if (spec.name.empty())
            PROTEUS_FATAL("pipeline entry is missing \"name\"");
        if (stages == nullptr)
            PROTEUS_FATAL("pipeline \"", spec.name,
                          "\" is missing \"stages\"");
        for (std::size_t j = 0; j < stages->size(); ++j) {
            ConfigReader s((*stages)[j],
                           scope + ".stages[" + std::to_string(j) + "]");
            PipelineStageSpec stage;
            stage.name = s.string("name", "");
            stage.family = s.string("family", "");
            stage.deps = s.strings("deps");
            s.finish();
            spec.stages.push_back(std::move(stage));
        }
        specs.push_back(std::move(spec));
    }
    return specs;
}

ArrivalProcess
arrivalProcess(ConfigReader& w)
{
    const std::string p =
        w.choice("process", "poisson", {"uniform", "poisson", "gamma"});
    if (p == "uniform")
        return ArrivalProcess::Uniform;
    return p == "gamma" ? ArrivalProcess::Gamma : ArrivalProcess::Poisson;
}

Trace
traceFromJson(const JsonValue& json, const ModelRegistry& registry,
              const std::vector<PipelineSpec>& pipelines)
{
    const std::size_t num_families = registry.numFamilies();
    ConfigReader w(json, "workload");
    const std::string kind =
        w.choice("kind", "diurnal",
                 {"diurnal", "burst", "steady", "pipeline", "file"});
    // A sweep's seed axis sets "seed" on every kind, "file" included.
    const std::uint64_t seed =
        w.integer<std::uint64_t>("seed", 42, 0.0, kMaxSeed);

    if (kind == "file") {
        const std::string path = w.string("path", "");
        w.finish();
        if (path.empty())
            PROTEUS_FATAL("workload kind \"file\" needs \"path\"");
        std::ifstream in(path);
        if (!in)
            PROTEUS_FATAL("cannot open trace file: ", path);
        return Trace::readCsv(in, path, num_families);
    }
    const Duration duration =
        w.duration("duration_sec", seconds(360.0), kTickSec);
    if (kind == "diurnal") {
        DiurnalTraceConfig cfg;
        cfg.duration = duration;
        cfg.base_qps = w.positive("base_qps", 250.0, kMaxQps);
        cfg.diurnal_amplitude_qps =
            w.number("amplitude_qps", 350.0, 0.0, kMaxQps);
        cfg.cycles = w.number("cycles", 2.0, 0.0, kMaxFactor);
        cfg.seed = seed;
        w.finish();
        return diurnalTrace(num_families, cfg);
    }
    if (kind == "burst") {
        BurstTraceConfig cfg;
        cfg.duration = duration;
        cfg.low_qps = w.positive("low_qps", 150.0, kMaxQps);
        cfg.high_qps = w.positive("high_qps", 900.0, kMaxQps);
        cfg.phase = w.duration("phase_sec", seconds(240.0), kTickSec);
        cfg.seed = seed;
        w.finish();
        return burstTrace(num_families, cfg);
    }
    if (kind == "steady") {
        const double qps = w.positive("qps", 100.0, kMaxQps);
        const ArrivalProcess process = arrivalProcess(w);
        w.finish();
        return steadyTrace(num_families, qps, duration, process, seed);
    }
    // kind == "pipeline"
    PipelineTraceConfig cfg;
    cfg.qps = w.positive("qps", cfg.qps, kMaxQps);
    cfg.duration = duration;
    cfg.seed = seed;
    cfg.process = arrivalProcess(w);
    w.finish();
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
    return pipelineTrace(entries, cfg);
}

/** The "observability" object: switches and export paths. */
void
observabilityFromJson(const JsonValue& json, ExperimentSpec* spec)
{
    ConfigReader o(json, "observability");
    obs::ObsOptions& opts = spec->config.obs;
    opts.enabled = o.flag("enabled", false);
    opts.ring_capacity = o.integer<std::size_t>(
        "ring_capacity", opts.ring_capacity, 1.0, kMaxRingCapacity);
    opts.slo_window = o.duration("slo_window_sec", opts.slo_window, kTickSec);
    spec->trace_path = o.string("trace_file", "");
    spec->metrics_path = o.string("metrics_file", "");
    spec->timeline_csv_path = o.string("timeline_csv", "");
    spec->timeline_json_path = o.string("timeline_json", "");
    o.finish();
}

}  // namespace

ExperimentSpec
loadExperiment(const JsonValue& json)
{
    ExperimentSpec spec;
    SystemConfig& cfg = spec.config;
    ConfigReader r(json, "config");
    cfg.allocator =
        allocatorKindFromName(r.string("model_allocation", "ilp"));
    cfg.batching = batchingKindFromName(r.string("batching", "accscale"));
    cfg.slo_multiplier =
        r.positive("slo_multiplier", cfg.slo_multiplier, kMaxFactor);
    cfg.control_period =
        r.duration("control_period_sec", cfg.control_period, kTickSec);
    cfg.planning_headroom = r.number(
        "planning_headroom", cfg.planning_headroom, 1.0, kMaxFactor);
    cfg.burst_threshold =
        r.positive("burst_threshold", cfg.burst_threshold, kMaxFactor);
    cfg.snapshot_interval = r.duration("snapshot_interval_sec",
                                       cfg.snapshot_interval, kTickSec);
    cfg.ilp_decision_delay =
        r.duration("decision_delay_sec", cfg.ilp_decision_delay, 0.0);
    cfg.milp_work_budget = r.integer<std::int64_t>(
        "milp_work_budget", cfg.milp_work_budget, 0.0, kMaxWorkBudget);
    cfg.latency_jitter_frac = r.number(
        "latency_jitter", cfg.latency_jitter_frac, 0.0, kMaxJitter);
    cfg.seed = r.integer<std::uint64_t>("seed", 1, 0.0, kMaxSeed);
    cfg.pipeline_joint_planning =
        r.choice("pipeline_planning", "joint",
                 {"joint", "independent"}) == "joint";
    if (const std::vector<JsonValue>* p = r.array("pipelines"))
        cfg.pipelines = pipelinesFromJson(*p);
    if (const JsonValue* o = r.object("observability"))
        observabilityFromJson(*o, &spec);
    const JsonValue* cluster = r.object("cluster");
    const std::string zoo = r.choice("zoo", "paper", {"paper", "mini"});
    const JsonValue* workload = r.object("workload");
    r.finish();
    if (workload == nullptr)
        PROTEUS_FATAL("config is missing the \"workload\" object");

    spec.cluster = clusterFromJson(cluster);
    spec.registry = registryFromZoo(zoo);
    spec.trace = traceFromJson(*workload, spec.registry, cfg.pipelines);
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

#include "core/experiment.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <sstream>

#include "sweep/matrix.h"

namespace proteus {
namespace {

JsonValue
parse(const std::string& text)
{
    JsonValue v;
    std::string error;
    EXPECT_TRUE(parseJson(text, &v, &error)) << error;
    return v;
}

TEST(ExperimentTest, AlgorithmNameMapping)
{
    EXPECT_EQ(allocatorKindFromName("ilp"), AllocatorKind::ProteusIlp);
    EXPECT_EQ(allocatorKindFromName("infaas_v2"),
              AllocatorKind::InfaasAccuracy);
    EXPECT_EQ(allocatorKindFromName("clipper_ht"),
              AllocatorKind::ClipperHT);
    EXPECT_EQ(allocatorKindFromName("clipper_ha"),
              AllocatorKind::ClipperHA);
    EXPECT_EQ(allocatorKindFromName("sommelier"),
              AllocatorKind::Sommelier);
    EXPECT_EQ(batchingKindFromName("accscale"), BatchingKind::Proteus);
    EXPECT_EQ(batchingKindFromName("aimd"), BatchingKind::ClipperAimd);
    EXPECT_EQ(batchingKindFromName("nexus"),
              BatchingKind::NexusEarlyDrop);
    EXPECT_EQ(batchingKindFromName("static"), BatchingKind::StaticOne);
}

TEST(ExperimentTest, LoadsFullConfig)
{
    ExperimentSpec spec = loadExperiment(parse(R"({
        "model_allocation": "infaas_v2",
        "batching": "nexus",
        "slo_multiplier": 2.5,
        "control_period_sec": 15,
        "seed": 9,
        "cluster": {"cpu": 2, "gtx1080ti": 1, "v100": 1},
        "zoo": "mini",
        "workload": {
            "kind": "steady", "duration_sec": 10, "qps": 50,
            "process": "poisson"
        }
    })"));
    EXPECT_EQ(spec.config.allocator, AllocatorKind::InfaasAccuracy);
    EXPECT_EQ(spec.config.batching, BatchingKind::NexusEarlyDrop);
    EXPECT_DOUBLE_EQ(spec.config.slo_multiplier, 2.5);
    EXPECT_EQ(spec.config.control_period, seconds(15.0));
    EXPECT_EQ(spec.config.seed, 9u);
    EXPECT_EQ(spec.cluster.numDevices(), 4u);
    EXPECT_EQ(spec.registry.numFamilies(), 3u);
    EXPECT_GT(spec.trace.size(), 200u);
}

TEST(ExperimentTest, DefaultsMatchPaperSetup)
{
    ExperimentSpec spec = loadExperiment(parse(R"({
        "workload": {"kind": "steady", "duration_sec": 5, "qps": 10}
    })"));
    EXPECT_EQ(spec.config.allocator, AllocatorKind::ProteusIlp);
    EXPECT_EQ(spec.config.batching, BatchingKind::Proteus);
    EXPECT_EQ(spec.cluster.numDevices(), 40u);   // paper cluster
    EXPECT_EQ(spec.registry.numFamilies(), 9u);  // Table 3
}

TEST(ExperimentTest, WorkloadKinds)
{
    ExperimentSpec diurnal = loadExperiment(parse(R"({
        "zoo": "mini", "cluster": {"cpu": 1},
        "workload": {"kind": "diurnal", "duration_sec": 20,
                     "base_qps": 30, "amplitude_qps": 10}
    })"));
    EXPECT_GT(diurnal.trace.size(), 100u);

    ExperimentSpec burst = loadExperiment(parse(R"({
        "zoo": "mini", "cluster": {"cpu": 1},
        "workload": {"kind": "burst", "duration_sec": 20,
                     "low_qps": 10, "high_qps": 50, "phase_sec": 5}
    })"));
    EXPECT_GT(burst.trace.size(), 100u);
}

TEST(ExperimentTest, NonPositiveQpsIsAConfigError)
{
    // Each rate key reaches a generator that asserts on it; the config
    // loader must reject it first with exit 1 and the key's name.
    const struct {
        const char* workload;
        const char* message;
    } cases[] = {
        {R"({"kind": "steady", "qps": -5})", "workload \"qps\" must be"},
        {R"({"kind": "steady", "qps": 0})", "workload \"qps\" must be"},
        {R"({"kind": "burst", "low_qps": -1})",
         "workload \"low_qps\" must be"},
        {R"({"kind": "burst", "high_qps": 0})",
         "workload \"high_qps\" must be"},
        {R"({"kind": "diurnal", "base_qps": -30})",
         "workload \"base_qps\" must be"},
    };
    for (const auto& c : cases) {
        const std::string config = std::string(R"({"zoo": "mini",
            "cluster": {"cpu": 1}, "workload": )") + c.workload + "}";
        const JsonValue json = parse(config);
        EXPECT_EXIT(loadExperiment(json), ::testing::ExitedWithCode(1),
                    c.message)
            << c.workload;
    }
}

TEST(ExperimentTest, NonPositivePipelineQpsIsAConfigError)
{
    const JsonValue json = parse(R"({
        "zoo": "mini", "cluster": {"cpu": 1},
        "pipelines": [{"name": "p", "slo_multiplier": 2.0,
                       "stages": [{"name": "a", "family": "resnet"}]}],
        "workload": {"kind": "pipeline", "qps": -5}
    })");
    EXPECT_EXIT(loadExperiment(json), ::testing::ExitedWithCode(1),
                "workload \"qps\" must be positive, got -5");
}

/**
 * A config with one malformed key or trace row, and the diagnostic it
 * earns. "@DIR@" in the config stands for the fixture directory.
 */
struct OutOfRangeKey {
    const char* name;
    const char* config;
    const char* message;
};

/** Stable test names: print the key, not the pointers. */
void
PrintTo(const OutOfRangeKey& key, std::ostream* os)
{
    *os << key.name;
}

class ExperimentKeyTest : public ::testing::TestWithParam<OutOfRangeKey>
{};

TEST_P(ExperimentKeyTest, OutOfRangeIsAConfigError)
{
    // Each config reaches a component that asserts on it, or runs
    // silently wrong; the loader must reject it first with exit 1 and
    // a diagnostic naming the key, or the trace file and row.
    std::string config = GetParam().config;
    const std::size_t dir = config.find("@DIR@");
    if (dir != std::string::npos)
        config.replace(dir, 5, CONFIG_FIXTURE_DIR);
    const JsonValue json = parse(config);
    EXPECT_EXIT(loadExperiment(json), ::testing::ExitedWithCode(1),
                GetParam().message);
}

INSTANTIATE_TEST_SUITE_P(
    Keys, ExperimentKeyTest,
    ::testing::Values(
        OutOfRangeKey{"slo_multiplier",
                      R"({"zoo": "mini", "slo_multiplier": 0,
                          "cluster": {"cpu": 1},
                          "workload": {"kind": "steady"}})",
                      "config \"slo_multiplier\" must be positive, got 0"},
        OutOfRangeKey{"control_period_sec",
                      R"({"zoo": "mini", "control_period_sec": 0,
                          "cluster": {"cpu": 1},
                          "workload": {"kind": "steady"}})",
                      "config \"control_period_sec\" must be at least"},
        OutOfRangeKey{"snapshot_interval_sec",
                      R"({"zoo": "mini", "snapshot_interval_sec": 0,
                          "cluster": {"cpu": 1},
                          "workload": {"kind": "steady"}})",
                      "config \"snapshot_interval_sec\" must be at least"},
        OutOfRangeKey{"slo_budget",
                      R"({"zoo": "mini", "cluster": {"cpu": 1},
                          "observability": {"slo_budget": 0},
                          "workload": {"kind": "steady"}})",
                      "observability \"slo_budget\" is not a known key"},
        OutOfRangeKey{"slo_window_sec",
                      R"({"zoo": "mini", "cluster": {"cpu": 1},
                          "observability": {"slo_window_sec": 0},
                          "workload": {"kind": "steady"}})",
                      "observability \"slo_window_sec\" must be at least"},
        OutOfRangeKey{"ring_capacity",
                      R"({"zoo": "mini", "cluster": {"cpu": 1},
                          "observability": {"ring_capacity": 0},
                          "workload": {"kind": "steady"}})",
                      "observability \"ring_capacity\" must be at least 1"},
        OutOfRangeKey{"cpu",
                      R"({"zoo": "mini", "cluster": {"cpu": -2, "v100": 1},
                          "workload": {"kind": "steady"}})",
                      "cluster \"cpu\" must be non-negative, got -2"},
        OutOfRangeKey{"gtx1080ti",
                      R"({"zoo": "mini",
                          "cluster": {"cpu": 1, "gtx1080ti": -1},
                          "workload": {"kind": "steady"}})",
                      "cluster \"gtx1080ti\" must be non-negative"},
        OutOfRangeKey{"v100",
                      R"({"zoo": "mini", "cluster": {"cpu": 1, "v100": -1},
                          "workload": {"kind": "steady"}})",
                      "cluster \"v100\" must be non-negative"},
        OutOfRangeKey{"duration_sec",
                      R"({"zoo": "mini", "cluster": {"cpu": 1},
                          "workload": {"kind": "steady",
                                       "duration_sec": -5}})",
                      "workload \"duration_sec\" must be at least"},
        OutOfRangeKey{"phase_sec",
                      R"({"zoo": "mini", "cluster": {"cpu": 1},
                          "workload": {"kind": "burst", "phase_sec": 0}})",
                      "workload \"phase_sec\" must be at least"},
        OutOfRangeKey{"cpu_overflow",
                      R"({"zoo": "mini", "cluster": {"cpu": 1e10},
                          "workload": {"kind": "steady"}})",
                      "cluster \"cpu\" must be at most 100000, "
                      "got 10000000000"},
        OutOfRangeKey{"cpu_fraction",
                      R"({"zoo": "mini", "cluster": {"cpu": 2.5},
                          "workload": {"kind": "steady"}})",
                      "cluster \"cpu\" must be an integer, got 2.5"},
        OutOfRangeKey{"slo_multiplier_string",
                      R"({"zoo": "mini", "slo_multiplier": "2",
                          "cluster": {"cpu": 1},
                          "workload": {"kind": "steady"}})",
                      "config \"slo_multiplier\" must be a number, "
                      "got \"2\""},
        OutOfRangeKey{"process_number",
                      R"({"zoo": "mini", "cluster": {"cpu": 1},
                          "workload": {"kind": "steady", "process": 7}})",
                      "workload \"process\" must be one of \"uniform\", "
                      "\"poisson\", \"gamma\", got 7"},
        OutOfRangeKey{"pipelines_object",
                      R"({"zoo": "mini", "cluster": {"cpu": 1},
                          "pipelines": {"a": 1},
                          "workload": {"kind": "steady"}})",
                      "config \"pipelines\" must be an array, "
                      "got an object"},
        OutOfRangeKey{"enabled_number",
                      R"({"zoo": "mini", "cluster": {"cpu": 1},
                          "observability": {"enabled": 1},
                          "workload": {"kind": "steady"}})",
                      "observability \"enabled\" must be true or false, "
                      "got 1"},
        OutOfRangeKey{"latency_jitter",
                      R"({"zoo": "mini", "latency_jitter": 5,
                          "cluster": {"cpu": 1},
                          "workload": {"kind": "steady"}})",
                      "config \"latency_jitter\" must be at most 0.9, "
                      "got 5"},
        OutOfRangeKey{"ring_capacity_overflow",
                      R"({"zoo": "mini", "cluster": {"cpu": 1},
                          "observability": {"enabled": true,
                                            "ring_capacity": 1e12},
                          "workload": {"kind": "steady"}})",
                      "observability \"ring_capacity\" must be at most "
                      "4194304, got 1000000000000"},
        OutOfRangeKey{"unknown_key",
                      R"({"zoo": "mini", "slo_multipler": 5,
                          "cluster": {"cpu": 1},
                          "workload": {"kind": "steady"}})",
                      "config \"slo_multipler\" is not a known key "
                      "\\(known: .*slo_multiplier"},
        OutOfRangeKey{"key_of_another_kind",
                      R"({"zoo": "mini", "cluster": {"cpu": 1},
                          "workload": {"kind": "steady", "low_qps": -5}})",
                      "workload \"low_qps\" is not a known key"},
        OutOfRangeKey{"duration_overflow",
                      R"({"zoo": "mini", "cluster": {"cpu": 1},
                          "workload": {"kind": "steady",
                                       "duration_sec": 1e20}})",
                      "workload \"duration_sec\" must be at most 1000000, "
                      "got 1e\\+20"},
        OutOfRangeKey{"milp_work_budget",
                      R"({"zoo": "mini", "milp_work_budget": 1e30,
                          "cluster": {"cpu": 1},
                          "workload": {"kind": "steady"}})",
                      "config \"milp_work_budget\" must be at most "
                      "1000000000000, got 1e\\+30"},
        OutOfRangeKey{"seed",
                      R"({"zoo": "mini", "seed": -1, "cluster": {"cpu": 1},
                          "workload": {"kind": "steady"}})",
                      "config \"seed\" must be non-negative, got -1"},
        OutOfRangeKey{"planning_headroom",
                      R"({"zoo": "mini", "planning_headroom": -1,
                          "cluster": {"cpu": 1},
                          "workload": {"kind": "steady"}})",
                      "config \"planning_headroom\" must be at least 1, "
                      "got -1"},
        OutOfRangeKey{"workload_array",
                      R"({"zoo": "mini", "cluster": {"cpu": 1},
                          "workload": [1, 2]})",
                      "config \"workload\" must be an object, "
                      "got an array"},
        OutOfRangeKey{"file_row_without_comma",
                      R"({"zoo": "mini", "cluster": {"cpu": 1},
                          "workload": {"kind": "file", "path":
                                       "@DIR@/no_comma.csv"}})",
                      "no_comma.csv row 2: expected \"time_us,family\", "
                      "got \"100 0\""},
        OutOfRangeKey{"file_time_not_integer",
                      R"({"zoo": "mini", "cluster": {"cpu": 1},
                          "workload": {"kind": "file", "path":
                                       "@DIR@/time_not_integer.csv"}})",
                      "time_not_integer.csv row 1: time_us must be an "
                      "integer in .*, got \"abc\""},
        OutOfRangeKey{"file_family_out_of_range",
                      R"({"zoo": "mini", "cluster": {"cpu": 1},
                          "workload": {"kind": "file", "path":
                                       "@DIR@/family_out_of_range.csv"}})",
                      "family_out_of_range.csv row 2: family must be an "
                      "integer in .*, got \"99\""},
        OutOfRangeKey{"file_fractional_time",
                      R"({"zoo": "mini", "cluster": {"cpu": 1},
                          "workload": {"kind": "file", "path":
                                       "@DIR@/fractional_time.csv"}})",
                      "fractional_time.csv row 1: time_us must be an "
                      "integer in .*, got \"0.5\""},
        OutOfRangeKey{"file_negative_time",
                      R"({"zoo": "mini", "cluster": {"cpu": 1},
                          "workload": {"kind": "file", "path":
                                       "@DIR@/negative_time.csv"}})",
                      "negative_time.csv row 1: time_us must be an "
                      "integer in .*, got \"-5\""}),
    [](const ::testing::TestParamInfo<OutOfRangeKey>& key) {
        return std::string(key.param.name);
    });

TEST(ExperimentTest, EveryCommittedConfigLoads)
{
    // Every committed config is inside the schema, and so is every job
    // a sweep expands to: the seed axis adds "seed" and
    // "workload.seed" to each job, whatever its workload kind.
    std::size_t loaded = 0;
    for (const auto& entry :
         std::filesystem::directory_iterator(PROTEUS_CONFIG_DIR)) {
        if (entry.path().extension() != ".json")
            continue;
        SCOPED_TRACE(entry.path().string());
        JsonValue json;
        std::string error;
        ASSERT_TRUE(parseJsonFile(entry.path().string(), &json, &error))
            << error;
        if (!json.has("base")) {
            EXPECT_GT(loadExperiment(json).trace.size(), 0u);
            ++loaded;
            continue;
        }
        for (const sweep::JobSpec& job :
             sweep::expandJobs(sweep::loadSweepSpec(json))) {
            EXPECT_GT(loadExperiment(job.experiment).trace.size(), 0u);
            ++loaded;
        }
    }
    EXPECT_GE(loaded, 7u + 30u);  // 7 configs + sweep_smoke's 3 x 10 jobs
}

TEST(ExperimentTest, FileTraceAcceptsTheSweepSeed)
{
    const ExperimentSpec spec = loadExperiment(parse(
        std::string(R"({"zoo": "mini", "cluster": {"cpu": 1}, "seed": 3,
            "workload": {"kind": "file", "seed": 3, "path": ")") +
        CONFIG_FIXTURE_DIR + R"(/valid.csv"}})"));
    ASSERT_EQ(spec.trace.size(), 2u);
    EXPECT_EQ(spec.trace.events()[1].at, 200);
    EXPECT_EQ(spec.trace.events()[1].family, 2u);
}

TEST(ExperimentTest, EndToEndRunFromConfig)
{
    ExperimentSpec spec = loadExperiment(parse(R"({
        "zoo": "mini",
        "cluster": {"cpu": 2, "v100": 1},
        "workload": {"kind": "steady", "duration_sec": 20, "qps": 30}
    })"));
    RunResult r = runExperiment(&spec);
    EXPECT_EQ(r.summary.arrivals, spec.trace.size());
    EXPECT_EQ(r.summary.arrivals,
              r.summary.served + r.summary.served_late +
                  r.summary.dropped);
}

TEST(ExperimentTest, TraceCsvRoundTrip)
{
    Trace t({{1000, 0}, {2000, 1}, {1500, 2}});
    std::stringstream ss;
    t.writeCsv(ss);
    Trace back = Trace::readCsv(ss, "round_trip.csv", 3);
    ASSERT_EQ(back.size(), 3u);
    EXPECT_EQ(back.events()[0].at, 1000);
    EXPECT_EQ(back.events()[1].at, 1500);
    EXPECT_EQ(back.events()[1].family, 2u);
    EXPECT_EQ(back.events()[2].at, 2000);
}

TEST(ExperimentTest, TraceCsvWithoutHeader)
{
    std::stringstream ss("100,0\n200,1\n");
    Trace t = Trace::readCsv(ss, "no_header.csv", 2);
    ASSERT_EQ(t.size(), 2u);
    EXPECT_EQ(t.events()[1].family, 1u);
}

}  // namespace
}  // namespace proteus

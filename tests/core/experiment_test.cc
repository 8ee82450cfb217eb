#include "core/experiment.h"

#include <gtest/gtest.h>

#include <sstream>

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

/** A config with one key out of range, and the diagnostic it earns. */
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
    // Each key reaches a component that asserts on it, or is accepted
    // silently; the config loader must reject it first with exit 1 and
    // the key's name.
    const JsonValue json = parse(GetParam().config);
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
                      "observability \"slo_budget\" must be positive"},
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
                      "workload \"phase_sec\" must be at least"}),
    [](const ::testing::TestParamInfo<OutOfRangeKey>& key) {
        return std::string(key.param.name);
    });

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
    Trace back = Trace::readCsv(ss);
    ASSERT_EQ(back.size(), 3u);
    EXPECT_EQ(back.events()[0].at, 1000);
    EXPECT_EQ(back.events()[1].at, 1500);
    EXPECT_EQ(back.events()[1].family, 2u);
    EXPECT_EQ(back.events()[2].at, 2000);
}

TEST(ExperimentTest, TraceCsvWithoutHeader)
{
    std::stringstream ss("100,0\n200,1\n");
    Trace t = Trace::readCsv(ss);
    ASSERT_EQ(t.size(), 2u);
    EXPECT_EQ(t.events()[1].family, 1u);
}

}  // namespace
}  // namespace proteus

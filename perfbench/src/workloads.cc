#include "workloads.h"

#include "common/rng.h"
#include "workload/generators.h"

namespace perfbench {

using namespace proteus;

namespace {

/** steady_gamma's aggregate rate (fig06's load). */
const double kSteadyQps = 800.0;

/** fig05's macro-burst trace on the paper cluster, live control loop. */
void
burst(WorkloadSpec* w)
{
    w->cluster = paperCluster();
    w->registry = paperRegistry();
}

/**
 * §6.4 micro-bursty traffic on a plan frozen after initial
 * provisioning, as fig06 isolates batching. The plan is sized for the
 * generator's nominal per-family rates: a Gamma(0.05) trace's first
 * minute is too bursty to estimate them, and a plan fitted to that
 * noise would differ from seed to seed.
 */
void
steadyGamma(WorkloadSpec* w)
{
    w->cluster = paperCluster();
    w->registry = paperRegistry();
    w->config.planning_headroom = 1.0;
    w->config.control_period = seconds(1e6);
    w->config.burst_threshold = 1e9;
    w->has_decisions = false;
    w->shards = 8;
    const ZipfDistribution zipf(w->registry.numFamilies(), 1.001);
    for (std::size_t f = 0; f < zipf.size(); ++f)
        w->planning_demand.push_back(kSteadyQps * zipf.pmf(f));
}

/** fig12's 3-stage vision chain (60 ms e2e SLO, joint planning). */
void
pipeline(WorkloadSpec* w)
{
    StandardTypes types = addStandardTypes(&w->cluster);
    w->cluster.addDevices(types.cpu, 8);
    w->cluster.addDevices(types.gtx1080ti, 4);
    w->cluster.addDevices(types.v100, 4);
    for (const auto& fam : miniModelZoo())
        w->registry.registerFamily(fam);
    PipelineSpec spec;
    spec.name = "vision";
    spec.slo = millis(60.0);
    spec.stages.push_back({"detect", "resnet", {}});
    spec.stages.push_back({"classify", "efficientnet", {"detect"}});
    spec.stages.push_back({"annotate", "mobilenet", {"classify"}});
    w->config.pipelines = {spec};
    w->config.pipeline_joint_planning = true;
    w->shards = 6;
}

}  // namespace

std::vector<std::string>
workloadNames()
{
    return {"burst", "steady_gamma", "pipeline"};
}

bool
makeWorkload(const std::string& name, WorkloadSpec* out)
{
    WorkloadSpec w;
    w.name = name;
    w.config.allocator = AllocatorKind::ProteusIlp;
    w.config.batching = BatchingKind::Proteus;
    if (name == "burst")
        burst(&w);
    else if (name == "steady_gamma")
        steadyGamma(&w);
    else if (name == "pipeline")
        pipeline(&w);
    else
        return false;
    *out = std::move(w);
    return true;
}

std::uint64_t
shardSeed(const WorkloadSpec& spec, std::uint64_t seed, int shard)
{
    // With one shard this is the run's seed: burst seed 43 is fig05's trace.
    return seed * static_cast<std::uint64_t>(spec.shards) +
           static_cast<std::uint64_t>(shard);
}

Trace
makeTrace(const WorkloadSpec& spec, std::uint64_t seed)
{
    const std::size_t families = spec.registry.numFamilies();
    if (spec.name == "burst") {
        BurstTraceConfig tc;
        tc.duration = seconds(24 * 60);
        tc.low_qps = 200.0;
        tc.high_qps = 1150.0;
        tc.phase = seconds(4 * 60);
        tc.seed = seed;
        return burstTrace(families, tc);
    }
    if (spec.name == "steady_gamma") {
        // 2 simulated hours in all, split across the shards.
        return steadyTrace(families, kSteadyQps,
                           seconds(2 * 3600.0 / spec.shards),
                           ArrivalProcess::Gamma, seed);
    }
    PipelineTraceConfig tc;
    tc.qps = 450.0;
    tc.duration = seconds(3600.0 / spec.shards);
    tc.seed = seed;
    return pipelineTrace({0}, tc);
}

}  // namespace perfbench

/**
 * @file
 * The benchmark's workloads: each builds a cluster, a model registry,
 * a SystemConfig and an open-loop arrival trace from one seed.
 * Arrival times are fixed in simulated time before the run starts, so
 * there is no generator that could fall behind.
 */

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "cluster/device.h"
#include "core/config.h"
#include "models/model.h"
#include "workload/trace.h"

namespace perfbench {

/** Everything one run of a workload needs except the trace. */
struct WorkloadSpec {
    std::string name;
    proteus::Cluster cluster;
    proteus::ModelRegistry registry;
    proteus::SystemConfig config;
    /** Whether controller decisions after set-up are expected. */
    bool has_decisions = true;
    /**
     * Independent traces (shards) one run serves, each from its own
     * seed derived from the run's seed. Which plan the initial solve
     * picks depends on the seed, so one run averages over several.
     */
    int shards = 1;
    /**
     * Per-family QPS the initial solve provisions for; empty = the
     * system's default, the demand of the trace's first minute.
     */
    std::vector<double> planning_demand;
};

/** @return the names makeWorkload() accepts. */
std::vector<std::string> workloadNames();

/**
 * Build workload @p name. @return false (and leave @p out untouched)
 * for an unknown name.
 */
bool makeWorkload(const std::string& name, WorkloadSpec* out);

/** @return the seed of shard @p shard of a run seeded @p seed. */
std::uint64_t shardSeed(const WorkloadSpec& spec, std::uint64_t seed,
                        int shard);

/** Generate the arrival trace of one shard seeded @p shard_seed. */
proteus::Trace makeTrace(const WorkloadSpec& spec,
                         std::uint64_t shard_seed);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_

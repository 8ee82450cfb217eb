/**
 * @file
 * Resource-allocation plan and the allocator strategy interface.
 *
 * An Allocation is the joint output of the paper's three sub-problems
 * (§4): model selection + placement ({x_dm}: which variant each
 * device hosts) and query assignment ({y_dq}: what fraction of each
 * query type goes to each device). Allocators are the pluggable
 * policies: the Proteus MILP, the INFaaS-Accuracy greedy heuristic,
 * Clipper's static plans, Sommelier's selection-only adaptation, and
 * the ablated variants of §6.5.
 */

#ifndef PROTEUS_CORE_ALLOCATION_H_
#define PROTEUS_CORE_ALLOCATION_H_

#include <optional>
#include <string>
#include <vector>

#include "common/types.h"

namespace proteus {

/** One routing share: fraction of a family's demand to one device. */
struct DeviceShare {
    DeviceId device = kInvalidId;
    double weight = 0.0;  ///< y_{d,q} in [0, 1]
};

/** A complete resource-allocation plan. */
struct Allocation {
    /** hosting[d]: variant hosted on device d (nullopt = idle). */
    std::vector<std::optional<VariantId>> hosting;
    /** routing[f]: shares of family f's demand (sum <= 1). */
    std::vector<std::vector<DeviceShare>> routing;
    /**
     * Fraction of the requested demand the plan serves (< 1 after
     * the infeasibility backoff of §4 sheds load).
     */
    double planned_fraction = 1.0;
    /** Plan-predicted effective accuracy of served queries. */
    double expected_accuracy = 0.0;
    /** Plan-predicted serving throughput in QPS. */
    double planned_qps = 0.0;
    /**
     * Peak capacity provisioned per family (QPS): the sum of
     * P(d, m, q) over hosted replicas.
     */
    std::vector<double> family_capacity;
    /**
     * Demand estimate (QPS per family) the plan was built for.
     * Monitors raise a burst alarm when observed demand exceeds this
     * by the configured threshold.
     */
    std::vector<double> planned_demand;

    /** @return total routed weight of family @p f (<= 1). */
    double
    routedFraction(FamilyId f) const
    {
        double w = 0.0;
        for (const auto& share : routing[f])
            w += share.weight;
        return w;
    }
};

/** Demand snapshot handed to an allocator. */
struct AllocationInput {
    /** Estimated demand per family in QPS. */
    std::vector<double> demand_qps;
    /** The plan currently in force (nullptr on the first call). */
    const Allocation* current = nullptr;
    /** Simulation time of the decision. */
    Time now = 0;
    /**
     * Failure mask from the health tracker: device_down[d] != 0 marks
     * device d dead — it must not be hosted or routed to. Empty means
     * every device is available. Failure-aware allocators (the
     * Proteus MILP) honour it; static baselines (Clipper) ignore it,
     * which is exactly the availability gap fig11_faults measures.
     */
    std::vector<char> device_down;

    /** @return true when device @p d is marked down. */
    bool
    isDown(DeviceId d) const
    {
        return d < device_down.size() && device_down[d] != 0;
    }
};

/**
 * Instrumentation of an allocator's most recent decision, consumed by
 * the controller's observability spans (DESIGN.md, "Observability").
 * Heuristic allocators leave the solver fields at zero.
 */
struct AllocatorSolveMeta {
    /** Wall-clock seconds the decision took to compute. */
    double wall_seconds = 0.0;
    /** Branch-and-bound nodes explored (MILP allocators). */
    std::int64_t nodes = 0;
    /** Simplex iterations across all LP relaxations. */
    std::int64_t simplex_iterations = 0;
    /** LP relaxations solved (B&B nodes plus heuristic dives). */
    std::int64_t lp_solves = 0;
    /** Final relative incumbent/bound gap (0 when proven optimal). */
    double gap = 0.0;
    /**
     * Objective value of the plan's aggregated solution: the MILP
     * optimum, or the kept plan's value when hysteresis keeps it.
     */
    double objective = 0.0;
    /** Infeasibility backoff steps taken (§4 demand scale-down). */
    int backoff_steps = 0;
    /**
     * Deterministic work budget (simplex iterations) the solve ran
     * under; 0 when unlimited. Lets the observability layer report
     * budget consumption (simplex_iterations / work_budget).
     */
    std::int64_t work_budget = 0;
};

/** Strategy interface for resource allocation. */
class Allocator
{
  public:
    virtual ~Allocator() = default;

    /** Compute a plan for the given demand. */
    virtual Allocation allocate(const AllocationInput& input) = 0;

    /**
     * Instrumentation of the most recent allocate() call. The default
     * (all-zero) suits heuristic allocators with no solver phase.
     */
    virtual AllocatorSolveMeta lastSolveMeta() const { return {}; }

    /**
     * Decision latency to simulate between invoking the allocator and
     * the plan taking effect. The Proteus MILP runs off the critical
     * path and takes seconds (§6.8, mean 4.2 s); INFaaS's heuristic
     * is effectively instant because it runs on the query path.
     */
    virtual Duration decisionDelay() const { return 0; }

    /** Human-readable allocator name. */
    virtual const char* name() const = 0;
};

}  // namespace proteus

#endif  // PROTEUS_CORE_ALLOCATION_H_

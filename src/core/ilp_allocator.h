/**
 * @file
 * The Proteus resource manager: joint model selection, placement and
 * query assignment by exact MILP (paper §4).
 *
 * Formulation (linearized; see DESIGN.md):
 *   integers  n[t][m] in [0, N_t] : #devices of type t hosting
 *                                   variant m  (aggregates x_{d,m})
 *   continuous w[t][m] >= 0       : QPS of family(m) served by those
 *                                   devices   (aggregates z_{d,q})
 *   rows  sum_m n[t][m] <= N_t                (Eq. 1, hosting)
 *         w[t][m] <= P[t][m] * n[t][m]        (Eq. 5, capacity)
 *         sum_{t,m in f} w[t][m] = s_f        (Eq. 6, meet demand)
 *   obj   max sum A_m * w[t][m] - eps * n     (effective accuracy;
 *                                              eps breaks ties toward
 *                                              fewer hosted replicas)
 *
 * Devices of one hardware type are interchangeable, so the
 * aggregation is exact; the integer counts are expanded onto concrete
 * devices with a churn-minimizing matching. If the demand is
 * infeasible even with the least accurate variants, s is scaled down
 * by beta (default 1.05) until feasible, as in §4 ("we solve the MILP
 * again by decreasing s_q by a small value").
 */

#ifndef PROTEUS_CORE_ILP_ALLOCATOR_H_
#define PROTEUS_CORE_ILP_ALLOCATOR_H_

#include <functional>
#include <optional>
#include <vector>

#include "cluster/device.h"
#include "common/types.h"
#include "core/allocation.h"
#include "models/model.h"
#include "models/profiler.h"
#include "solver/milp.h"

namespace proteus {

/** Configuration of the MILP allocator and its ablations (§6.5). */
struct IlpAllocatorOptions {
    /** Demand scale-down factor per infeasibility step (artifact: 1.05). */
    double backoff_beta = 1.05;
    /**
     * Capacity headroom: the MILP provisions for demand times this
     * factor so estimate lag and arrival noise between control
     * periods do not immediately overload workers. Routing weights
     * are still computed against the raw demand (never shedding just
     * because the slack target is infeasible).
     */
    double planning_headroom = 1.0;
    /** Maximum backoff steps before giving up (serving fraction ~0). */
    int max_backoff_steps = 200;
    /**
     * Ablation "w/o MS": only the most accurate variant of each
     * family may be selected (placement/assignment still optimal).
     */
    bool fix_most_accurate = false;
    /**
     * Ablation "w/o QA": replace the optimal query assignment with a
     * uniform split across the devices hosting each family.
     */
    bool uniform_assignment = false;
    /** Simulated decision latency (paper §6.8: mean MILP time 4.2 s). */
    Duration decision_delay = seconds(4.2);
    /**
     * Deterministic work budget per MILP solve, in total simplex
     * iterations. When the budget binds, the truncated solve returns
     * the same incumbent regardless of machine load. 0 disables.
     */
    std::int64_t milp_work_budget = 2000000;
    /**
     * Wall-clock backstop per MILP solve. Generous by default so the
     * work budget binds first and truncation stays deterministic.
     */
    double milp_time_limit_sec = 10.0;
    /**
     * Relative optimality gap for the MILP. The default certifies the
     * plan within 0.5% of the optimum; the LP-rounding + local-search
     * warm start typically reaches that immediately, keeping control
     * decisions fast (paper §6.8 reports 4.2 s mean solve time).
     */
    double milp_gap = 5e-3;
    /**
     * Keep the currently-applied hosting when it is feasible for the
     * new demand and within this relative objective sliver of the
     * fresh optimum. Avoids model-swap churn (load delays, transient
     * violations) for negligible accuracy gains. 0 disables.
     */
    double keep_plan_hysteresis = 3e-3;
    /**
     * Churn damping: hosting a variant a device already runs earns a
     * bonus equal to the accuracy-weighted capacity that a reload
     * would forfeit (P x 100 x load_time / control period), scaled by
     * this factor. 0 disables. Keeps near-equivalent optima from
     * oscillating and swapping dozens of models every period.
     */
    double churn_damping = 1.0;
    /** Control period used to amortize the swap cost (seconds). */
    double churn_period_sec = 30.0;
    /**
     * Model load time per (device type, variant), used to price the
     * churn damping. Unset = a flat 0.3 s estimate.
     */
    std::function<Duration(DeviceTypeId, VariantId)> load_time_fn;
    /**
     * Fairness extension (paper §7, future work): weight on the worst
     * per-family effective accuracy. 0 keeps the paper's pure
     * system-level objective; larger values trade total effective
     * accuracy for a higher per-family floor. Implemented exactly in
     * the MILP: a floor variable t with one row
     * `sum_{type,m in f} A_m w >= t * s_f` per demanded family and
     * `+ weight * total_demand * t` added to the objective.
     * Disables the warm-start local search and plan hysteresis (their
     * exact evaluation covers only the paper objective).
     */
    double fairness_weight = 0.0;
    /**
     * Restrict the selectable variants (Clipper-HT/HA use this to pin
     * one variant per family). Empty = all variants allowed.
     */
    std::function<bool(VariantId)> variant_filter;
    /**
     * Frozen model placement (Sommelier / "w/o MP"): quota[t][f]
     * limits how many type-t devices may host family f. Empty =
     * unconstrained.
     */
    std::vector<std::vector<int>> family_quota;
    /**
     * With frozen placement: which family each device is bound to
     * (expansion will not host another family's variant there).
     */
    std::vector<std::optional<FamilyId>> device_family_lock;
};

/** Exact-MILP allocator (the Proteus resource manager). */
class IlpAllocator : public Allocator
{
  public:
    IlpAllocator(const ModelRegistry* registry, const Cluster* cluster,
                 const ProfileStore* profiles,
                 IlpAllocatorOptions options = {});

    Allocation allocate(const AllocationInput& input) override;

    Duration decisionDelay() const override
    {
        return options_.decision_delay;
    }

    const char* name() const override { return "proteus-ilp"; }

    /** Statistics of the most recent allocate() call. */
    struct SolveStats {
        double solve_seconds = 0.0;
        std::int64_t nodes = 0;
        /** Simplex iterations over every LP relaxation solved. */
        std::int64_t simplex_iters = 0;
        /** LP relaxations solved by the MILP (nodes + heuristics). */
        std::int64_t lp_solves = 0;
        /** Final MILP incumbent/bound gap of the accepted solve. */
        double gap = 0.0;
        int backoff_steps = 0;
        double served_fraction = 1.0;
    };

    /** @return stats of the last allocate() call. */
    const SolveStats& lastStats() const { return stats_; }

    AllocatorSolveMeta
    lastSolveMeta() const override
    {
        AllocatorSolveMeta meta;
        meta.wall_seconds = stats_.solve_seconds;
        meta.nodes = stats_.nodes;
        meta.simplex_iterations = stats_.simplex_iters;
        meta.gap = stats_.gap;
        meta.backoff_steps = stats_.backoff_steps;
        meta.work_budget = options_.milp_work_budget;
        return meta;
    }

  private:
    /** Aggregated solution: devices-per-(type, variant) plus QPS. */
    struct TypeSolution {
        std::vector<std::vector<int>> count;     ///< [type][variant]
        std::vector<std::vector<double>> qps;    ///< [type][variant]
        double objective = 0.0;
        bool feasible = false;
        std::int64_t nodes = 0;
        std::int64_t simplex_iters = 0;          ///< summed LP work
        std::int64_t lp_solves = 0;              ///< MILP LP solves
        double gap = 0.0;                        ///< final MILP gap
    };

    TypeSolution solveAggregated(
        const std::vector<double>& demand,
        const std::vector<std::vector<int>>* current_counts);

    Allocation expand(const TypeSolution& sol,
                      const std::vector<double>& demand,
                      const std::vector<double>& original_demand,
                      const Allocation* current) const;

    /** Devices of type @p t not masked out by the failure mask. */
    int availableOfType(DeviceTypeId t) const;

    /** Ids of available (not down) devices of type @p t. */
    std::vector<DeviceId> availableDevicesOfType(DeviceTypeId t) const;

  protected:
    /** Mutable options access for baseline subclasses (Sommelier). */
    IlpAllocatorOptions& mutableOptions() { return options_; }

    const ModelRegistry* registry_;
    const Cluster* cluster_;
    const ProfileStore* profiles_;

  private:
    IlpAllocatorOptions options_;
    SolveStats stats_;
    /** Failure mask of the allocate() call in progress (may be null). */
    const std::vector<char>* down_ = nullptr;
};

/**
 * Build the per-device binary MILP of §4 verbatim (x_{d,m} booleans),
 * used by the Fig. 10 scalability study and by tests that cross-check
 * the aggregated formulation. The returned LP's variable layout is
 * x[d * M + m] followed by w[d * M + m].
 */
LinearProgram buildPerDeviceMilp(const ModelRegistry& registry,
                                 const Cluster& cluster,
                                 const ProfileStore& profiles,
                                 const std::vector<double>& demand_qps);

}  // namespace proteus

#endif  // PROTEUS_CORE_ILP_ALLOCATOR_H_

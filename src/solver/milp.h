/**
 * @file
 * Branch-and-bound solver for mixed-integer linear programs.
 *
 * Best-first search over LP relaxations solved by SimplexSolver, with
 * most-fractional branching and a rounding-and-repair primal heuristic
 * that produces incumbents early. Supports relative gap, node and
 * wall-clock limits; within the limits the returned solution is
 * globally optimal, matching the paper's use of an exact MILP
 * (§4, "Solving the MILP").
 */

#ifndef PROTEUS_SOLVER_MILP_H_
#define PROTEUS_SOLVER_MILP_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "solver/lp.h"
#include "solver/simplex.h"

namespace proteus {

/** Exact MILP solver (branch & bound over simplex relaxations). */
class MilpSolver
{
  public:
    /** Tunables; defaults mirror the paper's solver budget. */
    struct Options {
        /** Integrality tolerance on relaxation values. */
        double int_tol = 1e-6;
        /** Relative optimality gap at which search stops. */
        double gap_tol = 1e-6;
        /** Hard cap on branch-and-bound nodes. */
        std::int64_t max_nodes = 1000000;
        /**
         * Deterministic work budget: total simplex iterations across
         * all LP solves; 0 disables the limit. Unlike time_limit_sec
         * this counts machine-independent work, so a truncated solve
         * returns the same incumbent regardless of machine load.
         */
        std::int64_t work_limit_iters = 0;
        /**
         * Wall-clock budget in seconds; 0 disables the limit. The
         * paper caps Gurobi at 60 s (§6.8). Kept as a backstop behind
         * work_limit_iters — the one sanctioned nondeterministic
         * truncation (DESIGN.md, "Static analysis").
         */
        double time_limit_sec = 60.0;
        /** Run the rounding heuristic every this many nodes. */
        int heuristic_period = 16;
        /** Options forwarded to the LP relaxation solver. */
        SimplexSolver::Options lp;
    };

    /**
     * Instrumentation of the most recent solve() call, feeding the
     * observability layer's solver spans (DESIGN.md,
     * "Observability"): where a slow solve spent its effort.
     */
    struct Stats {
        /** Branch-and-bound nodes expanded. */
        std::int64_t nodes = 0;
        /** LP relaxations solved (nodes + heuristic solves). */
        std::int64_t lp_solves = 0;
        /** Simplex iterations summed over all LP solves. */
        std::int64_t simplex_iterations = 0;
        /** Incumbents accepted (warm start, heuristics, search). */
        int incumbents = 0;
        /** Final relative incumbent/dual-bound gap (0 when proven). */
        double gap = 0.0;
        /** Wall-clock time of the solve in seconds. */
        double wall_seconds = 0.0;
    };

    /**
     * Builds a warm-start assignment from the root LP relaxation (an
     * Optimal solution of the LP under the root bounds and
     * Options::lp). An empty result means "no hint".
     */
    using HintBuilder =
        std::function<std::vector<double>(const Solution& root)>;

    MilpSolver() : options_() {}

    explicit MilpSolver(const Options& options) : options_(options) {}

    /** @return instrumentation of the most recent solve(). */
    const Stats& lastStats() const { return stats_; }

    /**
     * Solve @p lp to proven optimality (within the configured gap)
     * or until a limit is hit.
     *
     * @param hint optional warm-start builder. The root relaxation is
     *        solved once, as node 1; when it is Optimal it is handed
     *        to @p hint before node 1 is pruned or branched. A
     *        returned assignment that is feasible and integral seeds
     *        the incumbent, letting best-first search prune at once
     *        (the Proteus allocator builds an LP-rounding and
     *        local-search repair solution here). The time limit
     *        covers building the hint.
     *
     * Solution::work reports branch-and-bound nodes; Solution::bound
     * reports the best proven dual bound in the model's sense.
     */
    Solution solve(const LinearProgram& lp,
                   const HintBuilder& hint = nullptr);

  private:
    Options options_;
    Stats stats_;
};

}  // namespace proteus

#endif  // PROTEUS_SOLVER_MILP_H_

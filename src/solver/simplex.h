/**
 * @file
 * Two-phase primal simplex for linear programs with bounded variables.
 *
 * The implementation keeps a dense tableau (B^-1 A) with an explicit
 * reduced-cost row, supports variables with arbitrary finite lower
 * bounds and finite-or-infinite upper bounds, performs bound flips for
 * nonbasic variables, and falls back from Dantzig pricing to Bland's
 * rule when it detects stalling, which guarantees termination.
 *
 * Phase 1 introduces artificial variables only for rows whose initial
 * slack value violates the slack bounds, then minimizes their sum.
 *
 * IncrementalSimplex keeps that tableau alive across a sequence of
 * solves of one LP that differ only in column bounds (branch & bound
 * nodes and heuristic probes): the first solve is the cold two-phase
 * solve, every later one starts from the previous optimal basis and
 * restores primal feasibility by a bounded dual simplex.
 *
 * Problem sizes in Proteus (hundreds of rows/columns for the
 * device-type aggregated allocation MILP, a few thousand for the
 * Fig. 10 stress formulations) are well within dense-tableau range.
 */

#ifndef PROTEUS_SOLVER_SIMPLEX_H_
#define PROTEUS_SOLVER_SIMPLEX_H_

#include <memory>
#include <utility>
#include <vector>

#include "solver/lp.h"

namespace proteus {

/** Bounded-variable two-phase primal simplex solver. */
class SimplexSolver
{
  public:
    /** Debug switches; the tolerances are fixed in simplex.cc. */
    struct Options {
        /**
         * Verify the tableau invariants (A x = b, bounds) after every
         * iteration and a dual certificate at every optimum.
         * Extremely slow; intended for tests/debugging.
         */
        bool paranoid = false;
    };

    SimplexSolver() : options_() {}

    explicit SimplexSolver(const Options& options) : options_(options) {}

    /**
     * Solve @p lp, ignoring integrality restrictions.
     *
     * @param lp the problem; integer markers are treated as continuous.
     * @param bound_override optional per-column (lo, hi) replacing the
     *        model bounds — used by branch & bound. Must have size
     *        lp.numVariables() when provided.
     */
    Solution solve(const LinearProgram& lp,
                   const std::vector<std::pair<double, double>>*
                       bound_override = nullptr);

  private:
    Options options_;
};

class SimplexTableau;

/**
 * One LP re-solved under changing column bounds on a single live
 * tableau (DESIGN.md, "MILP solver path").
 *
 * The first solve() is SimplexSolver::solve's cold two-phase solve,
 * bit for bit. Each later solve() writes the new bounds, moves every
 * nonbasic column to the bound its reduced cost calls for (so the
 * basis stays dual feasible), recomputes the basic values from a
 * B^-1 b column the pivots keep up to date, and runs a bounded dual
 * simplex, then a primal pass if tolerance drift left a reduced cost
 * with the wrong sign. When the previous solve left no optimal basis,
 * a nonbasic column would have to sit at an infinite bound, or the
 * result fails its check against the model (an optimum must satisfy
 * the rows and bounds, an infeasible row must be a Farkas
 * certificate), the solve is cold again and its tableau becomes the
 * live one.
 *
 * Solution::work counts this solve's iterations, dual ones and those
 * of a discarded re-solve included.
 * @p lp must outlive the object and stay unchanged apart from the
 * bounds passed in.
 */
class IncrementalSimplex
{
  public:
    explicit IncrementalSimplex(const LinearProgram& lp,
                                const SimplexSolver::Options& options = {});
    ~IncrementalSimplex();

    IncrementalSimplex(const IncrementalSimplex&) = delete;
    IncrementalSimplex& operator=(const IncrementalSimplex&) = delete;

    /**
     * Solve the LP under per-column (lo, hi) @p bounds, which replace
     * the model bounds; size lp.numVariables().
     */
    Solution solve(const std::vector<std::pair<double, double>>& bounds);

  private:
    const LinearProgram& lp_;
    SimplexSolver::Options options_;
    std::unique_ptr<SimplexTableau> live_;
};

}  // namespace proteus

#endif  // PROTEUS_SOLVER_SIMPLEX_H_

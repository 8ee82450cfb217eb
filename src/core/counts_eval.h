/**
 * @file
 * Exact evaluation of a fixed integer hosting plan, shared by the MILP
 * allocator's warm-start hint and keep-plan hysteresis. Internal to
 * src/core/ilp_allocator.cc (and its tests); not a public interface.
 *
 * Given per-(type, variant) device counts, the optimal served-QPS
 * assignment fills each family's demand onto its highest-accuracy
 * hosted capacity first (the only coupling across families is the
 * hosting budget, which the counts already satisfy). The objective is
 * the accuracy-weighted served sum minus the replica tie-penalty plus
 * the churn-damping keep bonus, and the plan is infeasible when some
 * family's capacity cannot cover its demand.
 */

#ifndef PROTEUS_CORE_COUNTS_EVAL_H_
#define PROTEUS_CORE_COUNTS_EVAL_H_

#include <cstddef>
#include <utility>
#include <vector>

#include "common/types.h"
#include "models/model.h"
#include "models/profiler.h"

namespace proteus::detail {

/** Objective and feasibility of a fixed counts plan. */
struct CountsEval {
    bool feasible = false;
    double objective = 0.0;
};

/** What an evaluation needs besides the counts and the demand. */
struct CountsContext {
    const ModelRegistry* registry;
    const ProfileStore* profiles;
    double replica_penalty;
    /** Variants of family f sorted by accuracy descending. */
    std::vector<std::vector<VariantId>> by_acc_desc;
    /** Churn damping (may be null): bonus and current counts. */
    const std::vector<std::vector<double>>* keep_bonus = nullptr;
    const std::vector<std::vector<int>>* cur_counts = nullptr;
};

/** Fill @p ctx's by_acc_desc from its registry. */
void sortVariantsByAccuracy(CountsContext* ctx);

/** Reference evaluation: every family scored from scratch. */
CountsEval evalCounts(const CountsContext& ctx,
                      const std::vector<std::vector<int>>& count,
                      const std::vector<double>& demand);

/** Greedy served-QPS assignment for fixed counts (highest acc first). */
std::vector<std::vector<double>> greedyFill(
    const CountsContext& ctx, const std::vector<std::vector<int>>& count,
    const std::vector<double>& demand);

/**
 * evalCounts for a local search that moves one device at a time. It
 * keeps each family's value and feasibility and the replica count; a
 * move re-scores only the (at most two) families it touches and then
 * re-sums the cached terms in evalCounts' order, so every objective
 * is bit-identical to evalCounts on the same counts.
 *
 * Each tryMove() must be followed by accept() or reject(). The context
 * and the demand are held by reference and must outlive the object.
 */
class CachedCounts
{
  public:
    CachedCounts(const CountsContext& ctx,
                 std::vector<std::vector<int>> count,
                 const std::vector<double>& demand);

    /** @return the current counts ([type][variant]). */
    const std::vector<std::vector<int>>& count() const { return count_; }

    /** @return the evaluation of count(). */
    const CountsEval& eval() const { return eval_; }

    /**
     * Move one type-@p t device from variant @p src, or from the idle
     * budget when @p src < 0, to variant @p dst.
     * @return the evaluation of the moved counts.
     */
    CountsEval tryMove(std::size_t t, int src, std::size_t dst);

    /** Keep the last move. */
    void accept() { eval_ = moved_; }

    /** Undo the last move. */
    void reject();

  private:
    void rescore(FamilyId f);
    CountsEval sum() const;

    const CountsContext& ctx_;
    const std::vector<double>& demand_;
    std::vector<std::vector<int>> count_;
    std::vector<double> value_;  ///< per-family familyValue
    std::vector<char> ok_;       ///< per-family feasibility
    int replicas_ = 0;
    /** (type, variant) cells that can earn a keep bonus. */
    std::vector<std::pair<std::size_t, std::size_t>> keep_cells_;
    CountsEval eval_;

    // The last move and the family terms it overwrote.
    std::size_t move_t_ = 0;
    int move_src_ = -1;
    std::size_t move_dst_ = 0;
    CountsEval moved_;
    struct Saved {
        FamilyId f;
        double value;
        char ok;
    };
    Saved saved_[2] = {};
    int n_saved_ = 0;
};

}  // namespace proteus::detail

#endif  // PROTEUS_CORE_COUNTS_EVAL_H_

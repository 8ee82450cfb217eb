#include "solver/simplex.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/logging.h"

namespace proteus {

namespace {

/** Reduced-cost optimality tolerance. */
constexpr double kOptTol = 1e-7;
/** Primal feasibility tolerance. */
constexpr double kFeasTol = 1e-7;
/** Smallest acceptable pivot magnitude. */
constexpr double kPivotTol = 1e-9;
/** Hard cap on simplex iterations of one solve (all phases). */
constexpr std::int64_t kMaxIters = 500000;
/**
 * Re-solve pivots zero an updated tableau entry below this fraction
 * of its old value (of 1 when the old value is smaller): it is
 * cancellation residue. A tableau that lives for thousands of pivots
 * would otherwise fill with it, and residue times residue sinks into
 * the subnormal range, where every multiply is ~100x slower.
 */
constexpr double kCancelTol = 1e-12;
/** Tolerance of the checks a re-solve's result must pass. */
constexpr double kVerifyTol = 1e-6;
/** Relative size below which a Farkas coefficient is rounding noise. */
constexpr double kFarkasNoise = 1e-11;
/** Paranoid dual-certificate tolerance on reduced costs and bounds. */
constexpr double kCertTol = 1e-6;

using Bounds = std::vector<std::pair<double, double>>;

}  // namespace

/**
 * Tableau state of one LP. Columns are laid out as
 * [structural | slacks | artificials]; rows are the constraints in
 * model order with a uniform "A x + s = rhs" form. The slack columns
 * of the tableau are B^-1 itself, and beta_ = B^-1 rhs rides along
 * every pivot, so the basic values can be recomputed for any
 * nonbasic assignment without refactorizing.
 */
class SimplexTableau
{
  public:
    SimplexTableau(const LinearProgram& lp, const Bounds* bound_override,
                   const SimplexSolver::Options& options);

    /** Run phase 1 (if needed) and phase 2. */
    Solution run();

    /**
     * Re-solve under new structural @p bounds from the current basis
     * by bounded dual simplex. @return false when no dual-feasible
     * start exists or the result fails its check against the model
     * (the caller solves cold); out->work then holds the iterations
     * spent.
     */
    bool resolve(const Bounds& bounds, Solution* out);

  private:
    double& at(int i, int j) { return tab_[static_cast<std::size_t>(i) *
                                            stride_ + j]; }
    double get(int i, int j) const
    {
        return tab_[static_cast<std::size_t>(i) * stride_ + j];
    }

    bool isFixed(int j) const { return hi_[j] - lo_[j] < 1e-15; }

    /** Value a nonbasic column currently sits at. */
    double
    nonbasicValue(int j) const
    {
        return nb_at_upper_[j] ? hi_[j] : lo_[j];
    }

    void buildInitialBasis();
    void computeReducedCosts();

    enum class IterResult {
        Progress, Optimal, Unbounded, Infeasible, Stalled
    };
    IterResult iterate(bool bland);
    IterResult dualIterate(bool bland);

    /**
     * Pivot (leave_row, enter): scale the pivot row and eliminate the
     * entering column from every other row, the reduced-cost row and
     * beta_. The caller updates the basis bookkeeping and xb_.
     */
    void eliminate(int leave_row, int enter);

    /** Recompute xb_ = beta_ - B^-1 N x_N for the nonbasic values. */
    void recomputeBasics();

    /** Squared norm of row @p i of B^-1 (a dual steepest-edge weight). */
    double binvRowNorm2(int i) const;

    /** True when no nonbasic reduced cost has the wrong sign. */
    bool dualFeasible() const;

    /** True when @p x satisfies the model's rows and the bounds. */
    bool primalFeasible(const std::vector<double>& x) const;

    /**
     * True when tableau row @p r, recomputed as a combination of the
     * model's rows, proves the current bounds infeasible (a Farkas
     * certificate).
     */
    bool provesInfeasible(int r);

    /**
     * Paranoid invariant check: A x + s = b, nonbasic columns at a
     * bound, and (unless @p basics_may_violate, as mid dual simplex)
     * basic columns inside their bounds.
     */
    void checkInvariants(const char* where,
                         bool basics_may_violate = false) const;

    /**
     * Paranoid optimality check: reduced costs recomputed from the
     * model and y' = c_B' B^-1 give every nonbasic column the sign its
     * bound allows, and every basic value is inside its bounds.
     */
    void checkCertificate() const;

    /** Run primal simplex to optimality on the current objective. */
    SolveStatus optimize();
    /**
     * Iterate primal (or, with @p dual, dual) simplex until it stops,
     * falling back to Bland's rule on stalls.
     */
    SolveStatus pivotLoop(bool dual);

    /** Fill @p out for a solve that ended in @p status. */
    void finish(SolveStatus status, Solution* out);
    void extractSolution(Solution* out) const;

    const LinearProgram& lp_;
    const SimplexSolver::Options& opt_;

    int m_;                  ///< number of rows
    int n_struct_;           ///< structural columns
    int n_;                  ///< total columns (struct + slack + artif)
    int stride_;             ///< row stride of the tableau

    std::vector<double> tab_;       ///< m x n dense tableau
    std::vector<double> rhs0_;      ///< original rhs per row
    std::vector<double> cost_;      ///< current objective (maximize)
    std::vector<double> cost2_;     ///< phase-2 objective (maximize)
    std::vector<double> lo_, hi_;   ///< per-column bounds
    std::vector<int> basis_;        ///< basic column per row
    std::vector<int> pos_in_basis_; ///< row of basic col, -1 if nonbasic
    std::vector<char> nb_at_upper_; ///< nonbasic at upper bound?
    std::vector<double> xb_;        ///< values of basic variables
    std::vector<double> d_;         ///< reduced costs
    std::vector<double> beta_;      ///< B^-1 rhs
    std::vector<int> nz_cols_;      ///< pivot-row nonzeros (scratch)
    /** Dual ratio-test candidates (column, ratio) (scratch). */
    std::vector<std::pair<int, double>> ratio_cands_;
    std::vector<double> farkas_;    ///< y' [A | I] (scratch)
    /**
     * Dual steepest-edge weights, binvRowNorm2 per row: computed at
     * the first re-solve, refreshed for every row a re-solve pivot
     * changes.
     */
    std::vector<double> dse_w_;
    int infeasible_row_ = -1;       ///< row the dual could not repair
    /** Nonbasic columns at a nonzero value (recomputeBasics scratch). */
    std::vector<std::pair<int, double>> nb_nonzero_;

    std::int64_t iters_ = 0;        ///< iterations of the current solve
    int n_artificial_ = 0;
    std::vector<double> artif_coeff_;  ///< original artificial columns
    /**
     * The basis is a dual-feasible phase-2 basis resolve() may use;
     * set once the cold solve has finished.
     */
    bool warmable_ = false;
};

namespace {

/** @return true when some (lo, hi) pair is empty. */
bool
anyEmptyBox(const Bounds& bounds)
{
    for (const auto& [lo, hi] : bounds) {
        if (lo > hi + 1e-12)
            return true;
    }
    return false;
}

}  // namespace

SimplexTableau::SimplexTableau(const LinearProgram& lp,
                               const Bounds* bound_override,
                               const SimplexSolver::Options& options)
    : lp_(lp), opt_(options)
{
    m_ = lp.numConstraints();
    n_struct_ = lp.numVariables();

    const double sign = lp.objSense() == ObjSense::Maximize ? 1.0 : -1.0;

    // Bounds and phase-2 costs for structural columns.
    lo_.reserve(n_struct_ + m_);
    hi_.reserve(n_struct_ + m_);
    cost2_.reserve(n_struct_ + m_);
    for (int j = 0; j < n_struct_; ++j) {
        double lo = lp.variable(j).lo;
        double hi = lp.variable(j).hi;
        if (bound_override) {
            lo = (*bound_override)[j].first;
            hi = (*bound_override)[j].second;
        }
        lo_.push_back(lo);
        hi_.push_back(hi);
        cost2_.push_back(sign * lp.variable(j).obj);
    }
    // Slack columns: one per row; bounds encode the row sense.
    for (int i = 0; i < m_; ++i) {
        switch (lp.row(i).sense) {
          case RowSense::LessEqual:
            lo_.push_back(0.0);
            hi_.push_back(kInf);
            break;
          case RowSense::Equal:
            lo_.push_back(0.0);
            hi_.push_back(0.0);
            break;
          case RowSense::GreaterEqual:
            // s <= 0, unbounded below. Nonbasic position is the upper
            // bound (0); the -inf side never hosts a nonbasic var.
            lo_.push_back(-kInf);
            hi_.push_back(0.0);
            break;
        }
        cost2_.push_back(0.0);
    }
}

void
SimplexTableau::buildInitialBasis()
{
    // Start every structural column nonbasic at a finite bound.
    // Compute the implied slack values; rows whose slack violates its
    // bounds get an artificial column that absorbs the residual.
    const int n_slack_end = n_struct_ + m_;
    std::vector<double> x0(n_slack_end, 0.0);
    for (int j = 0; j < n_struct_; ++j) {
        PROTEUS_ASSERT(std::isfinite(lo_[j]),
                       "structural variables need finite lower bounds");
        x0[j] = lo_[j];
    }

    std::vector<double> slack_val(m_);
    rhs0_.resize(m_);
    for (int i = 0; i < m_; ++i) {
        double ax = 0.0;
        for (const auto& [col, coef] : lp_.row(i).coeffs)
            ax += coef * x0[col];
        rhs0_[i] = lp_.row(i).rhs;
        slack_val[i] = rhs0_[i] - ax;
    }

    // Decide which rows need artificials.
    std::vector<int> artif_row;
    std::vector<double> artif_sign;
    std::vector<double> slack_start(m_);
    for (int i = 0; i < m_; ++i) {
        const int sj = n_struct_ + i;
        if (slack_val[i] >= lo_[sj] - kFeasTol &&
            slack_val[i] <= hi_[sj] + kFeasTol) {
            slack_start[i] = slack_val[i];
            continue;  // slack can be basic and feasible
        }
        // Park the slack at its nearest bound; artificial holds the rest.
        double parked = slack_val[i] > hi_[sj] ? hi_[sj] : lo_[sj];
        PROTEUS_ASSERT(std::isfinite(parked),
                       "slack of an infeasible row has no finite bound");
        slack_start[i] = parked;
        artif_row.push_back(i);
        artif_sign.push_back(slack_val[i] > parked ? 1.0 : -1.0);
    }
    n_artificial_ = static_cast<int>(artif_row.size());
    n_ = n_slack_end + n_artificial_;
    stride_ = n_;
    nz_cols_.resize(static_cast<std::size_t>(n_));
    ratio_cands_.reserve(static_cast<std::size_t>(n_));

    for (int k = 0; k < n_artificial_; ++k) {
        lo_.push_back(0.0);
        hi_.push_back(kInf);
        cost2_.push_back(0.0);
    }

    // Dense tableau: structural coefficients, identity slacks, signed
    // identity artificials. The starting basis is one column per row:
    // the slack where feasible, the artificial otherwise.
    tab_.assign(static_cast<std::size_t>(m_) * n_, 0.0);
    for (int i = 0; i < m_; ++i) {
        for (const auto& [col, coef] : lp_.row(i).coeffs)
            at(i, col) += coef;
        at(i, n_struct_ + i) = 1.0;
    }
    for (int k = 0; k < n_artificial_; ++k)
        at(artif_row[k], n_slack_end + k) = artif_sign[k];
    if (opt_.paranoid && n_artificial_ > 0) {
        artif_coeff_.assign(
            static_cast<std::size_t>(m_) * n_artificial_, 0.0);
        for (int k = 0; k < n_artificial_; ++k) {
            artif_coeff_[static_cast<std::size_t>(artif_row[k]) *
                         n_artificial_ + k] = artif_sign[k];
        }
    }

    basis_.assign(m_, -1);
    pos_in_basis_.assign(n_, -1);
    nb_at_upper_.assign(n_, 0);
    xb_.assign(m_, 0.0);
    beta_ = rhs0_;

    for (int j = 0; j < n_struct_; ++j) {
        // Nonbasic at lower bound unless only the upper bound is finite.
        nb_at_upper_[j] = 0;
    }
    std::vector<char> has_artif(m_, 0);
    for (int k = 0; k < n_artificial_; ++k)
        has_artif[artif_row[k]] = 1;

    for (int i = 0; i < m_; ++i) {
        if (!has_artif[i]) {
            basis_[i] = n_struct_ + i;
            xb_[i] = slack_start[i];
            pos_in_basis_[n_struct_ + i] = i;
        }
    }
    for (int k = 0; k < n_artificial_; ++k) {
        int i = artif_row[k];
        int aj = n_slack_end + k;
        // The tableau must hold B^-1 A. With an artificial of
        // coefficient -1 basic in this row, normalize the row so the
        // basic column reads +1.
        if (artif_sign[k] < 0.0) {
            double* row = &tab_[static_cast<std::size_t>(i) * stride_];
            for (int j = 0; j < n_; ++j)
                row[j] = -row[j];
            beta_[i] = -beta_[i];
        }
        basis_[i] = aj;
        // Artificial value: residual after parking the slack, made
        // positive by the sign of its coefficient.
        double resid = slack_val[i] - slack_start[i];
        xb_[i] = resid * artif_sign[k];  // == |resid|
        pos_in_basis_[aj] = i;
        // Slack is nonbasic, parked at the bound chosen above.
        const int sj = n_struct_ + i;
        nb_at_upper_[sj] = (slack_start[i] == hi_[sj] &&
                            std::isfinite(hi_[sj]) && hi_[sj] != lo_[sj])
                           ? 1 : 0;
        if (lo_[sj] == hi_[sj])
            nb_at_upper_[sj] = 0;
    }
}

void
SimplexTableau::computeReducedCosts()
{
    // d_j = c_j - c_B' (B^-1 A_j); with the tableau already equal to
    // B^-1 A, this is a dense dot down each column.
    d_.assign(n_, 0.0);
    std::vector<double> cb(m_);
    bool any_cb = false;
    for (int i = 0; i < m_; ++i) {
        cb[i] = cost_[basis_[i]];
        if (cb[i] != 0.0)
            any_cb = true;
    }
    for (int j = 0; j < n_; ++j)
        d_[j] = cost_[j];
    if (!any_cb)
        return;
    for (int i = 0; i < m_; ++i) {
        if (cb[i] == 0.0)
            continue;
        const double* row = &tab_[static_cast<std::size_t>(i) * stride_];
        for (int j = 0; j < n_; ++j)
            d_[j] -= cb[i] * row[j];
    }
}

void
SimplexTableau::checkInvariants(const char* where,
                                bool basics_may_violate) const
{
    // Assemble the full solution vector (structural + slack + artif).
    std::vector<double> x(n_);
    for (int j = 0; j < n_; ++j) {
        if (pos_in_basis_[j] >= 0)
            x[j] = xb_[pos_in_basis_[j]];
        else
            x[j] = nb_at_upper_[j] ? hi_[j] : lo_[j];
    }
    for (int j = 0; j < n_; ++j) {
        if (basics_may_violate && pos_in_basis_[j] >= 0)
            continue;
        PROTEUS_ASSERT(x[j] >= lo_[j] - 1e-5 && x[j] <= hi_[j] + 1e-5,
                       where, ": column ", j, " value ", x[j],
                       " outside [", lo_[j], ",", hi_[j], "]");
    }
    // Original equality system: structural row coeffs + slack +
    // signed artificial must reproduce the rhs.
    for (int i = 0; i < m_; ++i) {
        double lhs = 0.0;
        for (const auto& [col, coef] : lp_.row(i).coeffs)
            lhs += coef * x[col];
        lhs += x[n_struct_ + i];
        for (int j = n_struct_ + m_; j < n_; ++j) {
            lhs += artif_coeff_[static_cast<std::size_t>(i) *
                                n_artificial_ + (j - n_struct_ - m_)] *
                   x[j];
        }
        PROTEUS_ASSERT(std::abs(lhs - rhs0_[i]) < 1e-5,
                       where, ": row ", i, " lhs ", lhs, " rhs ",
                       rhs0_[i]);
    }
}

SimplexTableau::IterResult
SimplexTableau::iterate(bool bland)
{
    // --- Pricing: pick an entering column. ---
    int enter = -1;
    double best_score = kOptTol;
    double sigma = 1.0;
    for (int j = 0; j < n_; ++j) {
        if (pos_in_basis_[j] >= 0 || isFixed(j))
            continue;
        double dj = d_[j];
        double score;
        double dir;
        if (!nb_at_upper_[j] && dj > kOptTol) {
            score = dj;
            dir = 1.0;
        } else if (nb_at_upper_[j] && dj < -kOptTol) {
            score = -dj;
            dir = -1.0;
        } else {
            continue;
        }
        if (bland) {
            enter = j;
            sigma = dir;
            break;
        }
        if (score > best_score) {
            best_score = score;
            enter = j;
            sigma = dir;
        }
    }
    if (enter < 0)
        return IterResult::Optimal;

    // --- Ratio test. ---
    // Entering variable moves by t >= 0 in direction sigma; basic
    // variable i changes at rate -sigma * T[i][enter].
    double t_limit = hi_[enter] - lo_[enter];  // bound-flip distance
    int leave_row = -1;
    bool leave_to_upper = false;
    double best_pivot_mag = 0.0;

    for (int i = 0; i < m_; ++i) {
        double a = get(i, enter);
        if (std::abs(a) < kPivotTol)
            continue;
        double rate = -sigma * a;
        double allowance;
        bool to_upper;
        if (rate < 0.0) {
            // basic i decreases toward its lower bound
            if (!std::isfinite(lo_[basis_[i]]))
                continue;
            allowance = (xb_[i] - lo_[basis_[i]]) / (-rate);
            to_upper = false;
        } else {
            if (!std::isfinite(hi_[basis_[i]]))
                continue;
            allowance = (hi_[basis_[i]] - xb_[i]) / rate;
            to_upper = true;
        }
        if (allowance < -kFeasTol)
            allowance = 0.0;  // slightly out of bounds: degenerate step
        if (allowance < 0.0)
            allowance = 0.0;
        bool better;
        if (allowance < t_limit - 1e-12) {
            better = true;
        } else if (allowance <= t_limit + 1e-12 && leave_row >= 0) {
            // Tie: prefer larger pivot magnitude (stability), or
            // smallest basis index under Bland's rule.
            if (bland) {
                better = basis_[i] < basis_[leave_row];
            } else {
                better = std::abs(a) > best_pivot_mag;
            }
        } else {
            better = false;
        }
        if (better) {
            t_limit = std::min(t_limit, allowance);
            leave_row = i;
            leave_to_upper = to_upper;
            best_pivot_mag = std::abs(a);
        }
    }

    if (!std::isfinite(t_limit))
        return IterResult::Unbounded;

    if (leave_row < 0) {
        // Pure bound flip: the entering variable runs to its other
        // bound without any basic variable blocking.
        double t = t_limit;
        for (int i = 0; i < m_; ++i) {
            double a = get(i, enter);
            if (a != 0.0)
                xb_[i] += -sigma * a * t;
        }
        nb_at_upper_[enter] = nb_at_upper_[enter] ? 0 : 1;
        return t > 1e-12 ? IterResult::Progress : IterResult::Stalled;
    }

    // --- Pivot on (leave_row, enter). ---
    double t = t_limit;
    double enter_value = nonbasicValue(enter) + sigma * t;
    for (int i = 0; i < m_; ++i) {
        if (i == leave_row)
            continue;
        double a = get(i, enter);
        if (a != 0.0)
            xb_[i] += -sigma * a * t;
    }

    int leave_col = basis_[leave_row];
    // The leaving variable exits exactly at the bound that blocked it.
    nb_at_upper_[leave_col] = leave_to_upper ? 1 : 0;
    if (lo_[leave_col] == hi_[leave_col])
        nb_at_upper_[leave_col] = 0;
    pos_in_basis_[leave_col] = -1;

    eliminate(leave_row, enter);
    basis_[leave_row] = enter;
    pos_in_basis_[enter] = leave_row;
    xb_[leave_row] = enter_value;

    return t > 1e-12 ? IterResult::Progress : IterResult::Stalled;
}

void
SimplexTableau::eliminate(int leave_row, int enter)
{
    // Gaussian elimination on the tableau and the reduced-cost row,
    // over the scaled pivot row's nonzero columns only. A zero column
    // would subtract f * 0, which leaves a nonzero entry bit-for-bit
    // unchanged (at most the sign of a zero differs, and no decision
    // reads that sign), so every pivot stays exactly the same. Only
    // re-solve pivots (the tableau is warmable) drop cancellation
    // residue, so a cold solve pivots exactly as it always has.
    double piv = get(leave_row, enter);
    double* prow = &tab_[static_cast<std::size_t>(leave_row) * stride_];
    double inv = 1.0 / piv;
    // Branch-free collection: nz_cols_ is n_ long, the first nnz hold
    // the nonzero columns in ascending order.
    int* nz = nz_cols_.data();
    int nnz = 0;
    for (int j = 0; j < n_; ++j) {
        prow[j] *= inv;
        nz[nnz] = j;
        nnz += prow[j] != 0.0 ? 1 : 0;
    }
    const int* const nz_end = nz + nnz;
    beta_[leave_row] *= inv;
    const double beta_r = beta_[leave_row];
    for (int i = 0; i < m_; ++i) {
        if (i == leave_row)
            continue;
        double f = get(i, enter);
        if (f == 0.0)
            continue;
        double* row = &tab_[static_cast<std::size_t>(i) * stride_];
        if (warmable_) {
            for (const int* p = nz; p != nz_end; ++p) {
                const double v = row[*p] - f * prow[*p];
                const double floor =
                    kCancelTol * std::max(1.0, std::abs(row[*p]));
                row[*p] = std::abs(v) < floor ? 0.0 : v;
            }
        } else {
            for (const int* p = nz; p != nz_end; ++p)
                row[*p] -= f * prow[*p];
        }
        row[enter] = 0.0;
        beta_[i] -= f * beta_r;
        if (warmable_)
            dse_w_[i] = binvRowNorm2(i);
    }
    if (warmable_)
        dse_w_[leave_row] = binvRowNorm2(leave_row);
    double df = d_[enter];
    if (df != 0.0) {
        for (const int* p = nz; p != nz_end; ++p)
            d_[*p] -= df * prow[*p];
        d_[enter] = 0.0;
    }
}

SimplexTableau::IterResult
SimplexTableau::dualIterate(bool bland)
{
    // --- Leaving row: dual steepest edge, the largest bound
    // violation relative to the norm of its row of B^-1; under Bland's
    // rule the violated row of smallest basic index. ---
    int leave_row = -1;
    double best_score = 0.0;
    for (int i = 0; i < m_; ++i) {
        const int col = basis_[i];
        const double viol = std::max(lo_[col] - xb_[i], xb_[i] - hi_[col]);
        if (viol <= kFeasTol)
            continue;
        const double score = viol * viol / dse_w_[i];
        if (bland ? leave_row < 0 || col < basis_[leave_row]
                  : score > best_score) {
            leave_row = i;
            best_score = score;
        }
    }
    if (leave_row < 0)
        return IterResult::Optimal;  // primal feasible

    // The leaving column exits at the bound it violates; sigma is the
    // direction its value has to move.
    const int leave_col = basis_[leave_row];
    const bool to_lower = xb_[leave_row] < lo_[leave_col];
    const double sigma = to_lower ? 1.0 : -1.0;

    // --- Dual ratio test. Raising nonbasic j by one unit moves the
    // leaving column by -T[r][j]; j qualifies when its feasible
    // direction moves it by sigma. Its ratio |d_j / T[r][j]| is how
    // far the duals can move before d_j changes sign. Harris's two
    // passes: the first finds the longest dual step that keeps every
    // reduced cost within kOptTol of its bound's side, the second
    // enters the largest pivot whose ratio fits in it, because the
    // smallest ratio alone can pick a pivot many orders of magnitude
    // below the row's scale and wreck the tableau. Under Bland's rule
    // the smallest ratio enters, ties to the smallest index. ---
    const double* lrow =
        &tab_[static_cast<std::size_t>(leave_row) * stride_];
    ratio_cands_.clear();
    double max_step = kInf;
    for (int j = 0; j < n_; ++j) {
        const double a = lrow[j];
        if (std::abs(a) < kPivotTol || pos_in_basis_[j] >= 0 || isFixed(j))
            continue;
        const bool at_upper = nb_at_upper_[j] != 0;
        if (at_upper ? sigma * a <= 0.0 : sigma * a >= 0.0)
            continue;
        const double dj = std::max(0.0, at_upper ? d_[j] : -d_[j]);
        ratio_cands_.emplace_back(j, dj / std::abs(a));
        max_step = std::min(max_step, (dj + kOptTol) / std::abs(a));
    }
    if (ratio_cands_.empty()) {
        infeasible_row_ = leave_row;  // the row cannot be repaired
        return IterResult::Infeasible;
    }
    int enter = -1;
    double enter_ratio = kInf;
    double best_pivot_mag = 0.0;
    for (const auto& [j, ratio] : ratio_cands_) {
        const double mag = std::abs(lrow[j]);
        const bool better = bland ? ratio < enter_ratio
                                  : ratio <= max_step && mag > best_pivot_mag;
        if (better) {
            enter = j;
            enter_ratio = ratio;
            best_pivot_mag = mag;
        }
    }

    // --- Pivot: the entering column moves so that the leaving one
    // lands exactly on its violated bound. ---
    const double target = to_lower ? lo_[leave_col] : hi_[leave_col];
    const double step = (xb_[leave_row] - target) / lrow[enter];
    const double enter_value = nonbasicValue(enter) + step;
    for (int i = 0; i < m_; ++i) {
        if (i == leave_row)
            continue;
        const double a = get(i, enter);
        if (a != 0.0)
            xb_[i] -= a * step;
    }
    nb_at_upper_[leave_col] =
        !to_lower && lo_[leave_col] != hi_[leave_col] ? 1 : 0;
    pos_in_basis_[leave_col] = -1;

    eliminate(leave_row, enter);
    basis_[leave_row] = enter;
    pos_in_basis_[enter] = leave_row;
    xb_[leave_row] = enter_value;

    return enter_ratio > 1e-12 ? IterResult::Progress : IterResult::Stalled;
}

double
SimplexTableau::binvRowNorm2(int i) const
{
    const double* binv =
        &tab_[static_cast<std::size_t>(i) * stride_ + n_struct_];
    double w = 0.0;
    for (int k = 0; k < m_; ++k)
        w += binv[k] * binv[k];
    return std::max(w, 1e-12);
}

void
SimplexTableau::recomputeBasics()
{
    nb_nonzero_.clear();
    for (int j = 0; j < n_; ++j) {
        if (pos_in_basis_[j] >= 0)
            continue;
        const double v = nonbasicValue(j);
        if (v != 0.0)
            nb_nonzero_.emplace_back(j, v);
    }
    for (int i = 0; i < m_; ++i) {
        const double* row = &tab_[static_cast<std::size_t>(i) * stride_];
        double v = beta_[i];
        for (const auto& [j, x] : nb_nonzero_)
            v -= row[j] * x;
        xb_[i] = v;
    }
}

bool
SimplexTableau::dualFeasible() const
{
    for (int j = 0; j < n_; ++j) {
        if (pos_in_basis_[j] >= 0 || isFixed(j))
            continue;
        if (nb_at_upper_[j] ? d_[j] < -kOptTol : d_[j] > kOptTol)
            return false;
    }
    return true;
}

void
SimplexTableau::checkCertificate() const
{
    // y' = c_B' B^-1, with B^-1 read off the slack columns.
    std::vector<double> y(m_, 0.0);
    for (int k = 0; k < m_; ++k) {
        const double cb = cost_[basis_[k]];
        if (cb == 0.0)
            continue;
        for (int i = 0; i < m_; ++i)
            y[i] += cb * get(k, n_struct_ + i);
    }
    // d = c - y' M over the original columns [A | I | artificials].
    std::vector<double> d = cost_;
    for (int i = 0; i < m_; ++i) {
        for (const auto& [col, coef] : lp_.row(i).coeffs)
            d[col] -= y[i] * coef;
        d[n_struct_ + i] -= y[i];
        for (int k = 0; k < n_artificial_; ++k) {
            d[n_struct_ + m_ + k] -=
                y[i] * artif_coeff_[static_cast<std::size_t>(i) *
                                    n_artificial_ + k];
        }
    }
    for (int j = 0; j < n_; ++j) {
        if (pos_in_basis_[j] >= 0) {
            const double v = xb_[pos_in_basis_[j]];
            PROTEUS_ASSERT(std::abs(d[j]) <= kCertTol,
                           "certificate: basic column ", j,
                           " reduced cost ", d[j]);
            PROTEUS_ASSERT(v >= lo_[j] - kCertTol && v <= hi_[j] + kCertTol,
                           "certificate: basic column ", j, " value ", v,
                           " outside [", lo_[j], ",", hi_[j], "]");
        } else if (!isFixed(j)) {
            PROTEUS_ASSERT(nb_at_upper_[j] ? d[j] >= -kCertTol
                                           : d[j] <= kCertTol,
                           "certificate: nonbasic column ", j, " at ",
                           nb_at_upper_[j] ? "upper" : "lower",
                           " has reduced cost ", d[j]);
        }
    }
}

SolveStatus
SimplexTableau::optimize()
{
    computeReducedCosts();
    return pivotLoop(false);
}

SolveStatus
SimplexTableau::pivotLoop(bool dual)
{
    int stall = 0;
    bool bland = false;
    while (true) {
        if (++iters_ > kMaxIters)
            return SolveStatus::IterLimit;
        IterResult r = dual ? dualIterate(bland) : iterate(bland);
        if (opt_.paranoid)
            checkInvariants(dual ? "post-dual-iterate" : "post-iterate",
                            dual);
        switch (r) {
          case IterResult::Optimal:
            return SolveStatus::Optimal;
          case IterResult::Unbounded:
            return SolveStatus::Unbounded;
          case IterResult::Infeasible:
            return SolveStatus::Infeasible;
          case IterResult::Progress:
            stall = 0;
            bland = false;
            break;
          case IterResult::Stalled:
            if (++stall > 2 * (m_ + n_))
                bland = true;  // guarantee termination
            break;
        }
    }
}

void
SimplexTableau::finish(SolveStatus status, Solution* out)
{
    out->status = status;
    // An infeasible dual re-solve leaves a dual-feasible basis.
    warmable_ = status == SolveStatus::Optimal ||
                (warmable_ && status == SolveStatus::Infeasible);
    if (status != SolveStatus::Optimal) {
        out->work = iters_;
        return;
    }
    if (opt_.paranoid)
        checkCertificate();
    extractSolution(out);
}

bool
SimplexTableau::resolve(const Bounds& bounds, Solution* out)
{
    if (!warmable_)
        return false;
    for (int j = 0; j < n_struct_; ++j) {
        lo_[j] = bounds[j].first;
        hi_[j] = bounds[j].second;
    }
    // Park each nonbasic column at the bound its reduced cost calls
    // for: at lower when d_j < 0, at upper when d_j > 0 (maximizing).
    // Only bounds change between solves, so the reduced costs and
    // with them dual feasibility carry over; a column whose required
    // bound is infinite has no dual-feasible position.
    for (int j = 0; j < n_; ++j) {
        if (pos_in_basis_[j] >= 0)
            continue;
        bool upper;
        if (isFixed(j))
            upper = false;
        else if (d_[j] > kOptTol)
            upper = true;
        else if (d_[j] < -kOptTol)
            upper = false;
        else
            upper = nb_at_upper_[j] ? std::isfinite(hi_[j])
                                    : !std::isfinite(lo_[j]);
        if (!std::isfinite(upper ? hi_[j] : lo_[j])) {
            warmable_ = false;
            return false;
        }
        nb_at_upper_[j] = upper ? 1 : 0;
    }
    if (dse_w_.empty()) {
        dse_w_.resize(static_cast<std::size_t>(m_));
        for (int i = 0; i < m_; ++i)
            dse_w_[i] = binvRowNorm2(i);
    }
    iters_ = 0;
    recomputeBasics();
    SolveStatus status = pivotLoop(true);
    // Tolerance drift can leave a reduced cost on the wrong side;
    // the primal pass from this (primal-feasible) basis repairs it.
    if (status == SolveStatus::Optimal && !dualFeasible())
        status = pivotLoop(false);
    // Trust only what the model's own data confirms: an optimum must
    // be primal feasible, an unrepairable row must prove the bounds
    // infeasible. Anything else means the tableau has drifted from
    // B^-1 [A | I], and the caller solves cold, which also replaces
    // this tableau.
    bool trusted = false;
    if (status == SolveStatus::Optimal) {
        extractSolution(out);
        trusted = primalFeasible(out->x);
    } else if (status == SolveStatus::Infeasible) {
        trusted = provesInfeasible(infeasible_row_);
    }
    if (!trusted) {
        warmable_ = false;
        out->work = iters_;
        return false;
    }
    finish(status, out);
    return true;
}

bool
SimplexTableau::primalFeasible(const std::vector<double>& x) const
{
    for (int j = 0; j < n_struct_; ++j) {
        if (x[j] < lo_[j] - kVerifyTol || x[j] > hi_[j] + kVerifyTol)
            return false;
    }
    return lp_.isFeasible(x, kVerifyTol);
}

bool
SimplexTableau::provesInfeasible(int r)
{
    // With y' = row r of B^-1 (the slack columns of tableau row r),
    // every x with A x + s = rhs satisfies g' x = y' rhs for
    // g' = y' [A | I]. The row proves infeasibility when y' rhs lies
    // outside the range g' x takes over the bounds. Artificial
    // columns are fixed at zero and add nothing.
    const double* row = &tab_[static_cast<std::size_t>(r) * stride_];
    farkas_.assign(static_cast<std::size_t>(n_struct_ + m_), 0.0);
    double yb = 0.0;
    for (int i = 0; i < m_; ++i) {
        const double y = row[n_struct_ + i];
        if (y == 0.0)
            continue;
        yb += y * rhs0_[i];
        for (const auto& [col, coef] : lp_.row(i).coeffs)
            farkas_[col] += y * coef;
        farkas_[n_struct_ + i] += y;
    }
    double scale = 0.0;
    for (double g : farkas_)
        scale = std::max(scale, std::abs(g));
    // Entries this far below the largest are rounding noise of
    // columns y' [A | I] cancels exactly (the other basic columns).
    const double noise = kFarkasNoise * scale;
    double lo_sum = 0.0;
    double hi_sum = 0.0;
    for (int j = 0; j < n_struct_ + m_; ++j) {
        const double g = farkas_[j];
        if (std::abs(g) <= noise)
            continue;
        lo_sum += g > 0.0 ? g * lo_[j] : g * hi_[j];
        hi_sum += g > 0.0 ? g * hi_[j] : g * lo_[j];
    }
    const double tol = kVerifyTol * (1.0 + std::abs(yb));
    return yb > hi_sum + tol || yb < lo_sum - tol;
}

void
SimplexTableau::extractSolution(Solution* out) const
{
    out->x.assign(n_struct_, 0.0);
    for (int j = 0; j < n_struct_; ++j) {
        if (pos_in_basis_[j] >= 0)
            out->x[j] = xb_[pos_in_basis_[j]];
        else
            out->x[j] = nonbasicValue(j);
        // Clean tiny numerical dust.
        if (std::abs(out->x[j]) < 1e-11)
            out->x[j] = 0.0;
    }
    out->objective = lp_.objectiveValue(out->x);
    out->work = iters_;
}

Solution
SimplexTableau::run()
{
    Solution out;
    buildInitialBasis();

    if (n_artificial_ > 0) {
        // Phase 1: maximize -(sum of artificials).
        cost_.assign(n_, 0.0);
        for (int j = n_struct_ + m_; j < n_; ++j)
            cost_[j] = -1.0;
        SolveStatus s1 = optimize();
        if (s1 == SolveStatus::IterLimit) {
            finish(SolveStatus::IterLimit, &out);
            return out;
        }
        double infeas = 0.0;
        for (int j = n_struct_ + m_; j < n_; ++j) {
            double v = pos_in_basis_[j] >= 0 ? xb_[pos_in_basis_[j]]
                                             : nonbasicValue(j);
            infeas += v;
        }
        if (infeas > 1e-6) {
            finish(SolveStatus::Infeasible, &out);
            return out;
        }
        // Freeze artificials at zero for phase 2.
        for (int j = n_struct_ + m_; j < n_; ++j) {
            lo_[j] = 0.0;
            hi_[j] = 0.0;
            if (pos_in_basis_[j] < 0)
                nb_at_upper_[j] = 0;
        }
    } else {
        cost_.assign(n_, 0.0);
    }

    cost_ = cost2_;
    finish(optimize(), &out);
    return out;
}

Solution
SimplexSolver::solve(const LinearProgram& lp,
                     const std::vector<std::pair<double, double>>*
                         bound_override)
{
    if (bound_override) {
        PROTEUS_ASSERT(static_cast<int>(bound_override->size()) ==
                           lp.numVariables(),
                       "bound override size mismatch");
        if (anyEmptyBox(*bound_override)) {
            Solution out;
            out.status = SolveStatus::Infeasible;
            return out;
        }
    }
    SimplexTableau t(lp, bound_override, options_);
    return t.run();
}

IncrementalSimplex::IncrementalSimplex(const LinearProgram& lp,
                                       const SimplexSolver::Options& options)
    : lp_(lp), options_(options)
{}

IncrementalSimplex::~IncrementalSimplex() = default;

Solution
IncrementalSimplex::solve(const Bounds& bounds)
{
    PROTEUS_ASSERT(static_cast<int>(bounds.size()) == lp_.numVariables(),
                   "bound override size mismatch");
    Solution out;
    if (anyEmptyBox(bounds)) {
        out.status = SolveStatus::Infeasible;
        return out;
    }
    if (live_ && live_->resolve(bounds, &out))
        return out;
    const std::int64_t spent = out.work;  // a failed re-solve's pivots
    live_ = std::make_unique<SimplexTableau>(lp_, &bounds, options_);
    out = live_->run();
    out.work += spent;
    return out;
}

}  // namespace proteus

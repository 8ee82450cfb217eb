/**
 * @file
 * Warm-vs-cold property test for IncrementalSimplex: seeded LPs are
 * walked through branch-and-bound-shaped bound sequences (branching
 * tightens a bound, jumps between open nodes relax bounds, rounding
 * probes fix every integer column, overfilled knapsacks make children
 * infeasible), and every warm re-solve must agree with a cold
 * SimplexSolver::solve under the same bounds. Odd seeds run the
 * paranoid self-check, which re-verifies the tableau after every dual
 * pivot and a dual certificate at every optimum.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "solver/lp.h"
#include "solver/simplex.h"

namespace proteus {
namespace {

using Bounds = std::vector<std::pair<double, double>>;

constexpr int kBranchable = 8;  ///< integer-bounded columns
constexpr int kSteps = 60;      ///< bound changes per seed

/**
 * kBranchable integer-bounded columns plus one continuous column with
 * no upper bound, a knapsack row over all of them (so the LP stays
 * bounded, and fixing columns high can overfill it) and random rows
 * of every sense.
 */
LinearProgram
randomLp(Rng& rng)
{
    LinearProgram lp;
    for (int j = 0; j < kBranchable; ++j) {
        lp.addVariable(0.0, std::floor(rng.uniform(1.0, 6.0)),
                       rng.uniform(-2.0, 6.0));
    }
    lp.addVariable(0.0, kInf, rng.uniform(0.5, 3.0));
    std::vector<Coeff> knap;
    for (int j = 0; j <= kBranchable; ++j)
        knap.emplace_back(j, rng.uniform(0.5, 2.0));
    lp.addConstraint(std::move(knap), RowSense::LessEqual,
                     rng.uniform(6.0, 12.0));
    for (int i = 0; i < 5; ++i) {
        std::vector<Coeff> coeffs;
        for (int j = 0; j <= kBranchable; ++j) {
            if (rng.uniform() < 0.5)
                coeffs.emplace_back(j, rng.uniform(-3.0, 3.0));
        }
        if (coeffs.empty())
            coeffs.emplace_back(0, 1.0);
        const double r = rng.uniform();
        const RowSense sense = r < 0.5   ? RowSense::LessEqual
                               : r < 0.8 ? RowSense::GreaterEqual
                                         : RowSense::Equal;
        // Rows through a point inside the box keep most nodes feasible.
        double at = 0.0;
        for (const auto& [col, coef] : coeffs)
            at += coef * (col < kBranchable ? 0.5 : 0.2);
        lp.addConstraint(std::move(coeffs), sense,
                         at + (sense == RowSense::Equal
                                   ? 0.0
                                   : rng.uniform(-0.5, 2.0) *
                                         (sense == RowSense::LessEqual
                                              ? 1.0
                                              : -1.0)));
    }
    return lp;
}

Bounds
modelBounds(const LinearProgram& lp)
{
    Bounds b;
    for (int j = 0; j < lp.numVariables(); ++j)
        b.emplace_back(lp.variable(j).lo, lp.variable(j).hi);
    return b;
}

/** Most fractional branchable column of @p x, or -1 when integral. */
int
mostFractional(const std::vector<double>& x)
{
    int best = -1;
    double best_frac = 1e-6;
    for (int j = 0; j < kBranchable; ++j) {
        const double frac = std::abs(x[j] - std::round(x[j]));
        if (frac > best_frac) {
            best_frac = frac;
            best = j;
        }
    }
    return best;
}

/** Outcomes over one seed's walk, to check it covered each case. */
struct Coverage {
    int optimal = 0;
    int infeasible = 0;
    int steps = 0;
    std::int64_t warm_iters = 0;
    std::int64_t cold_iters = 0;
};

/** Solve @p bounds warm and cold and compare; @return the warm result. */
Solution
checkStep(const LinearProgram& lp, IncrementalSimplex* warm,
          const SimplexSolver::Options& opts, const Bounds& bounds,
          int seed, int step, Coverage* cov)
{
    SCOPED_TRACE(::testing::Message() << "seed " << seed << " step "
                                      << step);
    const Solution w = warm->solve(bounds);
    const Solution c = SimplexSolver(opts).solve(lp, &bounds);
    ++cov->steps;
    cov->warm_iters += w.work;
    cov->cold_iters += c.work;
    EXPECT_EQ(w.status, c.status);
    if (w.status == SolveStatus::Infeasible)
        ++cov->infeasible;
    if (w.status != SolveStatus::Optimal || c.status != SolveStatus::Optimal)
        return w;
    ++cov->optimal;
    EXPECT_LE(std::abs(w.objective - c.objective),
              1e-7 * std::max(1.0, std::abs(c.objective)))
        << "warm " << w.objective << " cold " << c.objective;
    EXPECT_TRUE(lp.isFeasible(w.x, 1e-6));
    for (int j = 0; j < lp.numVariables(); ++j) {
        EXPECT_GE(w.x[j], bounds[j].first - 1e-6) << "column " << j;
        EXPECT_LE(w.x[j], bounds[j].second + 1e-6) << "column " << j;
    }
    return w;
}

class IncrementalSimplexTest : public ::testing::TestWithParam<int> {};

TEST_P(IncrementalSimplexTest, WarmResolveMatchesColdUnderBranchAndBound)
{
    const int seed = GetParam();
    Rng rng(7000 + static_cast<std::uint64_t>(seed));
    const LinearProgram lp = randomLp(rng);
    SimplexSolver::Options opts;
    opts.paranoid = seed % 2 == 1;
    IncrementalSimplex warm(lp, opts);
    Coverage cov;

    const Bounds root = modelBounds(lp);
    std::vector<Bounds> open = {root};
    int step = 0;
    int probe = 0;
    while (step < kSteps) {
        // Alternate depth-first descent with jumps to the oldest open
        // node, which relaxes every bound the descent tightened.
        Bounds node;
        if (open.empty()) {
            node = root;
        } else if (rng.uniform() < 0.7) {
            node = std::move(open.back());
            open.pop_back();
        } else {
            node = std::move(open.front());
            open.erase(open.begin());
        }
        const Solution s = checkStep(lp, &warm, opts, node, seed, step++,
                                     &cov);
        if (s.status != SolveStatus::Optimal)
            continue;

        // One probe after every optimal node, in a fixed rotation.
        switch (probe++ % 4) {
          case 0: {
            // Rounding probe: fix every branchable column.
            Bounds fixed = node;
            for (int j = 0; j < kBranchable; ++j) {
                const double v = std::clamp(std::round(s.x[j]),
                                            node[j].first, node[j].second);
                fixed[j] = {v, v};
            }
            checkStep(lp, &warm, opts, fixed, seed, step++, &cov);
            break;
          }
          case 1: {
            // Infeasible child: the continuous column alone (>= 30,
            // knapsack coefficient >= 0.5) overfills the knapsack row.
            Bounds full = node;
            for (int j = 0; j < kBranchable; ++j)
                full[j].first = full[j].second;
            full[kBranchable].first = 30.0;
            checkStep(lp, &warm, opts, full, seed, step++, &cov);
            break;
          }
          case 2: {
            // An empty box is infeasible before any pivot.
            Bounds empty = node;
            empty[0] = {1.0, 0.0};
            checkStep(lp, &warm, opts, empty, seed, step++, &cov);
            break;
          }
          default:
            break;
        }

        const int j = mostFractional(s.x);
        if (j < 0)
            continue;
        Bounds down = node;
        down[j].second = std::floor(s.x[j]);
        Bounds up = node;
        up[j].first = std::ceil(s.x[j]);
        // Push in random order so both children get descended into.
        if (rng.uniform() < 0.5)
            std::swap(down, up);
        open.push_back(std::move(down));
        open.push_back(std::move(up));
    }
    EXPECT_GE(cov.steps, kSteps);
    EXPECT_GT(cov.optimal, 1);
    EXPECT_GT(cov.infeasible, 0);
    // The re-solves really are incremental.
    EXPECT_LT(cov.warm_iters, cov.cold_iters);
}

INSTANTIATE_TEST_SUITE_P(Seeds, IncrementalSimplexTest,
                         ::testing::Range(0, 40));

}  // namespace
}  // namespace proteus

/**
 * @file
 * Property-based tests for the LP/MILP solvers: random instances are
 * cross-checked against brute-force enumeration (MILP) and against
 * feasibility/optimality certificates (LP).
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "solver/lp.h"
#include "solver/milp.h"
#include "solver/simplex.h"

namespace proteus {
namespace {

/** Random small LP with <= rows and box-bounded variables. */
LinearProgram
randomBoxLp(Rng& rng, int nvars, int nrows)
{
    LinearProgram lp;
    for (int j = 0; j < nvars; ++j)
        lp.addVariable(0.0, rng.uniform(1.0, 10.0),
                       rng.uniform(-5.0, 5.0));
    for (int i = 0; i < nrows; ++i) {
        std::vector<Coeff> coeffs;
        for (int j = 0; j < nvars; ++j) {
            if (rng.uniform() < 0.7)
                coeffs.emplace_back(j, rng.uniform(-3.0, 3.0));
        }
        if (coeffs.empty())
            coeffs.emplace_back(0, 1.0);
        // rhs chosen so the origin-ish corner stays feasible often.
        lp.addConstraint(std::move(coeffs), RowSense::LessEqual,
                         rng.uniform(0.0, 20.0));
    }
    return lp;
}

class RandomLpTest : public ::testing::TestWithParam<int> {};

TEST_P(RandomLpTest, SolutionIsFeasibleAndVertexLike)
{
    Rng rng(1000 + GetParam());
    LinearProgram lp = randomBoxLp(rng, 6, 5);
    Solution sol = SimplexSolver().solve(lp);
    // Box bounds ensure boundedness; the origin corner (all lower
    // bounds) satisfies every row with rhs >= 0, so feasible too.
    ASSERT_EQ(sol.status, SolveStatus::Optimal) << "seed " << GetParam();
    EXPECT_TRUE(lp.isFeasible(sol.x, 1e-6)) << "seed " << GetParam();
}

TEST_P(RandomLpTest, NoFeasiblePointBeatsReportedOptimum)
{
    // Sample many random feasible-ish points; none may exceed the
    // simplex optimum (a cheap probabilistic optimality certificate).
    Rng rng(2000 + GetParam());
    LinearProgram lp = randomBoxLp(rng, 5, 4);
    Solution sol = SimplexSolver().solve(lp);
    ASSERT_EQ(sol.status, SolveStatus::Optimal);
    for (int k = 0; k < 500; ++k) {
        std::vector<double> x(5);
        for (int j = 0; j < 5; ++j)
            x[j] = rng.uniform(lp.variable(j).lo, lp.variable(j).hi);
        if (lp.isFeasible(x, 1e-9)) {
            EXPECT_LE(lp.objectiveValue(x), sol.objective + 1e-6)
                << "seed " << GetParam();
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomLpTest, ::testing::Range(0, 25));

/** Brute-force optimum of a pure-binary MILP by enumeration. */
double
bruteForceBinary(const LinearProgram& lp, bool* feasible)
{
    int n = lp.numVariables();
    double best = -kInf;
    *feasible = false;
    for (int mask = 0; mask < (1 << n); ++mask) {
        std::vector<double> x(n);
        for (int j = 0; j < n; ++j)
            x[j] = (mask >> j) & 1 ? 1.0 : 0.0;
        if (!lp.isFeasible(x, 1e-9))
            continue;
        *feasible = true;
        best = std::max(best, lp.objectiveValue(x));
    }
    return best;
}

class RandomMilpTest : public ::testing::TestWithParam<int> {};

TEST_P(RandomMilpTest, MatchesBruteForceOnBinaries)
{
    Rng rng(3000 + GetParam());
    const int n = 8;
    LinearProgram lp;
    for (int j = 0; j < n; ++j)
        lp.addIntVariable(0.0, 1.0, rng.uniform(-4.0, 8.0));
    for (int i = 0; i < 4; ++i) {
        std::vector<Coeff> coeffs;
        for (int j = 0; j < n; ++j) {
            if (rng.uniform() < 0.6)
                coeffs.emplace_back(j, rng.uniform(-2.0, 4.0));
        }
        if (coeffs.empty())
            coeffs.emplace_back(0, 1.0);
        lp.addConstraint(std::move(coeffs), RowSense::LessEqual,
                         rng.uniform(1.0, 8.0));
    }
    bool feasible = false;
    double brute = bruteForceBinary(lp, &feasible);
    Solution sol = MilpSolver().solve(lp);
    ASSERT_TRUE(feasible);  // all-zero is feasible given rhs >= 1
    ASSERT_EQ(sol.status, SolveStatus::Optimal) << "seed " << GetParam();
    EXPECT_NEAR(sol.objective, brute, 1e-5) << "seed " << GetParam();
    EXPECT_TRUE(lp.isFeasible(sol.x, 1e-6));
    for (int j : lp.integerVariables())
        EXPECT_NEAR(sol.x[j], std::round(sol.x[j]), 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomMilpTest, ::testing::Range(0, 20));

class RandomMixedMilpTest : public ::testing::TestWithParam<int> {};

TEST_P(RandomMixedMilpTest, IntegerSolutionNeverBeatsRelaxation)
{
    Rng rng(4000 + GetParam());
    LinearProgram lp = randomBoxLp(rng, 6, 5);
    // Make half of the variables integer.
    LinearProgram milp;
    for (int j = 0; j < lp.numVariables(); ++j) {
        const auto& v = lp.variable(j);
        if (j % 2 == 0)
            milp.addIntVariable(v.lo, std::floor(v.hi), v.obj);
        else
            milp.addVariable(v.lo, v.hi, v.obj);
    }
    for (int i = 0; i < lp.numConstraints(); ++i) {
        const auto& row = lp.row(i);
        milp.addConstraint(row.coeffs, row.sense, row.rhs);
    }
    Solution relax = SimplexSolver().solve(milp);
    Solution integral = MilpSolver().solve(milp);
    ASSERT_EQ(relax.status, SolveStatus::Optimal);
    ASSERT_EQ(integral.status, SolveStatus::Optimal)
        << "seed " << GetParam();
    EXPECT_LE(integral.objective, relax.objective + 1e-6);
    EXPECT_TRUE(milp.isFeasible(integral.x, 1e-6));
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomMixedMilpTest,
                         ::testing::Range(0, 20));

/**
 * The relaxation MilpSolver hands to its hint builder is its one root
 * solve: bit-identical to a standalone SimplexSolver::solve under the
 * same root bounds and LP options, delivered after exactly one LP
 * solve. Odd seeds run the paranoid tableau self-check underneath.
 */
class RootHintTest : public ::testing::TestWithParam<int> {};

TEST_P(RootHintTest, HintSeesTheStandaloneRootRelaxation)
{
    Rng rng(7000 + GetParam());
    const int n = 7;
    LinearProgram lp;
    for (int j = 0; j < n; ++j) {
        // Fractional integer bounds make the root bounds differ from
        // the model bounds.
        double lo = rng.uniform(-1.5, 0.5);
        double hi = rng.uniform(2.0, 9.0);
        if (j % 3 != 2)
            lp.addIntVariable(lo, hi, rng.uniform(-4.0, 6.0));
        else
            lp.addVariable(lo, hi, rng.uniform(-4.0, 6.0));
    }
    for (int i = 0; i < 5; ++i) {
        std::vector<Coeff> coeffs;
        for (int j = 0; j < n; ++j) {
            if (rng.uniform() < 0.6)
                coeffs.emplace_back(j, rng.uniform(-3.0, 3.0));
        }
        if (coeffs.empty())
            coeffs.emplace_back(0, 1.0);
        double r = rng.uniform();
        RowSense sense = r < 0.6 ? RowSense::LessEqual
                         : r < 0.8 ? RowSense::GreaterEqual
                                   : RowSense::Equal;
        lp.addConstraint(std::move(coeffs), sense, rng.uniform(-2.0, 9.0));
    }

    MilpSolver::Options opts;
    opts.lp.paranoid = GetParam() % 2 == 1;
    MilpSolver milp(opts);
    int calls = 0;
    std::int64_t lp_solves_at_call = -1;
    Solution seen;
    milp.solve(lp, [&](const Solution& root) {
        ++calls;
        lp_solves_at_call = milp.lastStats().lp_solves;
        seen = root;
        return std::vector<double>{};
    });

    std::vector<std::pair<double, double>> root_bounds;
    for (int j = 0; j < n; ++j) {
        const auto& v = lp.variable(j);
        if (v.is_integer) {
            root_bounds.emplace_back(std::ceil(v.lo - opts.int_tol),
                                     std::floor(v.hi + opts.int_tol));
        } else {
            root_bounds.emplace_back(v.lo, v.hi);
        }
    }
    Solution ref = SimplexSolver(opts.lp).solve(lp, &root_bounds);
    if (ref.status != SolveStatus::Optimal) {
        EXPECT_EQ(calls, 0) << "seed " << GetParam();
        return;
    }
    ASSERT_EQ(calls, 1) << "seed " << GetParam();
    EXPECT_EQ(lp_solves_at_call, 1);
    EXPECT_EQ(seen.status, ref.status);
    EXPECT_EQ(seen.work, ref.work);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(seen.objective),
              std::bit_cast<std::uint64_t>(ref.objective));
    ASSERT_EQ(seen.x.size(), ref.x.size());
    for (std::size_t j = 0; j < ref.x.size(); ++j) {
        EXPECT_EQ(std::bit_cast<std::uint64_t>(seen.x[j]),
                  std::bit_cast<std::uint64_t>(ref.x[j]))
            << "seed " << GetParam() << " column " << j;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RootHintTest, ::testing::Range(0, 60));

TEST(MilpHintTest, FeasibleIntegralHintSeedsTheIncumbent)
{
    // max x + y, x + y <= 3.5, integers in [0, 3]: the hint (1, 2) is
    // already optimal, so no search finds a better incumbent.
    LinearProgram lp;
    lp.addIntVariable(0.0, 3.0, 1.0);
    lp.addIntVariable(0.0, 3.0, 1.0);
    lp.addConstraint({{0, 1.0}, {1, 1.0}}, RowSense::LessEqual, 3.5);
    MilpSolver milp;
    Solution sol = milp.solve(lp, [](const Solution&) {
        return std::vector<double>{1.0, 2.0};
    });
    ASSERT_EQ(sol.status, SolveStatus::Optimal);
    EXPECT_EQ(sol.x, (std::vector<double>{1.0, 2.0}));
    EXPECT_EQ(milp.lastStats().incumbents, 0);
}

}  // namespace
}  // namespace proteus

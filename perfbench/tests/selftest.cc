/**
 * @file
 * Unit tests of the benchmark's own logic (bench_core). Build and run:
 *
 *   cmake --build .bench_build/perfbench --target perfbench_selftest
 *   .bench_build/perfbench/perfbench_selftest
 */

#include <gtest/gtest.h>

#include <vector>

#include "bench_core.h"

namespace perfbench {
namespace {

using proteus::AllocatorSolveMeta;

std::vector<double>
iota(std::size_t n)
{
    std::vector<double> v;
    for (std::size_t i = 1; i <= n; ++i)
        v.push_back(static_cast<double>(i));
    return v;
}

TEST(Percentile, NearestRankOnUnsortedInput)
{
    const std::vector<double> v = {5, 1, 4, 2, 3};
    EXPECT_EQ(percentile(v, 50.0), 3.0);
    EXPECT_EQ(percentile(v, 0.0), 1.0);
    EXPECT_EQ(percentile(v, 100.0), 5.0);
    EXPECT_EQ(median({4, 1, 3, 2}), 2.0);  // lower middle
    EXPECT_EQ(percentile({}, 90.0), 0.0);
    EXPECT_EQ(percentile(iota(100), 90.0), 90.0);
}

TEST(Percentile, TenSamplesBeyondRule)
{
    // p90 of n samples has n - ceil(0.9 n) samples above it.
    EXPECT_FALSE(percentileSupported(99, 90.0));  // rank 90, 9 beyond
    EXPECT_TRUE(percentileSupported(100, 90.0));  // rank 90, 10 beyond
    EXPECT_FALSE(percentileSupported(999, 99.0));
    EXPECT_TRUE(percentileSupported(1000, 99.0));
    EXPECT_FALSE(percentileSupported(19, 50.0));
    EXPECT_TRUE(percentileSupported(20, 50.0));
    EXPECT_FALSE(percentileSupported(0, 50.0));
    EXPECT_FALSE(percentileSupported(5, 0.0));
    EXPECT_TRUE(percentileSupported(11, 0.0));
}

AllocatorSolveMeta
solve(double wall, std::int64_t nodes, std::int64_t iters)
{
    AllocatorSolveMeta m;
    m.wall_seconds = wall;
    m.nodes = nodes;
    m.simplex_iterations = iters;
    m.work_budget = 2000000;
    return m;
}

TEST(DecisionDetector, FlagsOnlySlicesWithANewSolve)
{
    DecisionDetector d;
    const AllocatorSolveMeta setup = solve(0.004, 3, 120);
    d.reset(setup);
    // Slice sequence: quiet, decision, quiet, quiet, decision with the
    // same work but another wall time, decision with identical wall
    // time but more nodes.
    EXPECT_FALSE(d.observe(setup));
    const AllocatorSolveMeta a = solve(0.0031, 5, 200);
    EXPECT_TRUE(d.observe(a));
    EXPECT_FALSE(d.observe(a));
    EXPECT_FALSE(d.observe(a));
    const AllocatorSolveMeta b = solve(0.0032, 5, 200);
    EXPECT_TRUE(d.observe(b));
    const AllocatorSolveMeta c = solve(0.0032, 7, 200);
    EXPECT_TRUE(d.observe(c));
    AllocatorSolveMeta e = c;
    e.backoff_steps = 1;
    EXPECT_TRUE(d.observe(e));
    EXPECT_FALSE(d.observe(e));
}

TEST(DecisionDetector, CountsDecisionsOverASequence)
{
    DecisionDetector d;
    d.reset({});
    const std::vector<AllocatorSolveMeta> slices = {
        {}, solve(0.1, 1, 10), solve(0.1, 1, 10), {}, {},
        solve(0.2, 2, 20), solve(0.3, 2, 20), solve(0.3, 2, 20)};
    int decisions = 0;
    for (const AllocatorSolveMeta& m : slices)
        decisions += d.observe(m);
    // {} after a solve is itself a change (a heuristic allocator's
    // all-zero record), so it counts once per transition.
    EXPECT_EQ(decisions, 4);
}

TEST(ClassifySolve, BudgetBeforeWallClock)
{
    EXPECT_TRUE(classifySolve(solve(7.9, 9000, 2000000), 10.0).budget_exhausted);
    EXPECT_FALSE(classifySolve(solve(7.9, 9000, 2000000), 10.0).wall_limited);
    EXPECT_TRUE(classifySolve(solve(10.004, 3776, 1058585), 10.0).wall_limited);
    EXPECT_FALSE(classifySolve(solve(9.9, 3776, 1058585), 10.0).wall_limited);
    const SolveTruncation ok = classifySolve(solve(0.004, 3, 120), 10.0);
    EXPECT_FALSE(ok.budget_exhausted || ok.wall_limited);
    AllocatorSolveMeta unlimited = solve(3.0, 1, 5000000);
    unlimited.work_budget = 0;
    EXPECT_FALSE(classifySolve(unlimited, 10.0).budget_exhausted);
}

proteus::RunSummary
balanced()
{
    proteus::RunSummary s;
    s.arrivals = 100;
    s.served = 90;
    s.served_late = 6;
    s.dropped = 4;
    return s;
}

TEST(Conservation, AcceptsABalancedRun)
{
    EXPECT_EQ(checkConservation(balanced(), 0, 100), "");
}

TEST(Conservation, RejectsADoctoredSummary)
{
    proteus::RunSummary lost = balanced();
    lost.served -= 1;  // a query vanished
    EXPECT_NE(checkConservation(lost, 0, 100).find("arrivals 100"),
              std::string::npos);

    proteus::RunSummary doubled = balanced();
    doubled.dropped += 1;  // a query counted twice
    EXPECT_NE(checkConservation(doubled, 0, 100), "");

    EXPECT_NE(checkConservation(balanced(), 2, 100).find("in flight"),
              std::string::npos);

    proteus::RunSummary short_run = balanced();
    EXPECT_NE(checkConservation(short_run, 0, 101).find("trace holds"),
              std::string::npos);
}

TEST(OutcomeDigest, ChangesWithAnyOutcome)
{
    proteus::RunResult a;
    a.summary = balanced();
    a.timeline.resize(2);
    a.timeline[1].total.served = 7;
    proteus::RunResult b = a;
    EXPECT_EQ(outcomeDigest(a), outcomeDigest(b));
    b.timeline[1].total.served = 8;
    EXPECT_NE(outcomeDigest(a), outcomeDigest(b));
    b = a;
    b.summary.effective_accuracy = 1e-12;
    EXPECT_NE(outcomeDigest(a), outcomeDigest(b));
    b = a;
    b.shed = 1;
    EXPECT_NE(outcomeDigest(a), outcomeDigest(b));
}

}  // namespace
}  // namespace perfbench

/**
 * @file
 * The allocator hint's cached local-search evaluator must agree with
 * the from-scratch evalCounts bit for bit after every move, accepted
 * or rejected, including the churn bonus and quota-limited moves.
 */

#include "core/counts_eval.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "testing/fixtures.h"

namespace proteus {
namespace {

using detail::CachedCounts;
using detail::CountsContext;
using detail::CountsEval;
using detail::evalCounts;
using testing::paperWorld;
using testing::World;

void
expectSame(const CountsEval& got, const CountsEval& want, int move)
{
    ASSERT_EQ(got.feasible, want.feasible) << "move " << move;
    ASSERT_EQ(std::bit_cast<std::uint64_t>(got.objective),
              std::bit_cast<std::uint64_t>(want.objective))
        << "move " << move << ": " << got.objective << " vs "
        << want.objective;
}

TEST(CachedCountsTest, TenThousandMovesMatchEvalCounts)
{
    World w = paperWorld();
    const std::size_t T = w.cluster.numTypes();
    const std::size_t M = w.registry.numVariants();
    const std::size_t F = w.registry.numFamilies();
    Rng rng(2024);

    // Demand with a few idle families (skipped by both evaluators).
    std::vector<double> demand(F);
    for (std::size_t f = 0; f < F; ++f)
        demand[f] = rng.uniform() < 0.2 ? 0.0 : rng.uniform(5.0, 250.0);

    // Churn damping: a current plan and a bonus per (type, variant).
    std::vector<std::vector<int>> cur(T, std::vector<int>(M, 0));
    std::vector<std::vector<double>> bonus(T, std::vector<double>(M, 0.0));
    for (std::size_t t = 0; t < T; ++t) {
        for (std::size_t m = 0; m < M; ++m) {
            if (rng.uniform() < 0.3) {
                cur[t][m] = static_cast<int>(rng.uniformInt(1, 3));
                bonus[t][m] = rng.uniform(0.0, 40.0);
            }
        }
    }
    CountsContext ctx;
    ctx.registry = &w.registry;
    ctx.profiles = w.profiles.get();
    ctx.replica_penalty = 1e-4;
    ctx.keep_bonus = &bonus;
    ctx.cur_counts = &cur;
    detail::sortVariantsByAccuracy(&ctx);

    // Per-(type, family) quotas limit which moves are proposed, as
    // frozen placement does in the allocator.
    std::vector<std::vector<int>> quota_left(T, std::vector<int>(F));
    std::vector<int> budget(T);
    std::vector<std::vector<int>> start(T, std::vector<int>(M, 0));
    for (std::size_t t = 0; t < T; ++t) {
        budget[t] = w.cluster.countOfType(static_cast<DeviceTypeId>(t));
        for (std::size_t f = 0; f < F; ++f)
            quota_left[t][f] = static_cast<int>(rng.uniformInt(1, 6));
    }

    CachedCounts search(ctx, start, demand);
    expectSame(search.eval(), evalCounts(ctx, start, demand), -1);
    int moves = 0;
    int accepted = 0;
    int feasible = 0;
    while (moves < 12000) {
        const auto t = static_cast<std::size_t>(
            rng.uniformInt(0, static_cast<std::int64_t>(T) - 1));
        const auto dst = static_cast<std::size_t>(
            rng.uniformInt(0, static_cast<std::int64_t>(M) - 1));
        const FamilyId df = w.registry.familyOf(static_cast<VariantId>(dst));
        int src = -1;
        if (budget[t] == 0 || rng.uniform() < 0.6) {
            src = static_cast<int>(
                rng.uniformInt(0, static_cast<std::int64_t>(M) - 1));
            if (static_cast<std::size_t>(src) == dst ||
                search.count()[t][static_cast<std::size_t>(src)] <= 0)
                continue;
        }
        const FamilyId sf =
            src >= 0 ? w.registry.familyOf(static_cast<VariantId>(src))
                     : df;
        if ((src < 0 || sf != df) && quota_left[t][df] <= 0)
            continue;

        CountsEval moved = search.tryMove(t, src, dst);
        ++moves;
        expectSame(moved, evalCounts(ctx, search.count(), demand), moves);
        feasible += moved.feasible ? 1 : 0;
        if (rng.uniform() < 0.5) {
            search.accept();
            ++accepted;
            if (src < 0) {
                --budget[t];
                --quota_left[t][df];
            } else if (sf != df) {
                ++quota_left[t][sf];
                --quota_left[t][df];
            }
        } else {
            search.reject();
        }
        expectSame(search.eval(),
                   evalCounts(ctx, search.count(), demand), moves);
    }
    EXPECT_GT(accepted, 1000);
    EXPECT_GT(feasible, 0);
    EXPECT_LT(feasible, moves);
}

}  // namespace
}  // namespace proteus

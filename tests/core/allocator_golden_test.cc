/**
 * @file
 * Bit-exactness net for the MILP allocator: IlpAllocator::allocate on
 * fixed inputs must reproduce exact branch-and-bound node counts,
 * simplex iterations, MILP LP solves and a 64-bit FNV-1a digest of the
 * plan (hosting, routing weights as raw bits, planned fraction).
 *
 * The expected values were recorded by running these test bodies on
 * the allocator as it stood before the MILP began handing its root
 * relaxation to the warm-start hint (when the hint still solved its
 * own copy of the root LP, pivots still swept the full tableau width
 * and the local search re-scored every family per move). Solver
 * speed-ups must leave every pivot, node and plan bit-identical; any
 * change here is a behaviour change and has to be explained.
 */

#include "core/ilp_allocator.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <vector>

#include "baselines/sommelier.h"
#include "common/rng.h"
#include "testing/fixtures.h"

namespace proteus {
namespace {

using testing::miniWorld;
using testing::paperWorld;
using testing::World;

/** 64-bit FNV-1a over a plan's hosting, routing and planned fraction. */
class Fnv1a
{
  public:
    void
    add(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h_ ^= (v >> (8 * i)) & 0xffu;
            h_ *= 0x100000001b3ull;
        }
    }
    std::uint64_t value() const { return h_; }

  private:
    std::uint64_t h_ = 0xcbf29ce484222325ull;
};

std::uint64_t
planDigest(const Allocation& plan)
{
    Fnv1a h;
    h.add(plan.hosting.size());
    for (const auto& v : plan.hosting)
        h.add(v ? static_cast<std::uint64_t>(*v) + 1 : 0);
    h.add(plan.routing.size());
    for (const auto& shares : plan.routing) {
        h.add(shares.size());
        for (const DeviceShare& s : shares) {
            h.add(s.device);
            h.add(std::bit_cast<std::uint64_t>(s.weight));
        }
    }
    h.add(std::bit_cast<std::uint64_t>(plan.planned_fraction));
    return h.value();
}

/** Aggregate QPS split across the families by Zipf, as the traces do. */
std::vector<double>
zipfDemand(const World& w, double qps)
{
    const ZipfDistribution zipf(w.registry.numFamilies(), 1.001);
    std::vector<double> d;
    for (std::size_t f = 0; f < zipf.size(); ++f)
        d.push_back(qps * zipf.pmf(f));
    return d;
}

struct Golden {
    std::int64_t nodes;
    std::int64_t simplex_iters;
    std::int64_t lp_solves;
    std::uint64_t digest;
};

void
expectGolden(const IlpAllocator& alloc, const Allocation& plan,
             const Golden& want)
{
    const AllocatorSolveMeta s = alloc.lastSolveMeta();
    const std::uint64_t digest = planDigest(plan);
    char got[160];
    std::snprintf(got, sizeof got,
                  "observed {%lld, %lld, %lld, 0x%016llxull}",
                  static_cast<long long>(s.nodes),
                  static_cast<long long>(s.simplex_iterations),
                  static_cast<long long>(s.lp_solves),
                  static_cast<unsigned long long>(digest));
    SCOPED_TRACE(got);
    EXPECT_EQ(s.nodes, want.nodes);
    EXPECT_EQ(s.simplex_iterations, want.simplex_iters);
    EXPECT_EQ(s.lp_solves, want.lp_solves);
    EXPECT_EQ(digest, want.digest);
}

/**
 * The serving system's Proteus allocator options, with the wall-clock
 * backstop off and a smaller work budget: every solve either proves
 * its gap or stops at the same simplex iteration on any machine, so
 * the golden values do not depend on load or sanitizers.
 */
IlpAllocatorOptions
servedOptions(double headroom)
{
    IlpAllocatorOptions o;
    o.planning_headroom = headroom;
    o.milp_time_limit_sec = 0.0;
    o.milp_work_budget = 100000;
    return o;
}

TEST(AllocatorGoldenTest, SteadyGammaPlanningDemand)
{
    // perfbench steady_gamma: 800 QPS Zipf, no planning headroom.
    World w = paperWorld();
    IlpAllocator alloc(&w.registry, &w.cluster, w.profiles.get(),
                       servedOptions(1.0));
    AllocationInput in;
    in.demand_qps = zipfDemand(w, 800.0);
    Allocation plan = alloc.allocate(in);
    expectGolden(alloc, plan, {1, 92, 1, 0xde6c5d1539ed32dbull});
}

TEST(AllocatorGoldenTest, BurstLowPhase)
{
    World w = paperWorld();
    IlpAllocator alloc(&w.registry, &w.cluster, w.profiles.get(),
                       servedOptions(1.35));
    AllocationInput in;
    in.demand_qps = zipfDemand(w, 200.0);
    Allocation plan = alloc.allocate(in);
    expectGolden(alloc, plan, {384, 102685, 1245, 0xa1111ca732c57190ull});
}

TEST(AllocatorGoldenTest, BurstHighPhase)
{
    World w = paperWorld();
    IlpAllocator alloc(&w.registry, &w.cluster, w.profiles.get(),
                       servedOptions(1.35));
    AllocationInput in;
    in.demand_qps = zipfDemand(w, 1150.0);
    Allocation plan = alloc.allocate(in);
    expectGolden(alloc, plan, {352, 102660, 971, 0xab5a81b4ecf3214aull});
}

TEST(AllocatorGoldenTest, ChurnDampedSecondDecision)
{
    // Low phase, then the high phase with the low plan in force: the
    // churn bonus and keep-plan hysteresis both see `current`.
    World w = paperWorld();
    IlpAllocator alloc(&w.registry, &w.cluster, w.profiles.get(),
                       servedOptions(1.35));
    AllocationInput first;
    first.demand_qps = zipfDemand(w, 200.0);
    Allocation low = alloc.allocate(first);
    AllocationInput second;
    second.demand_qps = zipfDemand(w, 1150.0);
    second.current = &low;
    Allocation plan = alloc.allocate(second);
    expectGolden(alloc, plan, {282, 100120, 761, 0x2f68bab61f637ae9ull});
}

TEST(AllocatorGoldenTest, DevicesDown)
{
    World w = paperWorld();
    IlpAllocator alloc(&w.registry, &w.cluster, w.profiles.get(),
                       servedOptions(1.35));
    AllocationInput first;
    first.demand_qps = zipfDemand(w, 800.0);
    Allocation before = alloc.allocate(first);
    // Lose three CPUs, two GTX 1080 Ti and two V100s.
    AllocationInput in;
    in.demand_qps = first.demand_qps;
    in.current = &before;
    in.device_down.assign(w.cluster.numDevices(), 0);
    for (DeviceId d : {0u, 7u, 13u, 20u, 25u, 30u, 39u})
        in.device_down[d] = 1;
    Allocation plan = alloc.allocate(in);
    expectGolden(alloc, plan, {1, 129, 1, 0x9af22a8c227f3e4full});
}

TEST(AllocatorGoldenTest, SommelierQuotas)
{
    // The first call freezes placement; the second solves under the
    // per-(type, family) quotas and device locks.
    World w = paperWorld();
    SommelierAllocator alloc(&w.registry, &w.cluster, w.profiles.get(),
                             servedOptions(1.35));
    AllocationInput first;
    first.demand_qps = zipfDemand(w, 200.0);
    Allocation low = alloc.allocate(first);
    AllocationInput second;
    second.demand_qps = zipfDemand(w, 1150.0);
    second.current = &low;
    Allocation plan = alloc.allocate(second);
    expectGolden(alloc, plan, {5, 438, 5, 0x89b9479374a89a5aull});
}

TEST(AllocatorGoldenTest, ClipperHighAccuracyFilter)
{
    // Clipper-HA pins the most accurate variant of each family that
    // meets its SLO on some device type.
    World w = paperWorld();
    const ModelRegistry* reg = &w.registry;
    const Cluster* cluster = &w.cluster;
    const ProfileStore* profiles = w.profiles.get();
    IlpAllocatorOptions o = servedOptions(1.35);
    o.variant_filter = [reg, cluster, profiles](VariantId v) {
        const auto& vs = reg->variantsOf(reg->familyOf(v));
        for (auto it = vs.rbegin(); it != vs.rend(); ++it) {
            for (DeviceTypeId t = 0; t < cluster->numTypes(); ++t) {
                if (profiles->get(*it, t).usable())
                    return v == *it;
            }
        }
        return v == vs.front();
    };
    IlpAllocator alloc(&w.registry, &w.cluster, w.profiles.get(), o);
    AllocationInput in;
    in.demand_qps = zipfDemand(w, 200.0);
    Allocation plan = alloc.allocate(in);
    expectGolden(alloc, plan, {382, 10304, 501, 0x5c385cb7a6ac0d1bull});
}

TEST(AllocatorGoldenTest, PipelineMiniZoo)
{
    // fig12's cluster and mini zoo, every stage family at 450 QPS.
    World w = miniWorld(8, 4, 4);
    IlpAllocator alloc(&w.registry, &w.cluster, w.profiles.get(),
                       servedOptions(1.35));
    AllocationInput in;
    in.demand_qps.assign(w.registry.numFamilies(), 450.0);
    Allocation plan = alloc.allocate(in);
    expectGolden(alloc, plan, {1, 45, 1, 0xbc45aaef6bb45329ull});
}

}  // namespace
}  // namespace proteus

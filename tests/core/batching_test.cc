#include "core/batching.h"

#include <gtest/gtest.h>

#include <vector>

namespace proteus {
namespace {

/** Synthetic profile: latency(b) = overhead + b * per_item. */
BatchProfile
makeProfile(Duration overhead, Duration per_item, int max_batch,
            int table_size = 32)
{
    BatchProfile prof;
    for (int b = 1; b <= table_size; ++b)
        prof.latency.push_back(overhead + per_item * b);
    prof.max_batch = max_batch;
    prof.peak_qps =
        max_batch / toSeconds(prof.latencyFor(max_batch));
    return prof;
}

struct QueueFixture {
    QueryQueue queue;
    std::vector<Query> storage;

    /** Add a query that arrived at @p arrival with @p slo. */
    void
    add(Time arrival, Duration slo)
    {
        storage.reserve(64);  // stable addresses for the test sizes
        storage.push_back(Query{});
        storage.back().arrival = arrival;
        storage.back().deadline = arrival + slo;
        queue.push_back(&storage.back());
    }
};

WorkerView
view(Time now, const QueueFixture& fix, const BatchProfile& prof,
     Duration slo)
{
    WorkerView v;
    v.now = now;
    v.queue = &fix.queue;
    v.profile = &prof;
    v.slo = slo;
    return v;
}

TEST(ProteusBatchingTest, EmptyQueueDoesNothing)
{
    BatchProfile prof = makeProfile(millis(1), millis(1), 8);
    QueueFixture fix;
    ProteusBatching policy;
    BatchAction a = policy.decide(view(0, fix, prof, millis(20)));
    EXPECT_EQ(a.execute, 0);
    EXPECT_EQ(a.drop, 0);
    EXPECT_EQ(a.wake_at, kNoTime);
}

TEST(ProteusBatchingTest, FullBatchExecutesImmediately)
{
    BatchProfile prof = makeProfile(millis(1), millis(1), 4);
    QueueFixture fix;
    const Duration slo = millis(100);
    for (int i = 0; i < 6; ++i)
        fix.add(millis(i), slo);
    ProteusBatching policy;
    BatchAction a = policy.decide(view(millis(6), fix, prof, slo));
    EXPECT_EQ(a.execute, 4);  // capped at max_batch
}

TEST(ProteusBatchingTest, WaitsUntilTmaxWait)
{
    // One query, SLO comfortably far: policy must arm a timer at
    // T_exp(1) - T_process(2), not execute (non-work-conserving).
    BatchProfile prof = makeProfile(millis(2), millis(3), 8);
    QueueFixture fix;
    const Duration slo = millis(100);
    fix.add(millis(0), slo);
    ProteusBatching policy;
    BatchAction a = policy.decide(view(millis(1), fix, prof, slo));
    EXPECT_EQ(a.execute, 0);
    // T_exp(1) = 100 ms; T_process(2) = 2 + 2*3 = 8 ms.
    EXPECT_EQ(a.wake_at, millis(100) - millis(8));
}

TEST(ProteusBatchingTest, ExecutesAtTmaxWait)
{
    BatchProfile prof = makeProfile(millis(2), millis(3), 8);
    QueueFixture fix;
    const Duration slo = millis(100);
    fix.add(millis(0), slo);
    ProteusBatching policy;
    Time t_max_wait = millis(100) - millis(8);
    BatchAction a = policy.decide(view(t_max_wait, fix, prof, slo));
    EXPECT_EQ(a.execute, 1);
    EXPECT_EQ(a.wake_at, kNoTime);
}

TEST(ProteusBatchingTest, NewArrivalShrinksWait)
{
    // Paper Fig. 3 Case 2: with q+1 queries the wait shortens because
    // T_process(q+2) > T_process(q+1).
    BatchProfile prof = makeProfile(millis(2), millis(3), 8);
    QueueFixture fix;
    const Duration slo = millis(100);
    fix.add(millis(0), slo);
    fix.add(millis(1), slo);
    ProteusBatching policy;
    BatchAction a = policy.decide(view(millis(2), fix, prof, slo));
    EXPECT_EQ(a.execute, 0);
    // T_process(3) = 2 + 3*3 = 11 ms -> wake at 100 - 11 = 89 ms.
    EXPECT_EQ(a.wake_at, millis(89));
}

TEST(ProteusBatchingTest, DropsHopelessQueries)
{
    BatchProfile prof = makeProfile(millis(2), millis(3), 8);
    QueueFixture fix;
    // Arrived long ago: deadline already unreachable even alone.
    fix.add(millis(0), millis(10));
    fix.add(millis(100), millis(200));
    ProteusBatching policy;
    BatchAction a = policy.decide(view(millis(120), fix, prof,
                                       millis(200)));
    EXPECT_EQ(a.drop, 1);
}

TEST(ProteusBatchingTest, KeepsHopelessWhenDisabled)
{
    BatchProfile prof = makeProfile(millis(2), millis(3), 8);
    QueueFixture fix;
    fix.add(millis(0), millis(10));
    ProteusBatching policy(/*drop_hopeless=*/false);
    BatchAction a = policy.decide(view(millis(120), fix, prof,
                                       millis(10)));
    EXPECT_EQ(a.drop, 0);
    EXPECT_EQ(a.execute, 1);  // head is already doomed: run now
}

TEST(ProteusBatchingTest, TrimsBatchWhenDecisionDelayed)
{
    // The worker was busy; by now only a smaller batch still meets
    // the head query's deadline.
    BatchProfile prof = makeProfile(millis(2), millis(3), 8);
    QueueFixture fix;
    const Duration slo = millis(30);
    for (int i = 0; i < 6; ++i)
        fix.add(millis(i), slo);
    // Head deadline: 30 ms. At t=19: latency(3)=11 -> ok;
    // latency(4)=14 -> 33 > 30. Expect batch of 3.
    ProteusBatching policy;
    BatchAction a = policy.decide(view(millis(19), fix, prof, slo));
    EXPECT_EQ(a.execute, 3);
}

TEST(ProteusBatchingTest, NoTimerInPast)
{
    BatchProfile prof = makeProfile(millis(2), millis(3), 8);
    QueueFixture fix;
    const Duration slo = millis(100);
    fix.add(millis(0), slo);
    ProteusBatching policy;
    // Past T_max_wait(2): must execute, never arm a stale timer.
    BatchAction a = policy.decide(view(millis(95), fix, prof, slo));
    EXPECT_EQ(a.execute, 1);
    EXPECT_EQ(a.wake_at, kNoTime);
}

TEST(StaticBatchingTest, AlwaysExecutesUpToSize)
{
    BatchProfile prof = makeProfile(millis(1), millis(1), 8);
    QueueFixture fix;
    for (int i = 0; i < 3; ++i)
        fix.add(millis(i), millis(100));
    StaticBatching policy;
    BatchAction a = policy.decide(view(millis(3), fix, prof, millis(100)));
    EXPECT_EQ(a.execute, 1);
    EXPECT_EQ(a.drop, 0);
    EXPECT_EQ(a.wake_at, kNoTime);
}

TEST(StaticBatchingTest, EmptyQueueNoAction)
{
    BatchProfile prof = makeProfile(millis(1), millis(1), 8);
    QueueFixture fix;
    StaticBatching policy;
    EXPECT_EQ(policy.decide(view(0, fix, prof, millis(100))).execute, 0);
}

TEST(CountHopelessTest, PrefixOnly)
{
    BatchProfile prof = makeProfile(millis(2), millis(3), 8);
    QueueFixture fix;
    fix.add(millis(0), millis(10));   // doomed at t=50
    fix.add(millis(1), millis(10));   // doomed
    fix.add(millis(48), millis(100)); // fine
    WorkerView v = view(millis(50), fix, prof, millis(100));
    EXPECT_EQ(countHopeless(v), 2);
}

}  // namespace
}  // namespace proteus

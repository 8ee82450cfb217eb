#include "metrics/collector.h"

#include <gtest/gtest.h>

#include "sim/simulator.h"

namespace proteus {
namespace {

Query
finishedQuery(FamilyId family, QueryStatus status, double accuracy)
{
    Query q;
    q.family = family;
    q.status = status;
    q.accuracy = accuracy;
    q.completion = 0;
    return q;
}

TEST(MetricsCollectorTest, CountsByStatus)
{
    Simulator sim;
    MetricsCollector mc(&sim, 2, seconds(10.0));
    mc.start();
    mc.countArrival(0);
    mc.countArrival(0);
    mc.countArrival(0);
    mc.countFinished(finishedQuery(0, QueryStatus::Served, 95.0));
    mc.countFinished(finishedQuery(0, QueryStatus::ServedLate, 90.0));
    mc.countFinished(finishedQuery(0, QueryStatus::Dropped, 0.0));
    mc.finalize();
    RunSummary s = mc.summary();
    EXPECT_EQ(s.arrivals, 3u);
    EXPECT_EQ(s.served, 1u);
    EXPECT_EQ(s.served_late, 1u);
    EXPECT_EQ(s.dropped, 1u);
    EXPECT_EQ(s.violations(), 2u);
    EXPECT_NEAR(s.slo_violation_ratio, 2.0 / 3.0, 1e-12);
    EXPECT_NEAR(s.effective_accuracy, 92.5, 1e-12);
}

TEST(MetricsCollectorTest, PerFamilyTotals)
{
    Simulator sim;
    MetricsCollector mc(&sim, 3, seconds(10.0));
    mc.start();
    mc.countArrival(2);
    mc.countFinished(finishedQuery(2, QueryStatus::Served, 88.0));
    mc.finalize();
    const auto& fam = mc.familyTotals();
    EXPECT_EQ(fam[2].arrivals, 1u);
    EXPECT_EQ(fam[2].served, 1u);
    EXPECT_EQ(fam[0].arrivals, 0u);
}

TEST(MetricsCollectorTest, IntervalsCommitOnSchedule)
{
    Simulator sim;
    MetricsCollector mc(&sim, 1, seconds(10.0));
    mc.start();
    // One served query per second for 35 seconds.
    std::deque<Query> arena;
    for (int i = 0; i < 35; ++i) {
        sim.scheduleAt(seconds(i) + 1, [&mc] {
            mc.countArrival(0);
            mc.countFinished(finishedQuery(0, QueryStatus::Served, 100.0));
        });
    }
    sim.run(seconds(35.0));
    mc.finalize();
    ASSERT_GE(mc.timeline().size(), 3u);
    EXPECT_NEAR(mc.timeline()[0].throughputQps(), 1.0, 0.11);
    EXPECT_NEAR(mc.timeline()[1].demandQps(), 1.0, 0.11);
}

TEST(MetricsCollectorTest, MaxAccuracyDropUsesWorstInterval)
{
    Simulator sim;
    MetricsCollector mc(&sim, 1, seconds(10.0));
    mc.start();
    // First interval at 100, second at 90.
    sim.scheduleAt(seconds(1.0), [&] {
        mc.countFinished(finishedQuery(0, QueryStatus::Served, 100.0));
    });
    sim.scheduleAt(seconds(15.0), [&] {
        mc.countFinished(finishedQuery(0, QueryStatus::Served, 90.0));
    });
    sim.run(seconds(25.0));
    mc.finalize();
    EXPECT_NEAR(mc.summary().max_accuracy_drop, 10.0, 1e-9);
}

TEST(MetricsCollectorTest, EmptyIntervalsDontPolluteDrop)
{
    Simulator sim;
    MetricsCollector mc(&sim, 1, seconds(10.0));
    mc.start();
    sim.scheduleAt(seconds(1.0), [&] {
        mc.countFinished(finishedQuery(0, QueryStatus::Served, 99.0));
    });
    // Long silence afterwards.
    sim.run(seconds(60.0));
    mc.finalize();
    EXPECT_NEAR(mc.summary().max_accuracy_drop, 1.0, 1e-9);
}

TEST(MetricsCollectorTest, SummaryOnEmptyRun)
{
    Simulator sim;
    MetricsCollector mc(&sim, 1, seconds(10.0));
    mc.start();
    mc.finalize();
    RunSummary s = mc.summary();
    EXPECT_EQ(s.arrivals, 0u);
    EXPECT_DOUBLE_EQ(s.slo_violation_ratio, 0.0);
    EXPECT_DOUBLE_EQ(s.avg_throughput_qps, 0.0);
}

TEST(IntervalCountersTest, Helpers)
{
    IntervalCounters c;
    c.served = 3;
    c.served_late = 1;
    c.dropped = 2;
    c.accuracy_sum = 4 * 95.0;
    EXPECT_EQ(c.completed(), 4u);
    EXPECT_EQ(c.violations(), 3u);
    EXPECT_DOUBLE_EQ(c.effectiveAccuracy(), 95.0);
}

}  // namespace
}  // namespace proteus

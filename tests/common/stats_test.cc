#include "common/stats.h"

#include <gtest/gtest.h>

namespace proteus {
namespace {

TEST(WindowedRateTest, CountsOnlyInsideWindow)
{
    WindowedRate r(seconds(1.0));
    r.record(seconds(0.0));
    r.record(seconds(0.5));
    r.record(seconds(0.9));
    EXPECT_EQ(r.countInWindow(seconds(1.0)), 3u);
    // At t=1.6 the event at t=0 and t=0.5 have aged out.
    EXPECT_EQ(r.countInWindow(seconds(1.6)), 1u);
    EXPECT_DOUBLE_EQ(r.rate(seconds(1.6)), 1.0);
}

TEST(WindowedRateTest, RateScalesWithWindow)
{
    WindowedRate r(seconds(2.0));
    for (int i = 0; i < 10; ++i)
        r.record(seconds(0.1 * i));
    // 10 events in 2 seconds -> 5 QPS.
    EXPECT_DOUBLE_EQ(r.rate(seconds(1.0)), 5.0);
}

TEST(PercentileTest, EmptyIsZero)
{
    EXPECT_DOUBLE_EQ(percentile({}, 50.0), 0.0);
}

TEST(PercentileTest, MedianAndExtremes)
{
    std::vector<double> v{5.0, 1.0, 3.0, 2.0, 4.0};
    EXPECT_DOUBLE_EQ(percentile(v, 0.0), 1.0);
    EXPECT_DOUBLE_EQ(percentile(v, 50.0), 3.0);
    EXPECT_DOUBLE_EQ(percentile(v, 100.0), 5.0);
}

TEST(PercentileTest, InterpolatesBetweenRanks)
{
    std::vector<double> v{0.0, 10.0};
    EXPECT_DOUBLE_EQ(percentile(v, 25.0), 2.5);
    EXPECT_DOUBLE_EQ(percentile(v, 75.0), 7.5);
}

TEST(PercentilesTest, EmptyInputYieldsZeros)
{
    EXPECT_EQ(percentiles({}, {50.0, 95.0, 99.0}),
              (std::vector<double>{0.0, 0.0, 0.0}));
    EXPECT_TRUE(percentiles({1.0, 2.0}, {}).empty());
}

TEST(PercentilesTest, SingleElementCollapses)
{
    EXPECT_EQ(percentiles({7.0}, {0.0, 50.0, 100.0}),
              (std::vector<double>{7.0, 7.0, 7.0}));
}

TEST(PercentilesTest, SortsOnceAndMatchesPerCallPercentile)
{
    std::vector<double> v{9.0, 1.0, 5.0, 3.0, 7.0, 2.0, 8.0};
    std::vector<double> ps{0.0, 10.0, 50.0, 90.0, 95.0, 99.0, 100.0};
    std::vector<double> batch = percentiles(v, ps);
    ASSERT_EQ(batch.size(), ps.size());
    for (std::size_t i = 0; i < ps.size(); ++i)
        EXPECT_DOUBLE_EQ(batch[i], percentile(v, ps[i])) << "p" << ps[i];
}

TEST(PercentilesTest, OutOfRangeRanksClamp)
{
    std::vector<double> v{1.0, 2.0, 3.0};
    EXPECT_EQ(percentiles(v, {-10.0, 200.0}),
              (std::vector<double>{1.0, 3.0}));
}

TEST(PercentileSortedTest, RequiresNoResort)
{
    std::vector<double> sorted{1.0, 2.0, 3.0, 4.0};
    EXPECT_DOUBLE_EQ(percentileSorted(sorted, 50.0), 2.5);
    EXPECT_DOUBLE_EQ(percentileSorted(sorted, 100.0), 4.0);
    EXPECT_DOUBLE_EQ(percentileSorted({}, 50.0), 0.0);
}

}  // namespace
}  // namespace proteus

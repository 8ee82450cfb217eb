#include "workload/trace.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <utility>
#include <vector>

namespace proteus {
namespace {

TEST(TraceTest, EmptyTrace)
{
    Trace t;
    EXPECT_TRUE(t.empty());
    EXPECT_EQ(t.endTime(), 0);
    EXPECT_DOUBLE_EQ(t.averageQps(), 0.0);
}

TEST(TraceTest, ConstructorSortsEvents)
{
    Trace t({{seconds(3.0), 0}, {seconds(1.0), 1}, {seconds(2.0), 0}});
    ASSERT_EQ(t.size(), 3u);
    EXPECT_EQ(t.events()[0].at, seconds(1.0));
    EXPECT_EQ(t.events()[0].family, 1u);
    EXPECT_EQ(t.endTime(), seconds(3.0));
}

TEST(TraceTest, AppendAndSort)
{
    Trace t;
    t.append(seconds(5.0), 0);
    t.append(seconds(1.0), 1);
    t.sort();
    EXPECT_EQ(t.events().front().family, 1u);
}

TEST(TraceTest, DemandWindowCountsPerFamily)
{
    Trace t;
    for (int i = 0; i < 10; ++i)
        t.append(seconds(0.1 * i), 0);
    for (int i = 0; i < 5; ++i)
        t.append(seconds(0.2 * i), 1);
    t.sort();
    auto d = t.demand(2, 0, seconds(1.0));
    EXPECT_DOUBLE_EQ(d[0], 10.0);
    EXPECT_DOUBLE_EQ(d[1], 5.0);
}

TEST(TraceTest, DemandWindowExcludesOutside)
{
    Trace t({{seconds(0.5), 0}, {seconds(1.5), 0}, {seconds(2.5), 0}});
    auto d = t.demand(1, seconds(1.0), seconds(2.0));
    EXPECT_DOUBLE_EQ(d[0], 1.0);
}

TEST(TraceTest, AverageQps)
{
    Trace t;
    for (int i = 1; i <= 100; ++i)
        t.append(micros(i * 100000), 0);  // 10 QPS for 10 s
    t.sort();
    EXPECT_NEAR(t.averageQps(), 10.0, 0.1);
}

TEST(TraceTest, CsvRoundtripFormat)
{
    Trace t({{123, 2}});
    std::ostringstream oss;
    t.writeCsv(oss);
    EXPECT_EQ(oss.str(), "time_us,family\n123,2\n");
}

TEST(TraceTest, StableSortPreservesEqualTimes)
{
    // Arrivals at one instant keep their append order. Families are
    // out of order within each instant and the instants interleave, so
    // neither an unstable sort nor a tie broken by family passes.
    Trace t;
    t.append(seconds(2.0), 7);
    t.append(seconds(1.0), 5);
    t.append(seconds(2.0), 3);
    t.append(seconds(1.0), 4);
    t.append(seconds(2.0), 6);
    t.sort();
    const std::vector<std::pair<Time, FamilyId>> want = {
        {seconds(1.0), 5}, {seconds(1.0), 4}, {seconds(2.0), 7},
        {seconds(2.0), 3}, {seconds(2.0), 6}};
    ASSERT_EQ(t.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(t.events()[i].at, want[i].first) << i;
        EXPECT_EQ(t.events()[i].family, want[i].second) << i;
    }
}

TEST(TraceEventTest, ExtremesRoundTripExactly)
{
    const FamilyId top = TraceEvent::kFamilyLimit - 1;
    const TraceEvent hi(kMaxTraceTime, top);
    EXPECT_EQ(hi.at, kMaxTraceTime);
    EXPECT_EQ(hi.family, top);
    const TraceEvent lo(0, 0);
    EXPECT_EQ(lo.at, 0);
    EXPECT_EQ(lo.family, 0u);
    // Neighbouring fields never bleed into each other.
    const TraceEvent a(kMaxTraceTime, 0);
    EXPECT_EQ(a.at, kMaxTraceTime);
    EXPECT_EQ(a.family, 0u);
    const TraceEvent b(0, top);
    EXPECT_EQ(b.at, 0);
    EXPECT_EQ(b.family, top);
    // Differences of arrival times stay signed.
    EXPECT_EQ(lo.at - hi.at, -kMaxTraceTime);
}

TEST(TraceEventTest, ExtremesRoundTripThroughCsv)
{
    const auto families =
        static_cast<std::size_t>(TraceEvent::kFamilyLimit);
    Trace t;
    t.append(kMaxTraceTime, TraceEvent::kFamilyLimit - 1);
    t.append(0, 0);
    t.sort();
    std::ostringstream out;
    t.writeCsv(out);
    std::istringstream in(out.str());
    const Trace back = Trace::readCsv(in, "extremes", families);
    ASSERT_EQ(back.size(), 2u);
    EXPECT_EQ(back.events()[0].at, 0);
    EXPECT_EQ(back.events()[1].at, kMaxTraceTime);
    EXPECT_EQ(back.events()[1].family, TraceEvent::kFamilyLimit - 1);
}

TEST(TraceEventDeathTest, OutOfRangeArgumentsDie)
{
    EXPECT_DEATH(TraceEvent(-1, 0), "arrival time -1 outside");
    EXPECT_DEATH(TraceEvent(kMaxTraceTime + 1, 0),
                 "arrival time [0-9]+ outside");
    EXPECT_DEATH(TraceEvent(0, TraceEvent::kFamilyLimit),
                 "family [0-9]+ not below");
    Trace t;
    EXPECT_DEATH(t.append(0, TraceEvent::kFamilyLimit), "not below");
}

TEST(TraceDeathTest, CsvFamilyBeyondTheEventFieldIsAnInputError)
{
    // More families than an event can name: the row is rejected with
    // a diagnostic instead of reaching the event's assert.
    const std::string row =
        std::to_string(TraceEvent::kFamilyLimit) + "\n";
    EXPECT_EXIT(
        {
            std::istringstream in("5," + row);
            Trace::readCsv(in, "wide", std::size_t{1} << 30);
        },
        ::testing::ExitedWithCode(1),
        "wide row 1: family must be an integer in \\[0, 8388607\\]");
}

TEST(TraceDeathTest, DemandChecksTheLargestFamilyOnce)
{
    Trace t;
    t.append(seconds(5.0), 2);  // outside the window, still checked
    t.append(seconds(0.5), 0);
    t.sort();
    EXPECT_DEATH(t.demand(2, 0, seconds(1.0)), "trace family 2");
    EXPECT_EQ(t.demand(3, 0, seconds(1.0))[0], 1.0);
}

}  // namespace
}  // namespace proteus

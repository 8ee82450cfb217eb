#include "workload/generators.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

namespace proteus {
namespace {

TEST(GeneratorsTest, SteadyTraceHitsTargetRate)
{
    for (auto p : {ArrivalProcess::Uniform, ArrivalProcess::Poisson,
                   ArrivalProcess::Gamma}) {
        Trace t = steadyTrace(3, 200.0, seconds(60.0), p, 7);
        EXPECT_NEAR(t.averageQps(), 200.0, 12.0) << toString(p);
    }
}

TEST(GeneratorsTest, UniformArrivalsAreEvenlySpaced)
{
    Trace t = steadySingleFamilyTrace(0, 100.0, seconds(5.0),
                                      ArrivalProcess::Uniform);
    const auto& e = t.events();
    for (std::size_t i = 1; i < e.size(); ++i)
        EXPECT_NEAR(toSeconds(e[i].at - e[i - 1].at), 0.01, 2e-6);
}

TEST(GeneratorsTest, GammaIsBurstierThanPoisson)
{
    auto cv2 = [](const Trace& t) {
        const auto& e = t.events();
        std::vector<double> gaps;
        for (std::size_t i = 1; i < e.size(); ++i)
            gaps.push_back(toSeconds(e[i].at - e[i - 1].at));
        const double n = static_cast<double>(gaps.size());
        double mean = 0.0;
        for (double g : gaps)
            mean += g / n;
        double var = 0.0;
        for (double g : gaps)
            var += (g - mean) * (g - mean) / n;
        return var / (mean * mean);
    };
    Trace poisson = steadySingleFamilyTrace(
        0, 100.0, seconds(120.0), ArrivalProcess::Poisson, 11);
    Trace gamma = steadySingleFamilyTrace(
        0, 100.0, seconds(120.0), ArrivalProcess::Gamma, 11);
    // Squared coefficient of variation: ~1 for Poisson, ~1/shape = 20
    // for Gamma(0.05).
    EXPECT_NEAR(cv2(poisson), 1.0, 0.3);
    EXPECT_GT(cv2(gamma), 5.0);
}

TEST(GeneratorsTest, ZipfSplitFavorsFirstFamilies)
{
    Trace t = steadyTrace(9, 500.0, seconds(60.0),
                          ArrivalProcess::Poisson, 13);
    auto d = t.demand(9, 0, t.endTime());
    for (std::size_t f = 1; f < 9; ++f)
        EXPECT_GT(d[f - 1], d[f] * 0.8) << f;
    EXPECT_GT(d[0], d[8]);
}

TEST(GeneratorsTest, DiurnalTraceHasPeaksAboveBase)
{
    DiurnalTraceConfig cfg;
    cfg.duration = seconds(240.0);
    cfg.base_qps = 100.0;
    cfg.diurnal_amplitude_qps = 300.0;
    cfg.cycles = 1.0;
    Trace t = diurnalTrace(4, cfg);
    // Peak at mid-trace, trough at the edges.
    auto start = t.demand(4, 0, seconds(20.0));
    auto mid = t.demand(4, seconds(110.0), seconds(130.0));
    double start_total = start[0] + start[1] + start[2] + start[3];
    double mid_total = mid[0] + mid[1] + mid[2] + mid[3];
    EXPECT_GT(mid_total, start_total * 2.0);
}

TEST(GeneratorsTest, BurstTraceAlternatesPhases)
{
    BurstTraceConfig cfg;
    cfg.duration = seconds(120.0);
    cfg.low_qps = 50.0;
    cfg.high_qps = 500.0;
    cfg.phase = seconds(30.0);
    Trace t = burstTrace(2, cfg);
    auto low = t.demand(2, seconds(5.0), seconds(25.0));
    auto high = t.demand(2, seconds(35.0), seconds(55.0));
    EXPECT_NEAR(low[0] + low[1], 50.0, 15.0);
    EXPECT_NEAR(high[0] + high[1], 500.0, 50.0);
}

TEST(GeneratorsTest, SameSeedSameTrace)
{
    DiurnalTraceConfig cfg;
    cfg.duration = seconds(30.0);
    Trace a = diurnalTrace(3, cfg);
    Trace b = diurnalTrace(3, cfg);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a.events()[i].at, b.events()[i].at);
        EXPECT_EQ(a.events()[i].family, b.events()[i].family);
    }
}

TEST(GeneratorsTest, DifferentSeedsDiffer)
{
    DiurnalTraceConfig a_cfg;
    a_cfg.duration = seconds(30.0);
    a_cfg.seed = 1;
    DiurnalTraceConfig b_cfg = a_cfg;
    b_cfg.seed = 2;
    Trace a = diurnalTrace(3, a_cfg);
    Trace b = diurnalTrace(3, b_cfg);
    EXPECT_NE(a.size(), b.size());
}

TEST(GeneratorsTest, TracesAreTimeSorted)
{
    PipelineTraceConfig pipe;
    pipe.duration = seconds(30.0);
    const std::vector<Trace> traces = {
        steadyTrace(5, 300.0, seconds(30.0), ArrivalProcess::Gamma, 17),
        diurnalTrace(5, DiurnalTraceConfig{seconds(30.0)}),
        burstTrace(5, BurstTraceConfig{seconds(30.0)}),
        pipelineTrace({4, 0, 2}, pipe)};
    for (const Trace& t : traces) {
        const auto& e = t.events();
        for (std::size_t i = 1; i < e.size(); ++i)
            ASSERT_LE(e[i - 1].at, e[i].at) << i;
    }
}

/** (time, family) pairs of @p t, for whole-trace comparisons. */
std::vector<std::pair<Time, FamilyId>>
pairs(const Trace& t)
{
    std::vector<std::pair<Time, FamilyId>> out;
    for (const TraceEvent& e : t.events())
        out.emplace_back(e.at, e.family);
    return out;
}

TEST(GeneratorsTest, PipelineTraceMergesStreamsInStreamOrder)
{
    // Each entry stream is the single-family steady trace seeded
    // seed + index; the merged trace must order them as appending the
    // streams in index order and stable-sorting on time would. Uniform
    // arrivals put every event of one stream on the same instant as
    // one of the other's, and the entry families are listed in
    // descending order, so a tie broken by family fails.
    for (ArrivalProcess p :
         {ArrivalProcess::Uniform, ArrivalProcess::Poisson}) {
        for (std::vector<FamilyId> entries :
             {std::vector<FamilyId>{5}, std::vector<FamilyId>{5, 2},
              std::vector<FamilyId>{6, 4, 1}}) {
            PipelineTraceConfig cfg;
            cfg.qps = 50.0;
            cfg.duration = seconds(20.0);
            cfg.process = p;
            cfg.seed = 9;
            std::vector<std::pair<Time, FamilyId>> want;
            for (std::size_t i = 0; i < entries.size(); ++i) {
                const auto stream = pairs(steadySingleFamilyTrace(
                    entries[i], cfg.qps, cfg.duration, p, cfg.seed + i));
                want.insert(want.end(), stream.begin(), stream.end());
            }
            std::stable_sort(want.begin(), want.end(),
                             [](const auto& a, const auto& b) {
                                 return a.first < b.first;
                             });
            const auto got = pairs(pipelineTrace(entries, cfg));
            EXPECT_EQ(got, want) << toString(p) << " with "
                                 << entries.size() << " entries";
        }
    }
}

TEST(GeneratorsTest, DemandMatchesANaiveRecount)
{
    constexpr std::size_t kFamilies = 6;
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        BurstTraceConfig burst;
        burst.duration = seconds(90.0);
        burst.phase = seconds(20.0);
        burst.seed = seed;
        DiurnalTraceConfig diurnal;
        diurnal.duration = seconds(90.0);
        diurnal.seed = seed;
        const std::vector<Trace> traces = {
            steadyTrace(kFamilies, 400.0, seconds(90.0),
                        ArrivalProcess::Gamma, seed),
            burstTrace(kFamilies, burst), diurnalTrace(kFamilies, diurnal)};
        for (const Trace& t : traces) {
            const auto& e = t.events();
            ASSERT_GT(e.size(), 100u);
            // Whole seconds, windows cut exactly at arrivals (both ends
            // inclusive of ties), and windows running past the end.
            const std::vector<std::pair<Time, Time>> windows = {
                {0, seconds(60.0)},
                {seconds(13.0), seconds(14.0)},
                {e[e.size() / 3].at, e[2 * e.size() / 3].at},
                {e[17].at, e[17].at + 1},
                {e[e.size() / 2].at, t.endTime() + seconds(5.0)}};
            for (const auto& [from, to] : windows) {
                std::vector<double> naive(kFamilies, 0.0);
                for (const TraceEvent& ev : e) {
                    if (ev.at >= from && ev.at < to)
                        naive[ev.family] += 1.0;
                }
                for (double& q : naive)
                    q /= toSeconds(to - from);
                EXPECT_EQ(t.demand(kFamilies, from, to), naive)
                    << "seed " << seed << " [" << from << ", " << to
                    << ")";
            }
        }
    }
}

TEST(GeneratorsTest, FamiliesWithinRange)
{
    Trace t = diurnalTrace(4, DiurnalTraceConfig{seconds(30.0)});
    for (const auto& e : t.events())
        EXPECT_LT(e.family, 4u);
}

}  // namespace
}  // namespace proteus

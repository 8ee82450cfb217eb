#include "bench_core.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <sstream>

namespace perfbench {

namespace {

/** 1-based nearest rank of percentile @p p among @p n samples. */
std::size_t
nearestRank(std::size_t n, double p)
{
    const double exact = std::ceil(p / 100.0 * static_cast<double>(n));
    const auto rank = static_cast<std::size_t>(std::max(exact, 1.0));
    return std::min(rank, n);
}

/** Incremental FNV-1a over raw bytes. */
class Fnv
{
  public:
    template <typename T>
    void
    add(const T& value)
    {
        unsigned char bytes[sizeof(T)];
        std::memcpy(bytes, &value, sizeof(T));
        for (unsigned char b : bytes) {
            hash_ ^= b;
            hash_ *= 0x100000001b3ULL;
        }
    }

    void
    add(const proteus::IntervalCounters& c)
    {
        add(c.arrivals);
        add(c.served);
        add(c.served_late);
        add(c.dropped);
        add(c.accuracy_sum);
    }

    std::uint64_t value() const { return hash_; }

  private:
    std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

}  // namespace

bool
percentileSupported(std::size_t n, double p)
{
    if (n == 0)
        return false;
    return n - nearestRank(n, p) >= kMinSamplesBeyond;
}

double
percentile(std::vector<double> samples, double p)
{
    if (samples.empty())
        return 0.0;
    const std::size_t k = nearestRank(samples.size(), p) - 1;
    std::nth_element(samples.begin(), samples.begin() + static_cast<long>(k),
                     samples.end());
    return samples[k];
}

double
median(std::vector<double> samples)
{
    return percentile(std::move(samples), 50.0);
}

bool
DecisionDetector::observe(const proteus::AllocatorSolveMeta& meta)
{
    const bool fresh = meta.wall_seconds != last_.wall_seconds ||
                       meta.nodes != last_.nodes ||
                       meta.simplex_iterations != last_.simplex_iterations ||
                       meta.gap != last_.gap ||
                       meta.backoff_steps != last_.backoff_steps;
    last_ = meta;
    return fresh;
}

SolveTruncation
classifySolve(const proteus::AllocatorSolveMeta& meta,
              double time_limit_sec)
{
    SolveTruncation t;
    t.budget_exhausted = meta.work_budget > 0 &&
                         meta.simplex_iterations >= meta.work_budget;
    t.wall_limited = !t.budget_exhausted && time_limit_sec > 0.0 &&
                     meta.wall_seconds >= time_limit_sec;
    return t;
}

std::string
checkConservation(const proteus::RunSummary& summary,
                  std::size_t in_flight, std::size_t trace_arrivals)
{
    std::ostringstream err;
    const std::uint64_t accounted =
        summary.served + summary.served_late + summary.dropped;
    if (summary.arrivals != accounted) {
        err << "arrivals " << summary.arrivals << " != served "
            << summary.served << " + late " << summary.served_late
            << " + dropped " << summary.dropped << "; ";
    }
    if (in_flight != 0)
        err << in_flight << " queries still in flight after finishRun; ";
    if (summary.arrivals != trace_arrivals) {
        err << "run counted " << summary.arrivals
            << " arrivals but the trace holds " << trace_arrivals << "; ";
    }
    return err.str();
}

std::uint64_t
outcomeDigest(const proteus::RunResult& r)
{
    Fnv h;
    const proteus::RunSummary& s = r.summary;
    h.add(s.arrivals);
    h.add(s.served);
    h.add(s.served_late);
    h.add(s.dropped);
    h.add(s.avg_throughput_qps);
    h.add(s.avg_demand_qps);
    h.add(s.effective_accuracy);
    h.add(s.max_accuracy_drop);
    h.add(s.slo_violation_ratio);
    for (const proteus::IntervalSnapshot& snap : r.timeline) {
        h.add(snap.start);
        h.add(snap.total);
        for (const proteus::IntervalCounters& c : snap.per_family)
            h.add(c);
    }
    for (const proteus::IntervalCounters& c : r.family_totals)
        h.add(c);
    h.add(r.reallocations);
    h.add(r.mean_batch_size);
    h.add(r.shed);
    h.add(r.forwarded);
    for (const proteus::PipelineRunStats& p : r.pipelines) {
        h.add(p.stats.served);
        h.add(p.stats.served_late);
        h.add(p.stats.dropped);
        for (const proteus::StageStats& st : p.stats.stages) {
            h.add(st.forwarded);
            h.add(st.dropped);
        }
    }
    return h.value();
}

}  // namespace perfbench

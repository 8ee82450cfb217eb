#include "common/stats.h"

#include <algorithm>

namespace proteus {

void
WindowedRate::record(Time now)
{
    events_.push_back(now);
    evict(now);
}

void
WindowedRate::reserveForRate(double qps)
{
    if (qps <= 0.0)
        return;
    const double expected = qps * toSeconds(window_);
    events_.reserve(static_cast<std::size_t>(expected * 2.0) + 8);
}

void
WindowedRate::evict(Time now) const
{
    while (!events_.empty() && events_.front() < now - window_)
        events_.pop_front();
}

double
WindowedRate::rate(Time now) const
{
    evict(now);
    return static_cast<double>(events_.size()) / toSeconds(window_);
}

std::size_t
WindowedRate::countInWindow(Time now) const
{
    evict(now);
    return events_.size();
}

double
percentileSorted(const std::vector<double>& sorted, double p)
{
    if (sorted.empty())
        return 0.0;
    double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
    rank = std::max(rank, 0.0);
    auto lo = std::min(static_cast<std::size_t>(rank),
                       sorted.size() - 1);
    auto hi = std::min(lo + 1, sorted.size() - 1);
    double frac = rank - static_cast<double>(lo);
    return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

double
percentile(std::vector<double> values, double p)
{
    std::sort(values.begin(), values.end());
    return percentileSorted(values, p);
}

std::vector<double>
percentiles(std::vector<double> values, const std::vector<double>& ps)
{
    std::sort(values.begin(), values.end());
    std::vector<double> out;
    out.reserve(ps.size());
    for (double p : ps)
        out.push_back(percentileSorted(values, p));
    return out;
}

}  // namespace proteus

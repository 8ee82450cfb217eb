/**
 * @file
 * Small statistics helpers: sliding-window rate estimation, used by
 * the load balancers' demand monitor, and percentiles, used by the
 * trace tools.
 */

#ifndef PROTEUS_COMMON_STATS_H_
#define PROTEUS_COMMON_STATS_H_

#include <cstddef>
#include <vector>

#include "common/alloc/ring_queue.h"
#include "common/types.h"

namespace proteus {

/**
 * Sliding-window event counter used to estimate query demand (QPS)
 * over the most recent window of simulated time.
 */
class WindowedRate
{
  public:
    /** @param window length of the observation window. */
    explicit WindowedRate(Duration window = seconds(1.0))
        : window_(window)
    {}

    /** Record one event at time @p now. */
    void record(Time now);

    /** @return events per second over [now - window, now]. */
    double rate(Time now) const;

    /** @return raw event count inside the window ending at @p now. */
    std::size_t countInWindow(Time now) const;

    /**
     * Pre-size the ring for an expected sustained rate of @p qps with
     * 2x headroom, so steady-state recording never grows the buffer
     * (capacity only — recorded events and rates are unaffected).
     */
    void reserveForRate(double qps);

  private:
    void evict(Time now) const;

    Duration window_;
    /** Ring rather than deque: a steady-state window recycles its
     *  high-water buffer instead of churning deque chunks per event. */
    mutable alloc::RingQueue<Time> events_;
};

/** @return the p-th percentile (0..100) of @p values; 0 when empty. */
double percentile(std::vector<double> values, double p);

/**
 * @return the p-th percentile of @p sorted, which must already be in
 * ascending order; 0 when empty. Linear interpolation between ranks.
 */
double percentileSorted(const std::vector<double>& sorted, double p);

/**
 * @return one percentile per entry of @p ps (0..100), sorting
 * @p values once. Equivalent to calling percentile() per p but with a
 * single O(n log n) sort instead of one per percentile.
 */
std::vector<double> percentiles(std::vector<double> values,
                                const std::vector<double>& ps);

}  // namespace proteus

#endif  // PROTEUS_COMMON_STATS_H_

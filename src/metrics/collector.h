/**
 * @file
 * Metrics collection: per-interval timeseries and run summaries using
 * the paper's evaluation metrics (§6.1.4):
 *
 *  - Throughput: queries served per second.
 *  - Effective accuracy: mean normalized accuracy of served queries.
 *  - Maximum accuracy drop: 100 minus the minimum interval effective
 *    accuracy over the run.
 *  - SLO violation ratio: (late + dropped) / arrivals.
 */

#ifndef PROTEUS_METRICS_COLLECTOR_H_
#define PROTEUS_METRICS_COLLECTOR_H_

#include <cstdint>
#include <vector>

#include "common/types.h"
#include "core/query.h"
#include "sim/simulator.h"

namespace proteus {

/** Counters accumulated over one snapshot interval. */
struct IntervalCounters {
    std::uint64_t arrivals = 0;
    std::uint64_t served = 0;       ///< completed within SLO
    std::uint64_t served_late = 0;  ///< completed after the deadline
    std::uint64_t dropped = 0;
    double accuracy_sum = 0.0;      ///< over served + served_late

    /** Total SLO violations in the interval. */
    std::uint64_t
    violations() const
    {
        return served_late + dropped;
    }

    /** Queries completed (on time or late). */
    std::uint64_t
    completed() const
    {
        return served + served_late;
    }

    /** Mean accuracy of completed queries (0 when none). */
    double
    effectiveAccuracy() const
    {
        return completed() ? accuracy_sum /
                                 static_cast<double>(completed())
                           : 0.0;
    }
};

/**
 * One device outage as seen by the metrics pipeline: opened when the
 * fault subsystem reports a crash, closed when recovery begins (or at
 * finalize for devices still down). SLO violations completing inside
 * the window are attributed to it — an over-approximation (a
 * concurrent burst also violates), but exactly the attribution the
 * paper-style fault figures plot.
 */
struct FaultWindow {
    DeviceId device = kInvalidId;
    Time start = 0;
    /** kNoTime while the outage is still open. */
    Time end = kNoTime;
    /** Serving capacity (QPS) the device carried when it died. */
    double capacity_lost_qps = 0.0;
    /** SLO violations completed during the outage. */
    std::uint64_t violations_during = 0;

    /** @return outage length (up to @p now when still open). */
    Duration
    downtime(Time now) const
    {
        return (end == kNoTime ? now : end) - start;
    }
};

/** One entry of the run timeseries. */
struct IntervalSnapshot {
    Time start = 0;
    Duration length = 0;
    IntervalCounters total;
    std::vector<IntervalCounters> per_family;
    /** Devices down at the end of the interval (fault injection). */
    int devices_down = 0;

    double
    demandQps() const
    {
        return static_cast<double>(total.arrivals) / toSeconds(length);
    }

    double
    throughputQps() const
    {
        return static_cast<double>(total.completed()) /
               toSeconds(length);
    }
};

/** Whole-run summary in the paper's §6.1.4 metrics. */
struct RunSummary {
    std::uint64_t arrivals = 0;
    std::uint64_t served = 0;
    std::uint64_t served_late = 0;
    std::uint64_t dropped = 0;

    double avg_throughput_qps = 0.0;
    double avg_demand_qps = 0.0;
    double effective_accuracy = 0.0;   ///< over all completed queries
    double max_accuracy_drop = 0.0;    ///< 100 - min interval accuracy
    double slo_violation_ratio = 0.0;  ///< (late+dropped)/arrivals

    // Fault-injection accounting (0 on fault-free runs).
    std::uint64_t fault_count = 0;        ///< device outages recorded
    double total_downtime_s = 0.0;        ///< summed outage lengths
    double mean_recovery_s = 0.0;         ///< mean closed-outage length
    std::uint64_t fault_violations = 0;   ///< violations inside outages

    std::uint64_t
    violations() const
    {
        return served_late + dropped;
    }
};

/** Per-family query counters building the timeseries and summary. */
class MetricsCollector
{
  public:
    MetricsCollector(Simulator* sim, std::size_t num_families,
                     Duration interval = seconds(10.0));

    /** Start the periodic snapshot task. */
    void start();

    /** A query of @p family entered the system. */
    void countArrival(FamilyId family);

    /** @p query reached its terminal state (counted once). */
    void countFinished(const Query& query);

    /**
     * A device died carrying @p capacity_lost_qps of provisioned
     * serving capacity: open a fault window at the current time.
     */
    void onDeviceDown(DeviceId device, double capacity_lost_qps);

    /** The device's recovery began: close its open fault window. */
    void onDeviceUp(DeviceId device);

    /** @return every fault window recorded so far. */
    const std::vector<FaultWindow>& faultWindows() const
    {
        return fault_windows_;
    }

    /** @return devices currently down. */
    int devicesDown() const { return devices_down_; }

    /** Commit the trailing partial interval; call once after run(). */
    void finalize();

    /** @return the committed interval timeseries. */
    const std::vector<IntervalSnapshot>& timeline() const
    {
        return timeline_;
    }

    /** @return the run summary (valid after finalize()). */
    RunSummary summary() const;

    /** @return cumulative per-family counters. */
    const std::vector<IntervalCounters>& familyTotals() const
    {
        return family_totals_;
    }

  private:
    void commitInterval();

    Simulator* sim_;
    std::size_t num_families_;
    Duration interval_;

    Time interval_start_ = 0;
    IntervalCounters current_;
    std::vector<IntervalCounters> current_family_;

    std::vector<IntervalSnapshot> timeline_;
    IntervalCounters totals_;
    std::vector<IntervalCounters> family_totals_;
    std::vector<FaultWindow> fault_windows_;
    int devices_down_ = 0;
    bool finalized_ = false;
};

}  // namespace proteus

#endif  // PROTEUS_METRICS_COLLECTOR_H_

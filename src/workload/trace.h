/**
 * @file
 * Query traces: the time-ordered stream of (arrival time, query type)
 * pairs that drives an experiment, plus helpers to inspect demand.
 */

#ifndef PROTEUS_WORKLOAD_TRACE_H_
#define PROTEUS_WORKLOAD_TRACE_H_

#include <iosfwd>
#include <string>
#include <vector>

#include "common/types.h"

namespace proteus {

/** Latest arrival a trace file may hold: 1e6 s (about 11.6 days). */
inline constexpr Time kMaxTraceTime = seconds(1e6);

/**
 * One query arrival in a trace, packed into one 64-bit word so that a
 * trace of N arrivals holds 8N bytes. `at` keeps the sign bit of Time
 * (differences of arrival times stay signed) and 40 value bits, which
 * hold every time up to kMaxTraceTime; `family` takes the other 23
 * bits. Events are built only through the checked constructor.
 */
struct TraceEvent {
    static constexpr int kTimeBits = 41;
    static constexpr int kFamilyBits = 64 - kTimeBits;
    /** Families are numbered below this. */
    static constexpr FamilyId kFamilyLimit = FamilyId{1} << kFamilyBits;

    /** Asserts 0 <= @p time <= kMaxTraceTime and @p fam < kFamilyLimit. */
    TraceEvent(Time time, FamilyId fam);

    Time at : kTimeBits;
    FamilyId family : kFamilyBits;
};

static_assert(sizeof(TraceEvent) == 8, "a trace event is one word");
static_assert(kMaxTraceTime < Time{1} << (TraceEvent::kTimeBits - 1),
              "kMaxTraceTime must fit the value bits of TraceEvent::at");

/** A time-sorted stream of query arrivals. */
class Trace
{
  public:
    Trace() = default;

    /** Construct from events; sorts them stably by time. */
    explicit Trace(std::vector<TraceEvent> events);

    /** Append one arrival (must keep time order or call sort()). */
    void append(Time at, FamilyId family);

    /**
     * Restore time order after unordered appends. The sort is stable
     * on time alone: arrivals at one instant keep their append order.
     * An already sorted trace is left as it is, without a sort pass.
     */
    void sort();

    /**
     * Merge two sorted traces into one. Arrivals at one instant keep
     * their order within each trace, and @p first's come before
     * @p second's: the order a stable sort of first's events followed
     * by second's gives.
     */
    static Trace merge(const Trace& first, const Trace& second);

    /** @return all events in time order. */
    const std::vector<TraceEvent>& events() const { return events_; }

    /** @return number of arrivals. */
    std::size_t size() const { return events_.size(); }

    /** @return true when there are no arrivals. */
    bool empty() const { return events_.empty(); }

    /** @return the time of the last arrival (0 when empty). */
    Time endTime() const;

    /**
     * Demand in QPS per family over [from, to).
     * @param num_families size of the returned vector; every family
     *        in the trace must lie below it.
     */
    std::vector<double> demand(std::size_t num_families, Time from,
                               Time to) const;

    /** Average aggregate QPS over the whole trace. */
    double averageQps() const;

    /** Write as CSV ("time_us,family") for offline inspection. */
    void writeCsv(std::ostream& os) const;

    /**
     * Parse a trace from CSV as produced by writeCsv() (an optional
     * "time_us,family" header is skipped). A row is user input: one
     * without a comma, with a time outside [0, kMaxTraceTime] or a
     * family outside [0, min(num_families, TraceEvent::kFamilyLimit))
     * is PROTEUS_FATAL (exit 1) naming @p source and the row's line
     * number.
     */
    static Trace readCsv(std::istream& is, const std::string& source,
                         std::size_t num_families);

  private:
    std::vector<TraceEvent> events_;
    /** Largest family appended so far (0 when empty). */
    FamilyId max_family_ = 0;
};

}  // namespace proteus

#endif  // PROTEUS_WORKLOAD_TRACE_H_

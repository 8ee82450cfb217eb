#include "workload/trace.h"

#include <algorithm>
#include <charconv>
#include <istream>
#include <ostream>
#include <string>
#include <string_view>

#include "common/logging.h"

namespace proteus {

Trace::Trace(std::vector<TraceEvent> events)
    : events_(std::move(events))
{
    sort();
}

void
Trace::append(Time at, FamilyId family)
{
    events_.push_back(TraceEvent{at, family});
}

void
Trace::sort()
{
    std::stable_sort(events_.begin(), events_.end(),
                     [](const TraceEvent& a, const TraceEvent& b) {
                         return a.at < b.at;
                     });
}

Time
Trace::endTime() const
{
    return events_.empty() ? 0 : events_.back().at;
}

std::vector<double>
Trace::demand(std::size_t num_families, Time from, Time to) const
{
    PROTEUS_ASSERT(to > from, "empty demand window");
    std::vector<double> qps(num_families, 0.0);
    auto lo = std::lower_bound(
        events_.begin(), events_.end(), from,
        [](const TraceEvent& e, Time t) { return e.at < t; });
    for (auto it = lo; it != events_.end() && it->at < to; ++it) {
        PROTEUS_ASSERT(it->family < num_families,
                       "trace family out of range");
        qps[it->family] += 1.0;
    }
    double window_s = toSeconds(to - from);
    for (auto& q : qps)
        q /= window_s;
    return qps;
}

double
Trace::averageQps() const
{
    if (events_.empty())
        return 0.0;
    double span = toSeconds(std::max<Time>(endTime(), 1));
    return static_cast<double>(events_.size()) / span;
}

void
Trace::writeCsv(std::ostream& os) const
{
    os << "time_us,family\n";
    for (const auto& e : events_)
        os << e.at << "," << e.family << "\n";
}

namespace {

/**
 * Parse all of @p field (surrounding blanks allowed) as an integer in
 * [0, hi]. @return false when it is not one.
 */
bool
parseField(std::string_view field, std::int64_t hi, std::int64_t* out)
{
    const auto blank = [](char c) {
        return c == ' ' || c == '\t' || c == '\r';
    };
    while (!field.empty() && blank(field.front()))
        field.remove_prefix(1);
    while (!field.empty() && blank(field.back()))
        field.remove_suffix(1);
    const char* end = field.data() + field.size();
    const auto [ptr, ec] = std::from_chars(field.data(), end, *out);
    return !field.empty() && ec == std::errc() && ptr == end &&
           *out >= 0 && *out <= hi;
}

}  // namespace

Trace
Trace::readCsv(std::istream& is, const std::string& source,
               std::size_t num_families)
{
    Trace trace;
    std::string line;
    bool first = true;
    for (std::size_t row = 1; std::getline(is, line); ++row) {
        if (line.empty())
            continue;
        if (first && line.rfind("time_us", 0) == 0) {
            first = false;
            continue;
        }
        first = false;
        const std::string_view text(line);
        const std::size_t comma = text.find(',');
        if (comma == std::string_view::npos)
            PROTEUS_FATAL(source, " row ", row,
                          ": expected \"time_us,family\", got \"", line,
                          "\"");
        std::int64_t at = 0;
        if (!parseField(text.substr(0, comma), kMaxTraceTime, &at))
            PROTEUS_FATAL(source, " row ", row,
                          ": time_us must be an integer in [0, ",
                          kMaxTraceTime, "], got \"",
                          text.substr(0, comma), "\"");
        std::int64_t family = 0;
        const auto max_family =
            static_cast<std::int64_t>(num_families) - 1;
        if (!parseField(text.substr(comma + 1), max_family, &family))
            PROTEUS_FATAL(source, " row ", row,
                          ": family must be an integer in [0, ",
                          max_family, "], got \"", text.substr(comma + 1),
                          "\"");
        trace.append(at, static_cast<FamilyId>(family));
    }
    trace.sort();
    return trace;
}

}  // namespace proteus

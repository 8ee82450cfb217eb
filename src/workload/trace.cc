#include "workload/trace.h"

#include <algorithm>
#include <charconv>
#include <istream>
#include <iterator>
#include <ostream>
#include <string>
#include <string_view>

#include "common/logging.h"

namespace proteus {

namespace {

/** Largest value the non-negative range of TraceEvent::at holds. */
constexpr Time kTimeMask = (Time{1} << (TraceEvent::kTimeBits - 1)) - 1;

bool
earlier(const TraceEvent& a, const TraceEvent& b)
{
    return a.at < b.at;
}

}  // namespace

TraceEvent::TraceEvent(Time time, FamilyId fam)
    : at(time & kTimeMask), family(fam & (kFamilyLimit - 1))
{
    // The masks only keep -Wconversion quiet: after these checks they
    // change no bit.
    PROTEUS_ASSERT(time >= 0 && time <= kMaxTraceTime,
                   "arrival time ", time, " outside [0, ", kMaxTraceTime,
                   "]");
    PROTEUS_ASSERT(fam < kFamilyLimit, "family ", fam, " not below ",
                   kFamilyLimit);
}

Trace::Trace(std::vector<TraceEvent> events)
    : events_(std::move(events))
{
    for (const TraceEvent& e : events_)
        max_family_ = std::max<FamilyId>(max_family_, e.family);
    sort();
}

void
Trace::append(Time at, FamilyId family)
{
    events_.emplace_back(at, family);
    max_family_ = std::max(max_family_, family);
}

void
Trace::sort()
{
    if (!std::is_sorted(events_.begin(), events_.end(), earlier))
        std::stable_sort(events_.begin(), events_.end(), earlier);
}

Trace
Trace::merge(const Trace& first, const Trace& second)
{
    Trace out;
    out.events_.reserve(first.size() + second.size());
    // std::merge is stable: on equal times it takes @p first's event.
    std::merge(first.events_.begin(), first.events_.end(),
               second.events_.begin(), second.events_.end(),
               std::back_inserter(out.events_), earlier);
    out.max_family_ = std::max(first.max_family_, second.max_family_);
    return out;
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
    PROTEUS_ASSERT(events_.empty() || max_family_ < num_families,
                   "trace family ", max_family_, " out of range");
    const auto before = [](const TraceEvent& e, Time t) {
        return e.at < t;
    };
    const auto lo =
        std::lower_bound(events_.begin(), events_.end(), from, before);
    const auto hi = std::lower_bound(lo, events_.end(), to, before);
    std::vector<std::size_t> counts(num_families, 0);
    for (auto it = lo; it != hi; ++it)
        ++counts[it->family];
    // Counts convert exactly (they are far below 2^53), so the result
    // is the one a per-event `+= 1.0` gives.
    const double window_s = toSeconds(to - from);
    std::vector<double> qps(num_families);
    for (std::size_t f = 0; f < num_families; ++f)
        qps[f] = static_cast<double>(counts[f]) / window_s;
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
        const std::size_t families =
            std::min<std::size_t>(num_families, TraceEvent::kFamilyLimit);
        const auto max_family = static_cast<std::int64_t>(families) - 1;
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

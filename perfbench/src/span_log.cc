#include "span_log.h"

#include <fstream>
#include <iomanip>

namespace perfbench {

std::uint64_t
SpanLog::begin(const char* name, std::uint64_t parent)
{
    Span s;
    s.name = name;
    s.parent = parent;
    s.start = nowSeconds();
    spans_.push_back(std::move(s));
    return spans_.size();
}

void
SpanLog::end(std::uint64_t id,
             std::vector<std::pair<const char*, std::int64_t>> args)
{
    Span& s = spans_[id - 1];
    s.end = nowSeconds();
    s.args = std::move(args);
}

bool
SpanLog::writeChromeTrace(const std::string& path) const
{
    std::ofstream out(path);
    if (!out)
        return false;
    const double origin = spans_.empty() ? 0.0 : spans_.front().start;
    out << std::fixed << std::setprecision(3);
    out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        out << (i ? ",\n" : "\n") << "{\"name\":\"" << s.name
            << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
            << (s.start - origin) * 1e6
            << ",\"dur\":" << (s.end - s.start) * 1e6
            << ",\"args\":{\"id\":" << i + 1 << ",\"parent\":" << s.parent;
        for (const auto& [key, value] : s.args)
            out << ",\"" << key << "\":" << value;
        out << "}}";
    }
    out << "\n]}\n";
    return static_cast<bool>(out);
}

}  // namespace perfbench

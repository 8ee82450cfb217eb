/**
 * @file
 * The benchmark's own spans: one per call it makes into the serving
 * system, timed on the benchmark's clock, kept in memory and written
 * once at exit as Chrome trace-event JSON (load it in
 * chrome://tracing or Perfetto).
 */

#ifndef PERFBENCH_SPAN_LOG_H_
#define PERFBENCH_SPAN_LOG_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/** Seconds on the benchmark's monotonic clock. */
inline double
nowSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** In-memory span recorder. Span 0 means "no parent". */
class SpanLog
{
  public:
    /** Open span @p name under @p parent; @return its id. */
    std::uint64_t begin(const char* name, std::uint64_t parent = 0);

    /** Close span @p id, attaching integer @p args. */
    void end(std::uint64_t id,
             std::vector<std::pair<const char*, std::int64_t>> args = {});

    /** @return the number of spans recorded. */
    std::size_t size() const { return spans_.size(); }

    /** Write every span as Chrome trace-event JSON; @return success. */
    bool writeChromeTrace(const std::string& path) const;

  private:
    struct Span {
        const char* name = "";
        std::uint64_t parent = 0;
        double start = 0.0;
        double end = 0.0;
        std::vector<std::pair<const char*, std::int64_t>> args;
    };

    std::vector<Span> spans_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPAN_LOG_H_

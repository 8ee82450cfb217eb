/**
 * @file
 * The benchmark's own logic, kept apart from main.cc so it can be
 * unit-tested: percentile selection, the detector that tells a
 * decision slice from a quiet one, solver-truncation inference, the
 * conservation check and the simulated-outcome digest.
 */

#ifndef PERFBENCH_BENCH_CORE_H_
#define PERFBENCH_BENCH_CORE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/allocation.h"
#include "core/serving_system.h"
#include "metrics/collector.h"

namespace perfbench {

/** Samples a tail percentile must leave beyond it to be reported. */
inline constexpr std::size_t kMinSamplesBeyond = 10;

/**
 * @return true when percentile @p p (0..100, nearest rank) of @p n
 * samples has at least kMinSamplesBeyond samples ranked above it.
 */
bool percentileSupported(std::size_t n, double p);

/**
 * @return the nearest-rank percentile @p p (0..100) of @p samples;
 * 0 when empty. The median of an even count is the lower middle.
 */
double percentile(std::vector<double> samples, double p);

/** @return percentile(samples, 50). */
double median(std::vector<double> samples);

/**
 * Tells, after each advanceTo() slice, whether the allocator solved
 * in that slice. The allocator overwrites its last-solve record on
 * every call, so a record that differs from the previous one marks a
 * new decision. A slice can hold at most one decision when slices are
 * shorter than the controller's minimum decision spacing.
 */
class DecisionDetector
{
  public:
    /** Remember @p meta (the set-up solve) as the reference. */
    void reset(const proteus::AllocatorSolveMeta& meta) { last_ = meta; }

    /** @return true when @p meta records a solve newer than the last. */
    bool observe(const proteus::AllocatorSolveMeta& meta);

  private:
    proteus::AllocatorSolveMeta last_;
};

/** How a solve ended, inferred from its record. */
struct SolveTruncation {
    /** Stopped at the deterministic simplex-iteration budget. */
    bool budget_exhausted = false;
    /** Stopped at the wall-clock backstop (load-dependent outcome). */
    bool wall_limited = false;
};

/**
 * Classify @p meta against the allocator's limits: a solve that used
 * its whole iteration budget was truncated by work; one that ran for
 * the whole @p time_limit_sec without using the budget was cut by the
 * wall clock.
 */
SolveTruncation classifySolve(const proteus::AllocatorSolveMeta& meta,
                              double time_limit_sec);

/**
 * Query conservation after finishRun(): every arrival is served, late
 * or dropped, the pool holds no query, and the run saw exactly the
 * trace's arrivals. @return an empty string when it holds, otherwise
 * what is wrong.
 */
std::string checkConservation(const proteus::RunSummary& summary,
                              std::size_t in_flight,
                              std::size_t trace_arrivals);

/**
 * @return a 64-bit FNV-1a digest of every simulated outcome of @p r:
 * the summary, the interval timeline, per-family totals, plan, batch,
 * shed and pipeline counters. Wall-clock values are not part of it.
 */
std::uint64_t outcomeDigest(const proteus::RunResult& r);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_CORE_H_

/**
 * @file
 * StageRouter: moves pipeline queries from stage to stage (DESIGN.md,
 * "Pipeline serving").
 *
 * ServingSystem's terminal step calls advance() on every query that
 * reaches a terminal state. For single-family queries it is one
 * integer compare. For a pipeline query that completed an
 * intermediate stage it folds the stage's accuracy into the product,
 * advances the stage cursor and retargets the query at the next
 * stage's family; the caller then forwards it instead of counting it.
 * Terminal outcomes (final stage, or a drop anywhere) fold the product
 * into the query's accuracy and remap it to the entry family, so the
 * entry family's metrics counters ARE the end-to-end pipeline numbers.
 *
 * Zero hot-path allocations: the per-stage counters are preallocated
 * per (pipeline, stage).
 */

#ifndef PROTEUS_PIPELINE_STAGE_ROUTER_H_
#define PROTEUS_PIPELINE_STAGE_ROUTER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.h"
#include "core/query.h"
#include "obs/trace.h"
#include "pipeline/pipeline.h"

namespace proteus {

/** Per-stage counters kept by the stage router. */
struct StageStats {
    /** Stage completions handed to the next stage. */
    std::uint64_t forwarded = 0;
    /** Queries that terminated (dropped) at this stage. */
    std::uint64_t dropped = 0;
};

/**
 * Per-pipeline counters surfaced in RunResult. The end-to-end fields
 * are the entry family's terminal counts.
 */
struct PipelineStats {
    /** End-to-end completions within the e2e SLO. */
    std::uint64_t served = 0;
    /** End-to-end completions past the e2e deadline. */
    std::uint64_t served_late = 0;
    /** Queries dropped at any stage. */
    std::uint64_t dropped = 0;
    std::vector<StageStats> stages;
};

/** Named per-pipeline counters surfaced in RunResult. */
struct PipelineRunStats {
    std::string name;
    PipelineStats stats;
};

/** Advances finished pipeline stages to the next family. */
class StageRouter
{
  public:
    explicit StageRouter(const CompiledPipelines* pipelines);

    StageRouter(const StageRouter&) = delete;
    StageRouter& operator=(const StageRouter&) = delete;

    /** Attach the span tracer (nullptr = tracing off, the default). */
    void setTracer(obs::Tracer* tracer) { tracer_ = tracer; }

    /**
     * Step @p query, which just reached a terminal state at its
     * current stage.
     * @return true when it completed an intermediate stage and now
     *         targets the next stage (still in flight, to be
     *         forwarded); false when its life ends here.
     */
    bool advance(Query* query);

    /** @return per-stage counters of pipeline @p p. */
    const std::vector<StageStats>&
    stageStats(PipelineId p) const
    {
        return stages_[p];
    }

    /** @return stage completions forwarded across all pipelines. */
    std::uint64_t forwarded() const { return forwarded_; }

  private:
    const CompiledPipelines* pipelines_;
    obs::Tracer* tracer_ = nullptr;
    std::vector<std::vector<StageStats>> stages_;
    std::uint64_t forwarded_ = 0;
};

}  // namespace proteus

#endif  // PROTEUS_PIPELINE_STAGE_ROUTER_H_

#include "pipeline/stage_router.h"

#include "common/logging.h"

namespace proteus {

StageRouter::StageRouter(const CompiledPipelines* pipelines)
    : pipelines_(pipelines)
{
    PROTEUS_ASSERT(pipelines != nullptr && !pipelines->empty(),
                   "stage router without pipelines");
    stages_.resize(pipelines->size());
    for (PipelineId p = 0; p < pipelines->size(); ++p)
        stages_[p].resize(pipelines->pipeline(p).stages.size());
}

bool
StageRouter::advance(Query* q)
{
    if (q->pipeline == kInvalidId)
        return false;
    const CompiledPipeline& pipe = pipelines_->pipeline(q->pipeline);
    std::vector<StageStats>& stages = stages_[q->pipeline];
    const bool completed = q->status == QueryStatus::Served ||
                           q->status == QueryStatus::ServedLate;

    if (completed && q->stage < q->last_stage) {
        // Intermediate completion: fold this stage's accuracy into
        // the running product, advance the cursor and retarget at the
        // next stage's family. The query is still in flight.
        ++stages[q->stage].forwarded;
        ++forwarded_;
        q->acc_product *= q->accuracy / 100.0;
        ++q->stage;
        q->family = pipe.stages[q->stage].family;
        q->status = QueryStatus::Pending;
        q->accuracy = 0.0;
        q->served_by = kInvalidId;
        if (tracer_) {
            obs::LinkRecord link;
            link.kind = obs::LinkKind::StageHandoff;
            link.at = q->completion;
            link.from = q->id;
            link.to = q->stage;
            link.aux = q->pipeline;
            tracer_->recordLink(link);
        }
        return true;
    }

    // Terminal: e2e accuracy is the product across stages (0 on a
    // drop), and the query is remapped to the entry family so the
    // per-family counters, SLO monitor and timeline channels report
    // end-to-end numbers.
    if (completed) {
        q->accuracy = 100.0 * q->acc_product * (q->accuracy / 100.0);
    } else {
        q->accuracy = 0.0;
        ++stages[q->stage].dropped;
    }
    q->family = pipe.stages.front().family;
    return false;
}

}  // namespace proteus

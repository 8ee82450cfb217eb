#include "core/batching.h"

#include <algorithm>

#include "common/logging.h"

namespace proteus {

int
countHopeless(const WorkerView& view)
{
    // The queue is FIFO and a worker serves one family, so deadlines
    // are non-decreasing: hopeless queries form a prefix.
    const Duration lat1 = view.profile->latencyFor(1);
    int n = 0;
    for (const Query* q : *view.queue) {
        if (q->deadline >= view.now + lat1)
            break;
        ++n;
    }
    return n;
}

BatchAction
ProteusBatching::decide(const WorkerView& view)
{
    BatchAction action;
    const auto& queue = *view.queue;
    if (queue.empty())
        return action;

    const BatchProfile& prof = *view.profile;
    PROTEUS_ASSERT(prof.usable(), "policy invoked on unusable profile");
    const int max_batch = prof.max_batch;

    if (drop_hopeless_)
        action.drop = countHopeless(view);
    int q = static_cast<int>(queue.size()) - action.drop;
    if (q <= 0)
        return action;

    if (q >= max_batch) {
        // Backlog: the device must run full batches to have any
        // chance of draining. Shed head queries that cannot survive
        // the batch they would ride in — serving them late would
        // burn the same violation at a far higher capacity cost
        // (trimming the batch to rescue a stale head spirals into
        // tiny batches under sustained load).
        if (drop_hopeless_) {
            while (q > 0) {
                int k = std::min(q, max_batch);
                const Query* head =
                    queue[static_cast<std::size_t>(action.drop)];
                if (head->deadline >= view.now + prof.latencyFor(k))
                    break;
                ++action.drop;
                --q;
            }
        }
        if (q <= 0)
            return action;
        action.execute = std::min(q, max_batch);
        return action;
    }

    const Time t_exp1 =
        queue[static_cast<std::size_t>(action.drop)]->deadline;

    // Largest batch that still lets the head query meet its deadline.
    // (Normally q itself; smaller only if this decision was delayed,
    // e.g. the worker was busy with a previous batch.)
    int k = q;
    while (k > 1 && view.now + prof.latencyFor(k) > t_exp1)
        --k;
    if (k < q) {
        action.execute = k;
        return action;
    }

    // T_max_wait(q+1) = T_exp(1) - T_process(q+1). Waiting past it
    // would endanger the head query if one more query joined.
    const Time t_max_wait = t_exp1 - prof.latencyFor(q + 1);
    if (view.now >= t_max_wait) {
        action.execute = q;
        return action;
    }
    action.wake_at = t_max_wait;
    return action;
}

BatchAction
StaticBatching::decide(const WorkerView& view)
{
    BatchAction action;
    const auto& queue = *view.queue;
    if (!queue.empty())
        action.execute = 1;
    return action;
}

}  // namespace proteus

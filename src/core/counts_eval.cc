#include "core/counts_eval.h"

#include <algorithm>

namespace proteus::detail {

void
sortVariantsByAccuracy(CountsContext* ctx)
{
    const std::size_t F = ctx->registry->numFamilies();
    ctx->by_acc_desc.resize(F);
    for (std::size_t f = 0; f < F; ++f) {
        auto vs = ctx->registry->variantsOf(static_cast<FamilyId>(f));
        std::reverse(vs.begin(), vs.end());  // accuracy descending
        ctx->by_acc_desc[f] = std::move(vs);
    }
}

namespace {

/**
 * Accuracy-weighted served QPS of family @p f under @p count; sets
 * @p feasible when its capacity covers @p demand.
 */
double
familyValue(const CountsContext& ctx,
            const std::vector<std::vector<int>>& count, FamilyId f,
            double demand, bool* feasible)
{
    double remaining = demand;
    double value = 0.0;
    for (VariantId m : ctx.by_acc_desc[f]) {
        if (remaining <= 1e-9)
            break;
        double acc = ctx.registry->variant(m).accuracy;
        for (std::size_t t = 0; t < count.size(); ++t) {
            if (count[t][m] <= 0)
                continue;
            double cap =
                ctx.profiles->get(m, static_cast<DeviceTypeId>(t))
                    .peak_qps *
                count[t][m];
            double used = std::min(cap, remaining);
            value += acc * used;
            remaining -= used;
            if (remaining <= 1e-9)
                break;
        }
    }
    *feasible = remaining <= 1e-6 * std::max(1.0, demand);
    return value;
}

}  // namespace

CountsEval
evalCounts(const CountsContext& ctx,
           const std::vector<std::vector<int>>& count,
           const std::vector<double>& demand)
{
    CountsEval out;
    out.feasible = true;
    for (std::size_t f = 0; f < demand.size(); ++f) {
        if (demand[f] <= 0.0)
            continue;
        bool ok = false;
        out.objective += familyValue(ctx, count,
                                     static_cast<FamilyId>(f),
                                     demand[f], &ok);
        out.feasible &= ok;
    }
    int replicas = 0;
    for (const auto& row : count)
        for (int c : row)
            replicas += c;
    out.objective -= ctx.replica_penalty * replicas;
    if (ctx.keep_bonus && ctx.cur_counts) {
        for (std::size_t t = 0; t < count.size(); ++t) {
            for (std::size_t m = 0; m < count[t].size(); ++m) {
                int kept = std::min(count[t][m], (*ctx.cur_counts)[t][m]);
                if (kept > 0)
                    out.objective += (*ctx.keep_bonus)[t][m] * kept;
            }
        }
    }
    return out;
}

std::vector<std::vector<double>>
greedyFill(const CountsContext& ctx,
           const std::vector<std::vector<int>>& count,
           const std::vector<double>& demand)
{
    std::vector<std::vector<double>> qps(
        count.size(), std::vector<double>(count.empty() ? 0
                                                        : count[0].size(),
                                          0.0));
    for (std::size_t f = 0; f < demand.size(); ++f) {
        double remaining = demand[f];
        for (VariantId m : ctx.by_acc_desc[f]) {
            if (remaining <= 1e-12)
                break;
            for (std::size_t t = 0; t < count.size(); ++t) {
                if (count[t][m] <= 0)
                    continue;
                double cap =
                    ctx.profiles->get(m, static_cast<DeviceTypeId>(t))
                        .peak_qps *
                    count[t][m];
                double used = std::min(cap, remaining);
                qps[t][m] += used;
                remaining -= used;
                if (remaining <= 1e-12)
                    break;
            }
        }
    }
    return qps;
}

CachedCounts::CachedCounts(const CountsContext& ctx,
                           std::vector<std::vector<int>> count,
                           const std::vector<double>& demand)
    : ctx_(ctx),
      demand_(demand),
      count_(std::move(count)),
      value_(demand.size(), 0.0),
      ok_(demand.size(), 1)
{
    for (std::size_t f = 0; f < demand_.size(); ++f)
        rescore(static_cast<FamilyId>(f));
    for (const auto& row : count_)
        for (int c : row)
            replicas_ += c;
    if (ctx_.keep_bonus && ctx_.cur_counts) {
        for (std::size_t t = 0; t < count_.size(); ++t) {
            for (std::size_t m = 0; m < count_[t].size(); ++m) {
                if ((*ctx_.cur_counts)[t][m] > 0)
                    keep_cells_.emplace_back(t, m);
            }
        }
    }
    eval_ = sum();
}

void
CachedCounts::rescore(FamilyId f)
{
    if (demand_[f] <= 0.0)
        return;
    bool ok = false;
    value_[f] = familyValue(ctx_, count_, f, demand_[f], &ok);
    ok_[f] = ok ? 1 : 0;
}

CountsEval
CachedCounts::sum() const
{
    // Same terms, same order as evalCounts.
    CountsEval out;
    out.feasible = true;
    for (std::size_t f = 0; f < demand_.size(); ++f) {
        if (demand_[f] <= 0.0)
            continue;
        out.objective += value_[f];
        out.feasible &= ok_[f] != 0;
    }
    out.objective -= ctx_.replica_penalty * replicas_;
    for (const auto& [t, m] : keep_cells_) {
        int kept = std::min(count_[t][m], (*ctx_.cur_counts)[t][m]);
        if (kept > 0)
            out.objective += (*ctx_.keep_bonus)[t][m] * kept;
    }
    return out;
}

CountsEval
CachedCounts::tryMove(std::size_t t, int src, std::size_t dst)
{
    move_t_ = t;
    move_src_ = src;
    move_dst_ = dst;
    if (src >= 0)
        --count_[t][static_cast<std::size_t>(src)];
    else
        ++replicas_;
    ++count_[t][dst];

    const FamilyId fd = ctx_.registry->familyOf(static_cast<VariantId>(dst));
    n_saved_ = 0;
    saved_[n_saved_++] = {fd, value_[fd], ok_[fd]};
    rescore(fd);
    if (src >= 0) {
        const FamilyId fs =
            ctx_.registry->familyOf(static_cast<VariantId>(src));
        if (fs != fd) {
            saved_[n_saved_++] = {fs, value_[fs], ok_[fs]};
            rescore(fs);
        }
    }
    moved_ = sum();
    return moved_;
}

void
CachedCounts::reject()
{
    --count_[move_t_][move_dst_];
    if (move_src_ >= 0)
        ++count_[move_t_][static_cast<std::size_t>(move_src_)];
    else
        --replicas_;
    for (int i = 0; i < n_saved_; ++i) {
        value_[saved_[i].f] = saved_[i].value;
        ok_[saved_[i].f] = saved_[i].ok;
    }
}

}  // namespace proteus::detail

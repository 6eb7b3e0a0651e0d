#include "search/evaluate.hpp"

#include "search/eval_cache.hpp"

namespace lycos::search {

Evaluation evaluate_allocation(const Eval_context& ctx,
                               const core::Rmap& datapath, Eval_cache* cache,
                               pace::Pace_workspace* workspace)
{
    const auto costs = cache != nullptr
                           ? cache->costs_for(datapath)
                           : pace::build_cost_model(ctx.bsbs, ctx.lib,
                                                    ctx.target, datapath,
                                                    ctx.ctrl_mode,
                                                    ctx.storage);
    return evaluate_with_costs(ctx, datapath, costs, workspace);
}

Evaluation evaluate_with_costs(const Eval_context& ctx,
                               const core::Rmap& datapath,
                               std::span<const pace::Bsb_cost> costs,
                               pace::Pace_workspace* workspace)
{
    Evaluation ev;
    ev.datapath = datapath;
    ev.datapath_area = datapath.area(ctx.lib);
    ev.fits = ev.datapath_area <= ctx.target.asic.total_area;

    if (!ev.fits) {
        // Nothing can move to hardware; report the all-software result.
        ev.partition = pace::evaluate_partition(
            costs, std::vector<bool>(ctx.bsbs.size(), false));
        return ev;
    }

    pace::Pace_options opts;
    opts.ctrl_area_budget = ctx.target.asic.total_area - ev.datapath_area;
    opts.area_quantum = ctx.area_quantum;
    opts.table_area_budget = ctx.dp_table_budget;
    opts.cancel = ctx.cancel;
    ev.partition = pace::pace_partition(costs, opts, workspace);
    return ev;
}

bool better_than(const Evaluation& a, const Evaluation& b)
{
    return better_tuple(a.partition.time_hybrid_ns, a.datapath_area,
                        b.partition.time_hybrid_ns, b.datapath_area);
}

}  // namespace lycos::search

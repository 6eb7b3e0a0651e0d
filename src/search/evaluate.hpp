// The evaluation pipeline of §5.
//
// "The quality of the allocations generated by the allocation
// algorithm is evaluated using the PACE algorithm": given a candidate
// data-path allocation, the controllers get whatever ASIC area the
// data-path leaves free, PACE partitions the application, and the
// achieved speed-up is the allocation's score.  Both the exhaustive
// search and the scoring of the allocator's own output use exactly
// this pipeline.
#pragma once

#include <span>

#include "bsb/bsb.hpp"
#include "core/rmap.hpp"
#include "hw/resource.hpp"
#include "hw/target.hpp"
#include "pace/pace.hpp"

namespace lycos::util {
class Cancel_token;
}

namespace lycos::search {

/// Everything needed to score an allocation.
struct Eval_context {
    std::span<const bsb::Bsb> bsbs;
    const hw::Hw_library& lib;
    const hw::Target& target;
    pace::Controller_mode ctrl_mode = pace::Controller_mode::optimistic_eca;
    double area_quantum = 0.0;  ///< forwarded to Pace_options

    /// When non-null, hardware BSBs are charged estimated register and
    /// multiplexer area on top of their controllers (§6 future work).
    const estimate::Storage_model* storage = nullptr;

    /// Forwarded to Pace_options::table_area_budget: when positive,
    /// every PACE table in this context is sized for this budget (the
    /// real per-point budget still clamps the answer), so DP rows
    /// checkpointed in a Pace_workspace stay valid across points with
    /// different leftover controller budgets.  The exhaustive search
    /// pins it to the total ASIC area; 0 keeps the per-call width.
    double dp_table_budget = 0.0;

    /// Forwarded to Pace_options::cancel so the PACE sweeps charge
    /// their DP-cell budget and abort on a tripped token.  Null (the
    /// default) keeps every sweep unconditional.
    const util::Cancel_token* cancel = nullptr;
};

/// Score of one allocation.
struct Evaluation {
    core::Rmap datapath;
    double datapath_area = 0.0;
    bool fits = false;              ///< data-path area <= total ASIC area
    pace::Pace_result partition;    ///< PACE result (all-SW when !fits)

    double speedup_pct() const { return partition.speedup_pct; }

    /// The paper's "Size" column: data-path area as a fraction of the
    /// total hardware area actually used (data-path + controllers).
    double size_fraction() const
    {
        const double used = datapath_area + partition.ctrl_area_used;
        return used > 0.0 ? datapath_area / used : 0.0;
    }
};

class Eval_cache;

/// Run the pipeline for `datapath`.  With a non-null `cache` the
/// per-BSB scheduling costs are memoized (bit-identical results, see
/// eval_cache.hpp); the cache must have been built from a context
/// differing from `ctx` at most in area_quantum / dp_table_budget.
/// With a non-null `workspace` the PACE DP reuses the caller's
/// buffers — and resumes from its row checkpoint when the costs share
/// a prefix with the previous call's (identical results either way).
Evaluation evaluate_allocation(const Eval_context& ctx,
                               const core::Rmap& datapath,
                               Eval_cache* cache = nullptr,
                               pace::Pace_workspace* workspace = nullptr);

/// The tail of evaluate_allocation once per-BSB `costs` are in hand —
/// the branch-and-bound search obtains costs first (cheap, memoized),
/// bounds the achievable gain with pace::max_gain, and only runs this
/// PACE stage for candidates that can still beat the incumbent.
Evaluation evaluate_with_costs(const Eval_context& ctx,
                               const core::Rmap& datapath,
                               std::span<const pace::Bsb_cost> costs,
                               pace::Pace_workspace* workspace = nullptr);

/// The scalar core of the search objective: strictly better when the
/// hybrid time is smaller, ties toward smaller data-path area.  Every
/// search compares on this — full evaluations (better_than), the hill
/// climb's screened tuples, the multi-ASIC pair walk (with the
/// combined data-path area) — and all of them break remaining ties
/// toward enumeration order by keeping the incumbent on equality.
inline bool better_tuple(double time_a, double area_a, double time_b,
                         double area_b)
{
    if (time_a != time_b)
        return time_a < time_b;
    return area_a < area_b;
}

/// better_tuple over two full evaluations.
bool better_than(const Evaluation& a, const Evaluation& b);

}  // namespace lycos::search

// BSB cost model for partitioning.
//
// PACE decides, for each leaf BSB, whether it runs in software or in
// hardware on the pre-allocated data-path.  This module condenses a
// BSB array plus a candidate data-path allocation into the per-BSB
// numbers the dynamic program consumes:
//
//   t_sw       profile-weighted software time,
//   t_hw       profile-weighted hardware time under the allocation
//              (+inf when the allocation cannot execute the BSB),
//   comm       profile-weighted bus time for the BSB's read/write sets,
//   save_prev  bus time saved when the previous BSB is also in HW,
//   ctrl_area  controller area charged when the BSB moves to HW.
//
// Controller areas come in two flavours (§5.1): the optimistic ECA the
// allocator used, or the "real" area from the list schedule under the
// actual allocation.
#pragma once

#include <span>
#include <vector>

#include "bsb/bsb.hpp"
#include "core/analysis.hpp"
#include "core/rmap.hpp"
#include "estimate/storage.hpp"
#include "hw/target.hpp"
#include "sched/list_scheduler.hpp"

namespace lycos::pace {

/// Which controller-area estimate the partitioner charges.
enum class Controller_mode {
    optimistic_eca,  ///< ASAP-length-based ECA (what the paper's flow uses)
    list_schedule,   ///< real area from the resource-constrained schedule
};

/// Per-BSB partitioning costs (see file comment).
struct Bsb_cost {
    double t_sw = 0.0;
    double t_hw = 0.0;  ///< +inf when infeasible under the allocation
    double comm = 0.0;
    double save_prev = 0.0;
    double ctrl_area = 0.0;
};

/// Cost of the single BSB `bsbs[index]` under the dense per-type
/// `counts` (the list-scheduler form of an allocation).  `lat` is the
/// library's cheapest-executor latency table, hoisted out because it
/// is allocation-independent.  `frames`, when non-null, must be
/// compute_time_frames(graph, lat) for this BSB — the Eval_cache
/// hoists it too, so cache misses skip the ALAP recomputation.  This
/// is the unit of work the search's Eval_cache memoizes: the result
/// depends only on the counts of resource types whose op set
/// intersects the BSB's operations.
Bsb_cost bsb_cost_one(std::span<const bsb::Bsb> bsbs, std::size_t index,
                      const hw::Hw_library& lib, const hw::Target& target,
                      std::span<const int> counts,
                      const sched::Latency_table& lat, Controller_mode mode,
                      const estimate::Storage_model* storage = nullptr,
                      const sched::Schedule_info* frames = nullptr,
                      const Bsb_cost* invariants = nullptr,
                      sched::Schedule_workspace* sched_ws = nullptr);

/// The allocation-independent fields of bsb_cost_one: t_sw, comm and
/// save_prev (t_hw/ctrl_area stay 0 — they need the schedule).  The
/// Eval_cache hoists these per BSB and hands them back through
/// bsb_cost_one's `invariants` parameter, so a cache miss pays only
/// for the list schedule and the controller area instead of re-walking
/// the graph's software costs and the live-set string intersection of
/// the adjacency saving.  bsb_cost_one uses the same expressions, so
/// hoisted and non-hoisted costs are bit-identical.
Bsb_cost bsb_cost_invariants(std::span<const bsb::Bsb> bsbs,
                             std::size_t index, const hw::Target& target);

/// Build the cost vector for `bsbs` under data-path `alloc`.  When
/// `storage` is non-null, each hardware BSB is additionally charged
/// its estimated register and multiplexer area (§6 future work; the
/// paper's base flow ignores both).
std::vector<Bsb_cost> build_cost_model(
    std::span<const bsb::Bsb> bsbs, const hw::Hw_library& lib,
    const hw::Target& target, const core::Rmap& alloc, Controller_mode mode,
    const estimate::Storage_model* storage = nullptr);

/// Total all-software execution time of the application.
double all_sw_time_ns(std::span<const Bsb_cost> costs);

}  // namespace lycos::pace

#include "pace/cost_model.hpp"

#include <limits>

#include "estimate/comm.hpp"
#include "estimate/controller.hpp"
#include "estimate/hw_time.hpp"
#include "estimate/sw_time.hpp"
#include "sched/time_frames.hpp"

namespace lycos::pace {

Bsb_cost bsb_cost_invariants(std::span<const bsb::Bsb> bsbs,
                             std::size_t index, const hw::Target& target)
{
    const auto& b = bsbs[index];
    Bsb_cost c;
    c.t_sw = estimate::total_sw_time_ns(b, target.cpu);
    c.comm = estimate::comm_time_ns(b, target.bus) * b.profile;
    if (index > 0)
        c.save_prev =
            estimate::adjacency_saving_ns(bsbs[index - 1], b, target.bus);
    return c;
}

Bsb_cost bsb_cost_one(std::span<const bsb::Bsb> bsbs, std::size_t index,
                      const hw::Hw_library& lib, const hw::Target& target,
                      std::span<const int> counts,
                      const sched::Latency_table& lat, Controller_mode mode,
                      const estimate::Storage_model* storage,
                      const sched::Schedule_info* frames,
                      const Bsb_cost* invariants,
                      sched::Schedule_workspace* sched_ws)
{
    constexpr double inf = std::numeric_limits<double>::infinity();
    const auto& b = bsbs[index];
    Bsb_cost c = invariants != nullptr
                     ? *invariants
                     : bsb_cost_invariants(bsbs, index, target);

    const bool use_frames = frames != nullptr && !b.graph.empty();
    // The workspace overload returns a reference into sched_ws; keep a
    // value only on the allocating paths.
    sched::List_schedule sched_local;
    const sched::List_schedule* sched_p;
    if (use_frames && sched_ws != nullptr) {
        sched_p = &sched::list_schedule(b.graph, lib, counts, *frames,
                                        *sched_ws);
    }
    else {
        sched_local =
            use_frames
                ? sched::list_schedule(b.graph, lib, counts, *frames)
                : sched::list_schedule(b.graph, lib, counts);
        sched_p = &sched_local;
    }
    const sched::List_schedule& sched = *sched_p;
    if (sched.feasible && !b.graph.empty()) {
        c.t_hw = sched.length * target.asic.cycle_ns() * b.profile;
        const int n_states =
            mode == Controller_mode::optimistic_eca
                ? std::max(1, use_frames ? frames->length
                                         : sched::compute_time_frames(
                                               b.graph, lat)
                                               .length)
                : std::max(1, sched.length);
        c.ctrl_area = estimate::controller_area(n_states, target.gates);
        if (storage != nullptr)
            c.ctrl_area +=
                estimate::storage_area(b.graph, lib, sched, *storage) +
                estimate::interconnect_area(b.graph, lib, sched, *storage);
    }
    else {
        c.t_hw = inf;
        c.ctrl_area = inf;
        c.comm = 0.0;
        c.save_prev = 0.0;
    }
    return c;
}

std::vector<Bsb_cost> build_cost_model(
    std::span<const bsb::Bsb> bsbs, const hw::Hw_library& lib,
    const hw::Target& target, const core::Rmap& alloc, Controller_mode mode,
    const estimate::Storage_model* storage)
{
    const auto counts = alloc.dense_counts(lib);
    const auto lat = sched::latency_table_from(lib);

    std::vector<Bsb_cost> out;
    out.reserve(bsbs.size());
    for (std::size_t i = 0; i < bsbs.size(); ++i)
        out.push_back(
            bsb_cost_one(bsbs, i, lib, target, counts, lat, mode, storage));
    return out;
}

double all_sw_time_ns(std::span<const Bsb_cost> costs)
{
    double t = 0.0;
    for (const auto& c : costs)
        t += c.t_sw;
    return t;
}

}  // namespace lycos::pace

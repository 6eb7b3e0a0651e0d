#include "support/list_schedule_naive.hpp"

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "sched/time_frames.hpp"

namespace lycos::sched {

namespace {

/// Upper bound on the makespan: every op serialized on the slowest
/// unit, plus slack.  Progress past it means the scheduler is broken.
long long cycle_guard(std::size_t n_ops, const hw::Hw_library& lib)
{
    long long max_latency = 1;
    for (const auto& t : lib.types())
        max_latency = std::max<long long>(max_latency, t.latency_cycles);
    return static_cast<long long>(n_ops) * (max_latency + 1) + 16;
}

/// Every op kind used by the DFG needs at least one allocated executor.
bool allocation_covers(const dfg::Dfg& g, const hw::Hw_library& lib,
                       std::span<const int> counts)
{
    const auto used = g.used_ops();
    for (auto k : hw::all_op_kinds()) {
        if (!used.contains(k))
            continue;
        bool covered = false;
        for (std::size_t r = 0; r < lib.size(); ++r)
            if (counts[r] > 0 &&
                lib[static_cast<hw::Resource_id>(r)].ops.contains(k))
                covered = true;
        if (!covered)
            return false;
    }
    return true;
}

struct Instance {
    hw::Resource_id type;
    int busy_until = 0;  // last cycle (inclusive) this instance is occupied
};

}  // namespace

List_schedule list_schedule_naive(const dfg::Dfg& g, const hw::Hw_library& lib,
                                  std::span<const int> counts)
{
    if (counts.size() != lib.size())
        throw std::invalid_argument(
            "list_schedule_naive: counts/library size mismatch");

    List_schedule out;
    if (g.empty()) {
        out.feasible = true;
        return out;
    }
    if (!allocation_covers(g, lib, counts))
        return out;  // infeasible

    // Materialize resource instances.
    std::vector<Instance> instances;
    for (std::size_t r = 0; r < lib.size(); ++r)
        for (int i = 0; i < counts[r]; ++i)
            instances.push_back({static_cast<hw::Resource_id>(r), 0});

    // ALAP-based priorities (computed with the cheapest-executor
    // latency table; the classic list-scheduling priority).
    const auto frames = compute_time_frames(g, latency_table_from(lib));

    const auto n = g.size();
    out.start.assign(n, 0);
    out.resource.assign(n, -1);
    std::vector<int> remaining_preds(n, 0);
    std::vector<int> finish(n, 0);  // last busy cycle of each scheduled op
    for (std::size_t i = 0; i < n; ++i)
        remaining_preds[i] =
            static_cast<int>(g.preds(static_cast<dfg::Op_id>(i)).size());

    std::vector<dfg::Op_id> ready;
    for (std::size_t i = 0; i < n; ++i)
        if (remaining_preds[i] == 0)
            ready.push_back(static_cast<dfg::Op_id>(i));

    const auto priority_less = [&](dfg::Op_id a, dfg::Op_id b) {
        const auto& fa = frames.frame(a);
        const auto& fb = frames.frame(b);
        if (fa.alap != fb.alap)
            return fa.alap < fb.alap;
        return a < b;
    };

    std::size_t n_scheduled = 0;
    int cycle = 0;
    const long long guard = cycle_guard(n, lib);

    while (n_scheduled < n) {
        ++cycle;
        if (cycle > guard)
            throw std::logic_error(
                "list_schedule_naive: no progress (internal error)");

        // Newly finished ops release their successors.
        for (std::size_t i = 0; i < n; ++i) {
            if (out.start[i] != 0 && finish[i] == cycle - 1) {
                for (dfg::Op_id s : g.succs(static_cast<dfg::Op_id>(i)))
                    if (--remaining_preds[static_cast<std::size_t>(s)] == 0)
                        ready.push_back(s);
            }
        }

        std::sort(ready.begin(), ready.end(), priority_less);

        // Greedily bind ready ops to free instances.  Prefer the most
        // specialized compatible unit so flexible units stay available.
        std::vector<dfg::Op_id> still_waiting;
        for (dfg::Op_id v : ready) {
            int best_inst = -1;
            int best_flexibility = 1 << 30;
            for (std::size_t ii = 0; ii < instances.size(); ++ii) {
                const auto& inst = instances[ii];
                if (inst.busy_until >= cycle)
                    continue;
                const auto& type = lib[inst.type];
                if (!type.ops.contains(g.op(v).kind))
                    continue;
                if (type.ops.size() < best_flexibility) {
                    best_flexibility = type.ops.size();
                    best_inst = static_cast<int>(ii);
                }
            }
            if (best_inst < 0) {
                still_waiting.push_back(v);
                continue;
            }
            auto& inst = instances[static_cast<std::size_t>(best_inst)];
            const int lat = lib[inst.type].latency_cycles;
            inst.busy_until = cycle + lat - 1;
            out.start[static_cast<std::size_t>(v)] = cycle;
            out.resource[static_cast<std::size_t>(v)] = inst.type;
            finish[static_cast<std::size_t>(v)] = cycle + lat - 1;
            out.length = std::max(out.length, cycle + lat - 1);
            ++n_scheduled;
        }
        ready = std::move(still_waiting);
    }

    out.feasible = true;
    return out;
}

}  // namespace lycos::sched

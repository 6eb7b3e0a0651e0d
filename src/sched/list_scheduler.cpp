#include "sched/list_scheduler.hpp"

#include <algorithm>
#include <array>
#include <queue>
#include <stdexcept>

namespace lycos::sched {

namespace {

/// Upper bound on the makespan: every op serialized on the slowest
/// unit, plus slack.  Progress past this bound means the scheduler is
/// broken (a cross-check, not a semantic limit).
long long cycle_guard(std::size_t n_ops, const hw::Hw_library& lib)
{
    long long max_latency = 1;
    for (const auto& t : lib.types())
        max_latency = std::max<long long>(max_latency, t.latency_cycles);
    return static_cast<long long>(n_ops) * (max_latency + 1) + 16;
}

/// Every op kind used by the DFG needs at least one allocated executor
/// (the allocating overload's early-out; the workspace path derives
/// the same answer from its per-kind buckets).
bool allocation_covers(const dfg::Dfg& g, const hw::Hw_library& lib,
                       std::span<const int> counts)
{
    const auto used = g.used_ops();  // one O(V) scan, not one per kind
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

}  // namespace

List_schedule list_schedule(const dfg::Dfg& g, const hw::Hw_library& lib,
                            std::span<const int> counts,
                            const Schedule_info& frames)
{
    Schedule_workspace ws;
    return list_schedule(g, lib, counts, frames, ws);
}

const List_schedule& list_schedule(const dfg::Dfg& g,
                                   const hw::Hw_library& lib,
                                   std::span<const int> counts,
                                   const Schedule_info& frames,
                                   Schedule_workspace& ws)
{
    if (counts.size() != lib.size())
        throw std::invalid_argument("list_schedule: counts/library size mismatch");

    using Prio = Schedule_workspace::Prio;  // (alap|time, id)
    const auto heap_less = std::greater<>{};  // min-heaps via std::*_heap
    auto heap_push = [&](std::vector<Prio>& h, Prio v) {
        h.push_back(v);
        std::push_heap(h.begin(), h.end(), heap_less);
    };
    auto heap_pop = [&](std::vector<Prio>& h) {
        std::pop_heap(h.begin(), h.end(), heap_less);
        h.pop_back();
    };

    // Reset the scratch (grow-only buffers; cleared up front so a
    // call that threw leaves nothing behind).
    List_schedule& out = ws.out_;
    out.feasible = false;
    out.length = 0;
    out.start.clear();
    out.resource.clear();
    for (auto k : ws.used_kinds_) {
        ws.bucket_[hw::op_index(k)].clear();
        ws.waiting_[hw::op_index(k)].clear();  // nonempty only after a throw
    }
    ws.used_kinds_.clear();
    ws.fresh_.clear();
    ws.active_kinds_.clear();
    ws.events_.clear();

    if (g.empty()) {
        out.feasible = true;
        return out;
    }

    // Per-op-kind buckets: resource types that can execute the kind,
    // most specialized first (ties toward lower id — the same unit the
    // naive scan over id-ordered instances would pick).  An empty
    // bucket for a used kind means the allocation is infeasible.
    const auto used = g.used_ops();  // one O(V) scan, not one per kind
    for (auto k : hw::all_op_kinds()) {
        if (!used.contains(k))
            continue;
        ws.used_kinds_.push_back(k);
        auto& bucket = ws.bucket_[hw::op_index(k)];
        for (std::size_t r = 0; r < lib.size(); ++r)
            if (counts[r] > 0 &&
                lib[static_cast<hw::Resource_id>(r)].ops.contains(k))
                bucket.push_back(static_cast<hw::Resource_id>(r));
        if (bucket.empty())
            return out;  // infeasible (buckets cleared on next call)
        std::sort(bucket.begin(), bucket.end(),
                  [&](hw::Resource_id a, hw::Resource_id b) {
                      if (lib[a].ops.size() != lib[b].ops.size())
                          return lib[a].ops.size() < lib[b].ops.size();
                      return a < b;
                  });
    }

    // Free-instance counters per resource type (instances of one type
    // are interchangeable, so counts replace the naive instance array).
    ws.free_count_.assign(counts.begin(), counts.end());
    auto& free_count = ws.free_count_;

    const auto n = g.size();
    out.start.assign(n, 0);
    out.resource.assign(n, -1);
    ws.remaining_preds_.assign(n, 0);
    auto& remaining_preds = ws.remaining_preds_;
    for (std::size_t i = 0; i < n; ++i)
        remaining_preds[i] =
            static_cast<int>(g.preds(static_cast<dfg::Op_id>(i)).size());

    // Two tiers of ready ops, both keyed by (ALAP, id) — the list
    // priority.  `fresh` holds ops that became ready and have not been
    // tried yet; `waiting[kind]` holds ops that were tried and found
    // every executor busy.  A waiting op can only become schedulable
    // when an instance able to execute its kind frees, so the bind
    // pass reconsiders a kind's queue only in rounds where such a
    // free happened ("active" kinds) instead of re-cycling every
    // blocked op through a global heap at every event.  The served
    // order is still exactly the old global (ALAP, id) order over the
    // ops that can actually bind, and skipped ops could never have
    // bound, so the resulting schedule is identical.
    auto& fresh = ws.fresh_;
    auto& waiting = ws.waiting_;
    std::array<std::uint8_t, hw::n_op_kinds> active{};
    auto& active_kinds = ws.active_kinds_;
    for (std::size_t i = 0; i < n; ++i)
        if (remaining_preds[i] == 0)
            heap_push(fresh,
                      {frames.frame(static_cast<dfg::Op_id>(i)).alap,
                       static_cast<dfg::Op_id>(i)});

    // Event queue: (finish_cycle + 1, op).  At that time the op's
    // instance is free again and its successors may become ready.
    auto& events = ws.events_;

    const long long guard = cycle_guard(n, lib);
    std::size_t n_scheduled = 0;
    int now = 1;

    while (n_scheduled < n) {
        // Bind pass at time `now`: repeatedly serve the smallest
        // (ALAP, id) among the fresh heap and the heads of active
        // kinds' waiting queues.  A failed fresh op parks in its
        // kind's queue; a failed waiting head deactivates its kind
        // (every later op of that kind shares the bucket, so it
        // would fail too).
        for (;;) {
            int src = -1;  // -1 none, -2 fresh, >=0 index in active_kinds
            Prio best{0, 0};
            if (!fresh.empty()) {
                best = fresh.front();
                src = -2;
            }
            for (std::size_t ai = 0; ai < active_kinds.size();) {
                auto& w = waiting[active_kinds[ai]];
                if (w.empty()) {
                    active[active_kinds[ai]] = 0;
                    active_kinds[ai] = active_kinds.back();
                    active_kinds.pop_back();
                    continue;
                }
                if (src == -1 || w.front() < best) {
                    best = w.front();
                    src = static_cast<int>(ai);
                }
                ++ai;
            }
            if (src == -1)
                break;

            const dfg::Op_id v = best.second;
            const std::size_t ki = hw::op_index(g.op(v).kind);
            hw::Resource_id chosen = -1;
            for (hw::Resource_id r : ws.bucket_[ki]) {
                if (free_count[static_cast<std::size_t>(r)] > 0) {
                    chosen = r;
                    break;
                }
            }
            if (chosen < 0) {
                if (src == -2) {
                    heap_pop(fresh);
                    heap_push(waiting[ki], best);
                }
                if (active[ki] != 0) {
                    active[ki] = 0;
                    for (std::size_t ai = 0; ai < active_kinds.size(); ++ai)
                        if (active_kinds[ai] == ki) {
                            active_kinds[ai] = active_kinds.back();
                            active_kinds.pop_back();
                            break;
                        }
                }
                continue;
            }
            if (src == -2)
                heap_pop(fresh);
            else
                heap_pop(waiting[ki]);
            --free_count[static_cast<std::size_t>(chosen)];
            const int lat = lib[chosen].latency_cycles;
            out.start[static_cast<std::size_t>(v)] = now;
            out.resource[static_cast<std::size_t>(v)] = chosen;
            out.length = std::max(out.length, now + lat - 1);
            heap_push(events, {now + lat, v});
            ++n_scheduled;
        }

        if (n_scheduled == n)
            break;
        if (events.empty())
            throw std::logic_error(
                "list_schedule: deadlock (internal error)");

        // Jump to the next finish time; nothing can change in between
        // (the ready set and the free counters only move on finishes).
        now = events.front().first;
        if (now > guard)
            throw std::logic_error(
                "list_schedule: no progress (internal error)");
        while (!events.empty() && events.front().first == now) {
            const auto done = events.front().second;
            heap_pop(events);
            const auto freed = static_cast<std::size_t>(
                out.resource[static_cast<std::size_t>(done)]);
            ++free_count[freed];
            for (auto k : ws.used_kinds_) {
                const std::size_t ki = hw::op_index(k);
                if (active[ki] == 0 && !waiting[ki].empty() &&
                    lib[static_cast<hw::Resource_id>(freed)].ops.contains(
                        k)) {
                    active[ki] = 1;
                    active_kinds.push_back(ki);
                }
            }
            for (dfg::Op_id s : g.succs(done))
                if (--remaining_preds[static_cast<std::size_t>(s)] == 0)
                    heap_push(fresh, {frames.frame(s).alap, s});
        }
    }

    out.feasible = true;
    return out;
}

List_schedule list_schedule(const dfg::Dfg& g, const hw::Hw_library& lib,
                            std::span<const int> counts)
{
    if (counts.size() != lib.size())
        throw std::invalid_argument("list_schedule: counts/library size mismatch");
    List_schedule out;
    if (g.empty()) {
        out.feasible = true;
        return out;
    }
    // Early-out before the O(V+E) frame computation: infeasible
    // allocations are the common case in exhaustive enumeration.
    if (!allocation_covers(g, lib, counts))
        return out;
    return list_schedule(g, lib, counts,
                         compute_time_frames(g, latency_table_from(lib)));
}

}  // namespace lycos::sched

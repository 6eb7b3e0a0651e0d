// Resource-constrained list scheduling.
//
// Given a concrete allocation (so many instances of each resource
// type), the list scheduler produces the schedule a BSB would actually
// execute with in hardware.  It supplies
//   * the hardware execution time of a BSB under a candidate
//     allocation (used by the PACE evaluation), and
//   * the *real* controller state count of §5.1, which is longer than
//     the optimistic ASAP estimate the ECA uses.
//
// Priority rule: ready operations are served in increasing ALAP order
// (least slack first), ties broken by op id for determinism.
//
// The scheduler is event-driven: it jumps straight from one operation
// finish time to the next instead of stepping every clock cycle, keeps
// the ready set in a heap keyed by (ALAP, id), and binds via per-op-kind
// buckets of resource types ordered by specialization.  The original
// cycle-stepping implementation is the test oracle it is pinned
// against (tests/support/list_schedule_naive.hpp).
#pragma once

#include <span>
#include <vector>

#include "dfg/dfg.hpp"
#include "hw/resource.hpp"
#include "sched/time_frames.hpp"

namespace lycos::sched {

/// Result of list scheduling one DFG.
struct List_schedule {
    bool feasible = false;        ///< false if some op kind has no allocated executor
    std::vector<int> start;       ///< start step per op (1-based), empty if infeasible
    std::vector<int> resource;    ///< Resource_id executing each op, empty if infeasible
    int length = 0;               ///< schedule length in cycles (0 if infeasible/empty)
};

/// Schedule `g` on `counts[r]` instances of each resource type `r` of
/// `lib`.  `counts.size()` must equal `lib.size()`.
///
/// With at least `asap_parallelism` instances of every needed kind the
/// result equals the ASAP schedule; with fewer instances the schedule
/// stretches (§4.1: "the final hardware schedule ... will be
/// stretched, leading to a loss of performance").
List_schedule list_schedule(const dfg::Dfg& g, const hw::Hw_library& lib,
                            std::span<const int> counts);

/// Event-driven scheduling with precomputed time frames.  `frames`
/// must be compute_time_frames(g, latency_table_from(lib)) — the
/// Eval_cache hoists it because the frames are allocation-independent,
/// so cache misses skip the O(V+E) ALAP recomputation.
List_schedule list_schedule(const dfg::Dfg& g, const hw::Hw_library& lib,
                            std::span<const int> counts,
                            const Schedule_info& frames);

class Schedule_workspace;

/// Same, with caller-owned scratch: every heap, bucket and output
/// vector lives in `ws` and is reused across calls, so the
/// allocation-search hot loop (one workspace per Eval_cache, i.e. per
/// worker) schedules without touching the allocator at all.  The
/// returned reference points into the workspace and stays valid until
/// its next use.  Results are bit-identical to the allocating
/// overload.
const List_schedule& list_schedule(const dfg::Dfg& g,
                                   const hw::Hw_library& lib,
                                   std::span<const int> counts,
                                   const Schedule_info& frames,
                                   Schedule_workspace& ws);

/// Caller-owned scratch buffers for the event-driven list scheduler.
/// Grow-only, cleared at the start of every call (so a call that
/// threw leaves no residue); not thread-safe.
class Schedule_workspace {
public:
    Schedule_workspace() = default;

private:
    friend const List_schedule& list_schedule(const dfg::Dfg& g,
                                              const hw::Hw_library& lib,
                                              std::span<const int> counts,
                                              const Schedule_info& frames,
                                              Schedule_workspace& ws);
    using Prio = std::pair<int, dfg::Op_id>;
    List_schedule out_;
    std::vector<hw::Resource_id> bucket_[hw::n_op_kinds];
    std::vector<hw::Op_kind> used_kinds_;
    std::vector<int> free_count_;
    std::vector<int> remaining_preds_;
    std::vector<Prio> fresh_;                    ///< min-heap storage
    std::vector<Prio> waiting_[hw::n_op_kinds];  ///< min-heap storage
    std::vector<std::size_t> active_kinds_;
    std::vector<Prio> events_;  ///< min-heap storage (finish+1, op)
};

}  // namespace lycos::sched

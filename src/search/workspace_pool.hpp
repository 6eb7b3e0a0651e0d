// Session-persistent per-worker DP scratch.
//
// Per-chunk workspaces built on a task's stack would die with the
// solve that wrote their DP checkpoints (pace.hpp), and a follow-up
// solve of the same problem would re-sweep rows the incremental
// machinery already knew.  A Dp_workspace_pool keeps the per-worker
// workspaces in the owning solver::Session instead: chunk c of every
// solve runs on slot c, the checkpoints survive *between* solves, and
// a later solve resumes at the first divergent cost row exactly as
// within-solve reuse does — the (quantum, width) fingerprint plus the
// cost-prefix compare already guarantee resumed and cold sweeps are
// bit-identical, whoever wrote the checkpoint.  This is what makes
// serve::Server request batching pay: members of a batch share the
// slots' warm checkpoints, reported as
// Solve_result::dp_rows_reused_cross_request.
//
// Threading contract: prepare() is single-threaded (call it before
// dispatching workers); afterwards distinct workers may use distinct
// slots concurrently.  Sessions run one solve at a time, which is the
// only serialization this needs.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "pace/multi_asic.hpp"
#include "pace/pace.hpp"
#include "util/arena.hpp"

namespace lycos::search {

/// Grow-only pool of per-worker (arena, workspace) slots owned by a
/// solver::Session and lent to the engines for the duration of one
/// solve.
class Dp_workspace_pool {
public:
    struct Slot {
        /// Declared before the workspaces it backs (destruction order).
        util::Arena arena;
        pace::Pace_workspace pace{&arena};
        pace::Multi_pace_workspace multi{&arena};
    };

    /// Ensure at least `n` slots exist and open a new logical pass:
    /// every surviving Pace checkpoint is marked as inherited, so the
    /// rows the coming solve resumes from it land in
    /// rows_reused_foreign() (the cross-request counter).  Call once
    /// per solve, before any worker touches a slot.
    void prepare(std::size_t n)
    {
        while (slots_.size() < n)
            slots_.push_back(std::make_unique<Slot>());
        for (auto& s : slots_)
            s->pace.begin_pass();
    }

    /// Slot for worker/chunk `c`; valid until the pool grows (prepare
    /// never shrinks, so slot references live across solves).
    Slot& slot(std::size_t c) { return *slots_[c]; }

    std::size_t size() const { return slots_.size(); }

private:
    std::vector<std::unique_ptr<Slot>> slots_;
};

}  // namespace lycos::search

// PACE — dynamic-programming HW/SW partitioning [Knudsen & Madsen,
// Codes/CASHE'96], as used by LYCOS and by this paper's evaluation.
//
// Given per-BSB costs and the controller-area budget left next to the
// pre-allocated data-path, PACE selects the subset of BSBs to move to
// hardware that minimizes total execution time.  The knapsack-style
// dynamic program runs over (BSB index, discretized area used,
// previous BSB's side); carrying the previous side lets adjacent
// hardware BSBs keep shared values in the data-path and save their
// bus transfers — the communication awareness PACE is known for.
//
// The DP is separable by BSB index: row i depends only on
// costs[0..i], the area quantum and the table width.  A reused
// Pace_workspace exploits that by checkpointing the value row after
// every BSB; the next call compares its cost vector against the
// cached one and resumes the sweep at the first divergent BSB instead
// of row 0 (see Pace_workspace).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "pace/cost_model.hpp"
#include "util/arena.hpp"

namespace lycos::util {
class Cancel_token;
}

namespace lycos::pace {

/// Options for pace_partition.
struct Pace_options {
    /// Area available for controllers (total ASIC area minus the
    /// data-path allocation's area).
    double ctrl_area_budget = 0.0;

    /// Area discretization step for the DP.  0 selects automatically:
    /// budget/4096 but at least 1 gate.  Smaller is more exact and
    /// slower.
    double area_quantum = 0.0;

    /// Hard cap on the DP table width (number of discrete area
    /// levels).  A caller-supplied quantum that would need more levels
    /// than this is re-quantized to budget/(max_dp_width-1) instead of
    /// silently allocating gigabytes of table; the quantum actually
    /// used is reported in Pace_result::area_quantum_used.  The
    /// default bounds the per-call table at ~a million levels (the
    /// auto quantum needs only 4097).
    int max_dp_width = 1 << 20;

    /// When positive (and larger than ctrl_area_budget), the DP table
    /// width is derived from THIS budget instead of ctrl_area_budget;
    /// the final answer still maxes only over states within the real
    /// budget.  value[i][a][p] is the best saving using quantized area
    /// exactly `a`, which does not depend on the table width for
    /// a < width — so calls that share a quantum and a table budget
    /// produce identical DP rows regardless of their leftover
    /// controller budgets, and the allocation search (whose per-leaf
    /// budget is total_area - leaf_area) can reuse checkpointed rows
    /// across leaves.  Results are bit-identical to table_area_budget
    /// = 0 as long as the wider table does not trigger re-quantization
    /// (the search's coarse quantum is far from the max_dp_width cap).
    double table_area_budget = 0.0;

    /// Optional cancellation handle.  The sweep charges its DP-cell
    /// budget and checks the tripped flag once per row — never the
    /// clock (the engines own the coarse deadline polls).  An aborted
    /// value sweep returns -inf (valid sweeps are always >= 0, so the
    /// marker is unambiguous and screens as "infinitely bad"); an
    /// aborted pace_partition returns the honest all-software
    /// partition.  Either way the workspace checkpoint is dropped —
    /// a partially overwritten row arena must not be resumed from.
    const util::Cancel_token* cancel = nullptr;
};

/// A partition and its evaluation.
struct Pace_result {
    std::vector<bool> in_hw;       ///< chosen side per BSB
    double time_all_sw_ns = 0.0;   ///< all-software reference time
    double time_hybrid_ns = 0.0;   ///< time of the chosen partition
    double speedup_pct = 0.0;      ///< (all_sw / hybrid - 1) * 100
    double ctrl_area_used = 0.0;   ///< controller area of HW-side BSBs
    double area_quantum_used = 0.0;  ///< effective DP quantum (0 from
                                     ///< evaluate_partition, which has none)
    int n_in_hw = 0;

    /// Fraction of BSBs placed in hardware (the paper's HW/SW column
    /// reports the HW share of the application).
    double hw_fraction() const
    {
        return in_hw.empty()
                   ? 0.0
                   : static_cast<double>(n_in_hw) /
                         static_cast<double>(in_hw.size());
    }
};

class Pace_workspace;

/// Optimal partition by dynamic programming (up to area
/// discretization).  With a non-null `workspace` the DP reuses the
/// caller-owned buffers across calls instead of heap-allocating the
/// value/next rows and the ~n*width*2-byte traceback tables per
/// invocation, and additionally resumes incrementally from the
/// workspace's checkpoint when the cost vector shares a prefix with
/// the previous call's (see Pace_workspace).  Results are identical
/// with or without a workspace.
Pace_result pace_partition(std::span<const Bsb_cost> costs,
                           const Pace_options& options,
                           Pace_workspace* workspace = nullptr);

/// Caller-owned reusable DP buffers for pace_partition /
/// pace_best_saving.  Buffers only ever grow, so one workspace serves
/// calls of any (bounded) size; a workspace is not thread-safe and
/// must not be shared across concurrent calls.
///
/// Incremental checkpointing: after each call the workspace retains
/// the per-row value states together with the cost vector and the
/// (quantum, width) fingerprint that produced them.  The next call
/// through the same workspace compares its costs row by row against
/// the cached vector and, when the setup fingerprint matches, resumes
/// the sweep at the first divergent BSB — neighbouring points of the
/// allocation search share long cost prefixes, so most rows are
/// served from the checkpoint.  A full-partition call additionally
/// requires the retained traceback rows to match (they are refreshed
/// by full-partition calls only; value-only screening calls leave
/// them untouched), and falls back to the longest prefix both agree
/// on.  Any fingerprint mismatch (different quantum, different table
/// width, cleared checkpoint) restarts from row 0 — correctness never
/// depends on the caller's call pattern.  Results are bit-identical
/// to a cold run in all cases; rows_reused()/rows_swept() make the
/// reuse observable (Solve_result reports them per search).
class Pace_workspace {
public:
    Pace_workspace() = default;

    /// Back the DP row buffers (value rows, checkpoint row arena,
    /// traceback planes) with a caller-owned per-worker Arena: the
    /// rows are then first-touched — and stay — on the worker that
    /// sweeps them.  The arena must outlive the workspace.
    explicit Pace_workspace(util::Arena* arena)
        : value_(util::Arena_allocator<double>(arena)),
          next_(util::Arena_allocator<double>(arena)),
          parent_(util::Arena_allocator<std::uint8_t>(arena)),
          ckpt_rows_(util::Arena_allocator<double>(arena)),
          anchor_rows_(util::Arena_allocator<double>(arena))
    {
    }

    /// Cumulative DP rows resumed from the checkpoint / actually swept
    /// across all calls through this workspace.
    long long rows_reused() const { return rows_reused_; }
    long long rows_swept() const { return rows_swept_; }

    /// Rows resumed from a checkpoint that *predates* the current pass
    /// (see begin_pass) — the cross-solve share of rows_reused().
    long long rows_reused_foreign() const { return rows_reused_foreign_; }

    /// Mark the start of a new logical pass (one solve / one serve
    /// request).  Two effects:
    ///
    ///   * the *pass anchor* — a retained copy of the previous pass's
    ///     first checkpointed sweep — becomes the active checkpoint,
    ///     and this pass's first checkpointed sweep is captured as the
    ///     next anchor.  Repeated passes over the same problem issue
    ///     the same first sweep, so a warm pooled workspace resumes it
    ///     at the first divergent cost row instead of comparing
    ///     against the previous pass's unrelated *last* sweep.
    ///   * a checkpoint valid at this point predates the pass, so rows
    ///     the next resume serves from it count in
    ///     rows_reused_foreign() — until a sweep of this pass rewrites
    ///     the checkpoint.
    ///
    /// Results are unchanged either way: resumed and cold sweeps are
    /// bit-identical whoever wrote the checkpoint (the anchor is just
    /// a checkpoint an earlier sweep produced).
    void begin_pass();

    /// Drop the checkpoint: the next call restarts from row 0 (the
    /// buffers themselves stay allocated).
    void invalidate_checkpoint()
    {
        ckpt_valid_ = false;
        ckpt_foreign_ = false;
        trace_rows_ = 0;
    }

private:
    friend struct Pace_dp;  ///< the internal sweep (pace.cpp)
    friend Pace_result pace_partition(std::span<const Bsb_cost> costs,
                                      const Pace_options& options,
                                      Pace_workspace* workspace);
    friend double pace_best_saving(std::span<const Bsb_cost> costs,
                                   const Pace_options& options,
                                   Pace_workspace* workspace);
    util::Arena_vector<double> value_;
    util::Arena_vector<double> next_;
    // Traceback parents, lane-planar: plane (i, p) is `width`
    // contiguous bytes at (i * 2 + p) * width, entry a = the side of
    // BSB i-1 on the best path into state (i, a, p).  (The old
    // per-cell took_hw byte is gone: a state's own side IS its lane —
    // the SW lane only ever stores software decisions and the HW lane
    // hardware ones — so reconstruction reads hw = (p == 1).)
    util::Arena_vector<std::uint8_t> parent_;
    std::vector<int> qarea_;
    std::vector<std::uint8_t> hw_possible_;
    // Checkpoint: ckpt_rows_ block i holds the value row after BSBs
    // [0, i) of ckpt_costs_ (block 0 is the initial state), valid for
    // the recorded (quantum, width) only; ckpt_hi_[i] is the row's
    // reachable-area frontier.  trace_rows_ counts the leading
    // traceback rows (parent_ planes) that are consistent with
    // trace_costs_ at trace_width_.
    std::vector<Bsb_cost> ckpt_costs_;
    util::Arena_vector<double> ckpt_rows_;
    std::vector<std::size_t> ckpt_hi_;
    double ckpt_quantum_ = 0.0;
    std::size_t ckpt_width_ = 0;
    bool ckpt_valid_ = false;
    /// The checkpoint was written before the last begin_pass() — rows
    /// resumed from it count as cross-pass reuse until a sweep of this
    /// pass rewrites it.
    bool ckpt_foreign_ = false;
    std::vector<Bsb_cost> trace_costs_;
    std::size_t trace_width_ = 0;
    std::size_t trace_rows_ = 0;
    long long rows_reused_ = 0;
    long long rows_swept_ = 0;
    long long rows_reused_foreign_ = 0;
    // Pass anchor (see begin_pass): a copy of the first checkpointed
    // sweep of the current pass, restored as the active checkpoint by
    // the next begin_pass().  Never populated without begin_pass(), so
    // one-shot workspaces pay nothing.
    std::vector<Bsb_cost> anchor_costs_;
    util::Arena_vector<double> anchor_rows_;
    std::vector<std::size_t> anchor_hi_;
    double anchor_quantum_ = 0.0;
    std::size_t anchor_width_ = 0;
    bool anchor_valid_ = false;
    bool anchor_armed_ = false;  ///< capture the pass's next ckpt write
};

/// Admissible bound on the total saving any partition of `costs` can
/// achieve: the sum of the positive per-BSB hardware gains, crediting
/// every BSB its adjacency saving and ignoring the area budget
/// entirely.  For every partition, time_all_sw - time_hybrid <=
/// max_gain(costs); the branch-and-bound allocation search prunes the
/// DP for candidates whose bound cannot beat the incumbent.
double max_gain(std::span<const Bsb_cost> costs);

/// The DP's optimal objective value — the best achievable saving vs.
/// all-software — without reconstructing which BSBs achieve it.  This
/// is the search's screening pass: no traceback bookkeeping, so it
/// costs a fraction of pace_partition; the full DP only runs for
/// candidates whose screened time can still beat the incumbent.
/// Equals all_sw - pace_partition(...).time_hybrid_ns up to float
/// summation order.  Participates in the workspace checkpoint like
/// pace_partition (value rows only; it never touches traceback rows).
double pace_best_saving(std::span<const Bsb_cost> costs,
                        const Pace_options& options,
                        Pace_workspace* workspace = nullptr);

/// Evaluate a *given* partition with the same timing model the DP
/// optimizes (used for cross-checking and for the HW-fraction
/// reporting of Table 1).
Pace_result evaluate_partition(std::span<const Bsb_cost> costs,
                               const std::vector<bool>& in_hw);

}  // namespace lycos::pace

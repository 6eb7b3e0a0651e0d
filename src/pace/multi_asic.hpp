// Two-ASIC partitioning (the paper's second future-work direction,
// §6: "the generalization to target architectures that contain more
// than one ASIC").
//
// Each BSB now chooses between software and *two* ASICs, each with its
// own pre-allocated data-path and its own controller-area budget.  The
// PACE dynamic program generalizes naturally: the state carries the
// quantized area used on both ASICs plus the previous BSB's placement,
// and the adjacency communication saving applies only when consecutive
// BSBs sit on the *same* ASIC (values cannot stay in the data-path
// across chips).
//
// The DP (multi_pace_partition) is *Pareto-sparse*: a row's DP states
// are not a dense (a0, a1) grid but the set of dominance-maximal
// states only.  A state survives a row exactly when no other state of
// the same previous-placement lane uses no more area on both ASICs and
// achieves at least its saving; everything else is provably useless
// to every completion.  The pruning is *complete* (the kept set is
// exactly the Pareto-maximal antichain with bitwise-exact values), so
// the sparse DP reproduces the dense full-grid DP's optimal value AND
// its traceback placement bit for bit — see the proof sketch on
// Multi_dp_sparse in multi_asic.cpp.  The dense DP is the test oracle
// (tests/support/multi_pace_reference.hpp); it quantizes through the
// same prepare_multi, so the tests compare the two bit for bit.
// multi_pace_best_saving is the sparse value-only screening entry;
// Multi_pace_options::optimistic_rounding flips the area rounding
// down so the DP value upper-bounds every ceil-rounded evaluation —
// the admissible per-point bound the multi-ASIC search prunes with.
// Multi_pace_options::min_saving bounds a sweep by the caller's
// time-to-beat: after each row it drops every state that cannot reach
// the floor even if each remaining BSB added its largest gain term
// (multi_gain_terms).  The ladder a pair climbs in the multi-ASIC
// search is multi_max_gain, then the floored screening sweep, then
// the floored full partition.
#pragma once

#include <array>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "pace/cost_model.hpp"
#include "util/arena.hpp"

namespace lycos::util {
class Cancel_token;
}

namespace lycos::util::simd {
struct Kernels;
}

namespace lycos::pace {

/// Placement of one BSB in the two-ASIC architecture.
enum class Placement : int {
    software = -1,
    asic0 = 0,
    asic1 = 1,
};

/// Per-BSB costs for the two-ASIC partition: software time plus one
/// hardware cost set per ASIC (the ASICs may have different
/// allocations, so times and controller areas differ).
struct Multi_bsb_cost {
    double t_sw = 0.0;
    std::array<Bsb_cost, 2> hw;  ///< t_hw/comm/ctrl_area/save_prev per ASIC
};

/// Options for the two-ASIC dynamic program.
struct Multi_pace_options {
    std::array<double, 2> ctrl_area_budgets{0.0, 0.0};

    /// Area discretization step.  0 selects automatically: the larger
    /// budget / 4096 but at least 1 gate — the same default as the
    /// single-ASIC Pace_options (the /256 the two-ASIC path once used
    /// quantized 16x coarser than every other DP in the system).
    double area_quantum = 0.0;

    /// Hard cap on the (a0, a1) grid size w0*w1.  A quantum that
    /// would need a larger grid is re-quantized (scaled up by
    /// sqrt(overshoot)) until the grid fits, instead of letting a
    /// caller-supplied small quantum allocate n*w0*w1*3*2 bytes of
    /// traceback unchecked; Multi_pace_result::area_quantum_used
    /// reports what was actually used.  The default bounds value/next
    /// at ~12 MB and keeps the auto quantum at ~512 levels per axis.
    long long max_dp_cells = 1 << 18;

    /// Round quantized controller areas *down* instead of up.  The DP
    /// value then upper-bounds the exact (continuum) optimum — and
    /// therefore every ceil-rounded DP at any quantum and any budgets
    /// no larger than these — instead of lower-bounding it.  For
    /// admissible bounds only (the multi-ASIC search's per-a0-row
    /// bound); a partition built this way may overpack the budgets.
    bool optimistic_rounding = false;

    /// Optional cancellation handle for the sparse sweeps: the DP-cell
    /// budget is charged and the token polled (full stop(), including
    /// the deadline clock — these rows are the heaviest stripes in the
    /// stack) once per BSB row.  An aborted value sweep returns -inf;
    /// an aborted multi_pace_partition returns the honest all-software
    /// placement.
    const util::Cancel_token* cancel = nullptr;

    /// Saving floor for the sparse sweeps: the caller only needs the
    /// answer when it saves at least this much.  After each row the
    /// sweep drops every state whose value plus an admissible bound on
    /// the rest of the rows (per BSB the larger of its two
    /// multi_gain_terms) is below the floor.  The default -inf drops
    /// nothing.  When the optimum is >= the floor, value and placement
    /// are bit-identical to the floorless sweep; otherwise the value
    /// is below the floor — the best surviving state's, or lowest()
    /// when no state survives (multi_pace_partition then returns the
    /// all-software placement).
    double min_saving = -std::numeric_limits<double>::infinity();
};

/// Result of the two-ASIC partition.
struct Multi_pace_result {
    std::vector<Placement> placement;
    double time_all_sw_ns = 0.0;
    double time_hybrid_ns = 0.0;
    double speedup_pct = 0.0;
    std::array<double, 2> ctrl_area_used{0.0, 0.0};
    int n_in_hw = 0;

    /// Effective DP quantum after the auto default and the
    /// max_dp_cells guard (0 from evaluate_multi_partition, which has
    /// none) — mirrors Pace_result::area_quantum_used.
    double area_quantum_used = 0.0;

    // DP observability (all 0 from evaluate_multi_partition):
    long long dp_cells_swept = 0;  ///< source (a0,a1,p) cells/states visited
    long long dp_cells_dense = 0;  ///< n * w0 * w1 * 3 — the dense scan's sweep
    /// Sparse path only: states stored across all rows (the traceback
    /// arena's entry count); 0 from the dense sweep.
    long long dp_states_stored = 0;
    std::size_t traceback_bytes = 0;  ///< compact traceback allocated
    std::size_t traceback_bytes_dense = 0;  ///< pre-overhaul dense encoding

    /// Fraction of the dense grid the sweep actually visited (sparse
    /// states over dense cells).
    double state_occupancy() const
    {
        return dp_cells_dense > 0
                   ? static_cast<double>(dp_cells_swept) /
                         static_cast<double>(dp_cells_dense)
                   : 0.0;
    }
};

/// Build the two-ASIC cost model: one ordinary cost model per ASIC
/// allocation.
std::vector<Multi_bsb_cost> build_multi_cost_model(
    std::span<const bsb::Bsb> bsbs, const hw::Hw_library& lib,
    const hw::Target& target, const core::Rmap& alloc0,
    const core::Rmap& alloc1, Controller_mode mode);

/// The two-ASIC DP's quantization: every DP over a cost vector (the
/// sparse sweep, the screening pass and the dense test oracle) must
/// quantize through prepare_multi so their results agree exactly.
struct Multi_setup {
    double quantum = 0.0;
    std::array<long long, 2> cap{0, 0};  ///< last level within each budget
    std::size_t w0 = 0, w1 = 0;          ///< cap + 1 per axis
};

/// Validate `options` (throws std::invalid_argument on a negative or
/// non-finite budget, max_dp_cells < 4 or a bad quantum), pick the
/// quantum (auto default, then re-quantized until the grid fits
/// max_dp_cells) and fill each BSB's quantized controller area per
/// ASIC (`qarea`, rounded up, or down under optimistic_rounding) and
/// whether it fits that ASIC's budget at all (`possible`).
Multi_setup prepare_multi(std::span<const Multi_bsb_cost> costs,
                          const Multi_pace_options& options,
                          std::vector<std::array<int, 2>>& qarea,
                          std::vector<std::array<std::uint8_t, 2>>& possible);

class Multi_pace_workspace;

/// One Pareto-sparse DP state: quantized controller area used on each
/// ASIC plus the best saving achieved with it.  The previous BSB's
/// placement is the *lane* the state is stored in, not a field;
/// `parent` is the lane of the state's DP predecessor (the traceback
/// nibble's payload), dead weight to the value sweep and ignored by
/// dominance.  This is the single-state *view* type; rows store their
/// states in Multi_state_soa, not as arrays of this struct.
struct Multi_state {
    int a0 = 0;
    int a1 = 0;
    double value = 0.0;
    std::uint8_t parent = 0;
};

/// One lane's states in structure-of-arrays layout: parallel
/// a0 / a1 / value / parent arrays, index-aligned, sorted by
/// (a0, a1).  SoA is what makes the dominance-merge scans streaming
/// loops — the shift kernel reads two contiguous int32 arrays and one
/// contiguous double array instead of striding through 24-byte
/// structs, and the prefix-max touches values only.
struct Multi_state_soa {
    std::vector<std::int32_t> a0;
    std::vector<std::int32_t> a1;
    std::vector<double> value;
    std::vector<std::uint8_t> parent;

    std::size_t size() const { return value.size(); }
    bool empty() const { return value.empty(); }

    void clear()
    {
        a0.clear();
        a1.clear();
        value.clear();
        parent.clear();
    }

    void push_back(std::int32_t s0, std::int32_t s1, double v,
                   std::uint8_t par)
    {
        a0.push_back(s0);
        a1.push_back(s1);
        value.push_back(v);
        parent.push_back(par);
    }

    void resize(std::size_t n)
    {
        a0.resize(n);
        a1.resize(n);
        value.resize(n);
        parent.resize(n);
    }

    void swap(Multi_state_soa& other)
    {
        a0.swap(other.a0);
        a1.swap(other.a1);
        value.swap(other.value);
        parent.swap(other.parent);
    }

    Multi_state operator[](std::size_t i) const
    {
        return {a0[i], a1[i], value[i], parent[i]};
    }
};

/// Cache-line-blocked, epoch-stamped prefix-max over positions
/// [0, nb) — the dominance test's "best value at a1' <= a1 so far".
/// Replaces the Fenwick tree: per-block maxima (one cache line of
/// fine values per block) make the query a contiguous streaming max
/// over blk_[0 .. pos/8) — fed to the dispatched max_reduce kernel —
/// plus at most one partial fine block, instead of log(w1) scattered
/// loads.  update stays O(1); fine blocks are reset lazily on first
/// touch per epoch.  The query is an exact max, so every dominance
/// decision — and therefore the kept antichain — is identical to the
/// Fenwick implementation it replaces.
class Blocked_prefix_max {
public:
    /// Start a new epoch over positions [0, nb).
    void begin(std::size_t nb);

    /// Max value updated at positions <= pos this epoch (-inf if none).
    double query(std::size_t pos) const;

    void update(std::size_t pos, double v);

private:
    static constexpr std::size_t k_block = 8;  ///< doubles per cache line

    std::vector<double> fine_;
    std::vector<double> blk_;  ///< per-block max, reset every epoch
    std::vector<std::uint32_t> blk_epoch_;  ///< fine-block lazy-reset stamp
    std::uint32_t epoch_ = 0;
    const util::simd::Kernels* kern_ = nullptr;  ///< cached at begin()
};

/// A row's Pareto-sparse state sets: per previous-placement lane
/// (0 = SW, 1 = asic0, 2 = asic1) the dominance-maximal states in SoA
/// layout, sorted by (a0, a1).  The sparse sweep double-buffers two
/// of these inside the Multi_pace_workspace; `prune` is the dominance
/// kernel, public so crafted tie/colinear cases can unit-test it
/// directly.
class Multi_pace_state_set {
public:
    const Multi_state_soa& lane(std::size_t p) const { return lanes_[p]; }

    std::size_t size() const
    {
        return lanes_[0].size() + lanes_[1].size() + lanes_[2].size();
    }

    /// Complete dominance pruning, in place.  `states` must be sorted
    /// by (a0, a1) ascending with unique coordinates and a1 <= a1_cap;
    /// on return it holds exactly the states no other state dominates
    /// (<= area on both axes, unequal coordinates, >= value) — the
    /// Pareto-maximal antichain, order preserved — whose value is at
    /// least `need`.  Completeness is what makes the sparse DP
    /// traceback-identical to the dense reference: every surviving
    /// state provably carries the dense value of its cell.  The floor
    /// keeps that: a state's dominators are worth at least as much, so
    /// a state that clears `need` is dominated within the filtered set
    /// exactly when it is dominated within the whole one.  Returns the
    /// number of states the floor dropped.
    std::size_t prune(Multi_state_soa& states, int a1_cap,
                      double need = -std::numeric_limits<double>::infinity());

private:
    friend struct Multi_dp_sparse;
    std::array<Multi_state_soa, 3> lanes_;
    Blocked_prefix_max pmax_;
};

/// Optimal (up to area discretization) two-ASIC partition over the
/// Pareto-sparse state sets.  With a non-null `workspace` the DP
/// reuses the caller-owned state arenas across calls (grow-only
/// buffers, not thread-safe); results are identical with or without
/// one, and — placement included — bit-identical to the dense DP.
Multi_pace_result multi_pace_partition(
    std::span<const Multi_bsb_cost> costs, const Multi_pace_options& options,
    Multi_pace_workspace* workspace = nullptr);

/// The DP's optimal saving vs. all-software without reconstructing
/// the placement — the sparse screening counterpart of
/// pace_best_saving: no traceback arena at all, so it costs a
/// fraction of the full partition.  Equals all-SW time minus
/// multi_pace_partition(...).time_hybrid_ns up to float summation
/// order.  With options.optimistic_rounding this is the admissible
/// upper bound the multi-ASIC search's per-point prune uses.  Returns
/// -inf when the token tripped mid-sweep, and lowest() (finite) when
/// options.min_saving dropped every state.
double multi_pace_best_saving(std::span<const Multi_bsb_cost> costs,
                              const Multi_pace_options& options,
                              Multi_pace_workspace* workspace = nullptr);

/// Admissible bound on the total saving any two-ASIC placement of
/// `costs` can achieve — the generalization of pace::max_gain: each
/// BSB contributes the better of its two per-ASIC gains, crediting
/// the larger adjacency saving unconditionally and ignoring both area
/// budgets.  For every placement, time_all_sw - time_hybrid <=
/// multi_max_gain(costs); the multi-ASIC allocation search skips the
/// screening DP for pairs whose bound cannot beat the incumbent.
double multi_max_gain(std::span<const Multi_bsb_cost> costs);

/// One ASIC's per-BSB terms of multi_max_gain: out[i] is BSB i's gain
/// on that ASIC (adjacency credited, clamped at 0; 0 when infeasible).
/// The term depends on one allocation only, so the multi-ASIC pair
/// walk computes it once per axis point instead of once per pair.
/// Resizes `out` to costs.size().
void multi_gain_terms(std::span<const Bsb_cost> costs,
                      std::vector<double>& out);

/// multi_max_gain from two ASICs' precomputed multi_gain_terms:
/// sum over i of max(g0[i], g1[i]), summed in BSB order — bit-
/// identical to multi_max_gain over the combined costs.
double multi_max_gain(std::span<const double> g0,
                      std::span<const double> g1);

/// Caller-owned reusable buffers for the sparse two-ASIC DP.
/// Grow-only; one workspace per thread, never shared across
/// concurrent calls.
class Multi_pace_workspace {
public:
    Multi_pace_workspace() = default;

    /// Back the big DP buffers (traceback arenas, merge scratch) with
    /// a caller-owned per-worker Arena: first-touched — and kept — on
    /// the worker that sweeps them.  The arena must outlive the
    /// workspace.
    explicit Multi_pace_workspace(util::Arena* arena)
        : tb_key_(util::Arena_allocator<std::uint64_t>(arena)),
          tb_cell_(util::Arena_allocator<std::uint8_t>(arena)),
          mkey_{util::Arena_vector<std::uint64_t>(
                    util::Arena_allocator<std::uint64_t>(arena)),
                util::Arena_vector<std::uint64_t>(
                    util::Arena_allocator<std::uint64_t>(arena)),
                util::Arena_vector<std::uint64_t>(
                    util::Arena_allocator<std::uint64_t>(arena))},
          mval_{util::Arena_vector<double>(
                    util::Arena_allocator<double>(arena)),
                util::Arena_vector<double>(
                    util::Arena_allocator<double>(arena)),
                util::Arena_vector<double>(
                    util::Arena_allocator<double>(arena))}
    {
    }

    /// Observability of the most recent sweep through this workspace
    /// (sparse source states, and the dense grid a full scan would
    /// have swept) — the multi-ASIC search
    /// aggregates these across its screening calls, which return only
    /// a double.
    long long last_cells_swept() const { return last_cells_swept_; }
    long long last_cells_dense() const { return last_cells_dense_; }
    /// States the saving floor (Multi_pace_options::min_saving)
    /// dropped in the most recent sweep.
    long long last_states_dropped() const { return last_states_dropped_; }

private:
    friend struct Multi_dp_sparse;  ///< Pareto-sparse sweep (multi_asic.cpp)
    friend Multi_pace_result multi_pace_partition(
        std::span<const Multi_bsb_cost> costs,
        const Multi_pace_options& options, Multi_pace_workspace* workspace);
    friend double multi_pace_best_saving(
        std::span<const Multi_bsb_cost> costs,
        const Multi_pace_options& options, Multi_pace_workspace* workspace);
    // --- shared quantization scratch --------------------------------
    std::vector<std::array<int, 2>> qarea_;
    std::vector<std::array<std::uint8_t, 2>> possible_;
    /// suffix_[k]: the saving rows k..n-1 can add at most (the floor's
    /// bound), sized n + 1; filled only when a floor is set.
    std::vector<double> suffix_;
    // --- sparse sweep arenas ----------------------------------------
    Multi_pace_state_set cur_;
    Multi_pace_state_set nxt_;
    /// Sparse traceback: states of row i, lane p live at arena
    /// indices [srow_off_[i*3+p], srow_off_[i*3+p+1]) — tb_key_ holds
    /// (a0 << 32 | a1) for the traceback's binary search, tb_cell_
    /// the nibble-packed decision*3+parent codes, one nibble per
    /// stored state ("sparse row indices").
    util::Arena_vector<std::uint64_t> tb_key_;
    util::Arena_vector<std::uint8_t> tb_cell_;
    std::vector<std::size_t> srow_off_;
    /// Dominance-merge scratch, one slot per source lane: the shifted
    /// packed keys ((a0 << 32 | a1) after this row's area shift, or
    /// util::simd::k_invalid_key for a1 overflow) and pre-added
    /// values the multi_shift_lane kernel emits and the scalar 3-way
    /// merge consumes.
    std::array<util::Arena_vector<std::uint64_t>, 3> mkey_;
    std::array<util::Arena_vector<double>, 3> mval_;
    long long last_cells_swept_ = 0;
    long long last_cells_dense_ = 0;
    long long last_states_dropped_ = 0;
};

/// Evaluate a given placement with the exact model (cross-checking).
Multi_pace_result evaluate_multi_partition(
    std::span<const Multi_bsb_cost> costs,
    const std::vector<Placement>& placement);

}  // namespace lycos::pace

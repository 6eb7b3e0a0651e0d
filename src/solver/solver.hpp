// lycos::solver — the unified session API over the §5 methodology.
//
// The paper's pipeline is one loop — allocate, schedule, PACE-
// partition, score.  This module is the one entry point for it, and
// it owns the caches, workspaces and thread pools every search needs
// so no caller threads them by hand:
//
//   Problem   what to solve: BSBs, target ASIC(s), restrictions and
//             the objective — a pure description, no machinery.
//   Session   the machinery for one problem: the thread pool, the
//             shared Eval_cache serving worker 0 and re-scores, and —
//             computed once and read by every worker — the shared
//             immutable cost invariants/frames (Eval_invariants) each
//             worker cache used to recompute privately.
//   Strategy  a registered, named way to search: `exhaustive_bb`
//             (branch-and-bound over the full space), `hill_climb`
//             (iterated restarts with value-DP screening), and
//             `multi_asic_bb` (branch-and-bound over two-ASIC
//             allocation pairs, scored by the sparse two-ASIC DP).
//             Each is one engine, Solve_result fn(Session&, const
//             Solve_options&), with one options and one result type.
//
// Determinism contract (all strategies): the best tuple is
// bit-identical for any thread count, any chunking, any cache
// capacity, warm or cold session state.
#pragma once

#include <array>
#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "core/rmap.hpp"
#include "pace/multi_asic.hpp"
#include "search/eval_cache.hpp"
#include "search/evaluate.hpp"
#include "util/cancel.hpp"
#include "util/chunk_range.hpp"
#include "util/rng.hpp"

namespace lycos::util {
class Thread_pool;
}

namespace lycos::search {
class Dp_workspace_pool;
}

namespace lycos::solver {

/// What the search optimizes.  One objective today — the paper's:
/// minimal hybrid execution time, ties toward smaller data-path area,
/// then toward enumeration order.  The enum pins that contract in the
/// Problem instead of leaving it implicit in each entry point.
enum class Objective {
    min_hybrid_time,
};

/// One structural defect of a Problem description, as reported by
/// Problem::validate: which field is wrong and why, in plain words.
struct Problem_defect {
    std::string field;    ///< e.g. "lib", "restrictions"
    std::string message;  ///< human-readable explanation
};

/// A complete description of one allocation-search problem: the
/// application, the target silicon, the §4.3 restrictions bounding
/// the space, and the objective.  Pure data — building one runs
/// nothing; a Session adds the machinery.  The referenced BSBs,
/// library and storage model must outlive every Session built from
/// the Problem (the target is held by value).
struct Problem {
    std::span<const bsb::Bsb> bsbs;
    const hw::Hw_library* lib = nullptr;
    hw::Target target;
    core::Rmap restrictions;
    Objective objective = Objective::min_hybrid_time;

    pace::Controller_mode ctrl_mode = pace::Controller_mode::list_schedule;

    /// PACE area quantum used while searching (0 = exact default);
    /// Session::rescore always re-evaluates at the exact quantum.
    double area_quantum = 0.0;

    /// Forwarded to Eval_context::dp_table_budget (the engines pin it
    /// themselves when a search quantum is set).
    double dp_table_budget = 0.0;

    const estimate::Storage_model* storage = nullptr;

    /// The two-ASIC target for `multi_asic_bb`: per-ASIC total areas.
    /// {0, 0} splits the single target's area evenly — the same
    /// default split the two-ASIC benches use.  Ignored by the
    /// single-ASIC strategies.
    std::array<double, 2> asic_areas{0.0, 0.0};

    /// Every structural defect of this description, not just the
    /// first: null library, no BSBs, negative areas or budgets,
    /// restrictions naming resources outside the library.  Empty =
    /// the Problem is well-formed.  The Session constructor calls
    /// this and throws one std::invalid_argument joining the full
    /// report, so a caller fixing a hand-built Problem sees every
    /// mistake at once instead of one per run.
    std::vector<Problem_defect> validate() const;
};

/// Extra knobs of the `hill_climb` strategy.
struct Hill_climb_extras {
    int n_restarts = 12;  ///< restart 0 = empty allocation, rest random
    int max_steps = 128;  ///< safety bound per climb
    /// Start points are drawn from this seed in restart order (the
    /// repo's fixed reproducible seed by default).
    std::uint64_t seed = 0xD47E1998;
};

/// Extra knobs of the `multi_asic_bb` strategy.
struct Multi_asic_extras {
    /// Optional soft cap on the walked pair space (after the per-axis
    /// area filter); <= 0, the default, walks the whole space.  Under
    /// a cap the search walks exactly the first `pair_limit` pairs in
    /// a0-major order — deterministically, whatever the thread count
    /// — and reports the rest in Multi_solve_result::pairs_skipped, a
    /// best-of-prefix answer.  The walk primes its time-to-beat from a
    /// pair inside the walked prefix (Multi_solve_result::
    /// prime_time_ns), so pruning only compares against walked pairs
    /// and the best pair stays exactly the brute-force best of that
    /// prefix.
    long long pair_limit = 0;

    /// Branch-and-bound over the a0-major pair *tree*: before any
    /// per-pair DP runs in a row, an O(1) separable row check may kill
    /// the whole row — the row's single-ASIC optimum S_0(i) plus the
    /// largest S_1 over its columns (each the best saving one point
    /// reaches alone on its ASIC, one optimistically rounded DP per
    /// point per solve) cannot beat the time-to-beat.  Off = the
    /// per-pair walk (useful as a reference; results are identical).
    bool use_row_bound = true;
};

/// Unified knobs across strategies; per-strategy extras ride in the
/// variant (monostate = strategy defaults; a mismatched alternative
/// throws).  Where a flat knob cannot apply it says so below, rather
/// than pretending: hill_climb and multi_asic_bb evaluate *through*
/// memoized costs by construction, so for them use_cache=false only
/// drops the shared session cache (hill_climb workers still memoize
/// privately, bounded by cache_capacity; multi_asic_bb's prep chunks
/// fetch its per-solve axis cost block through private throwaway
/// caches, chunk 0 through the session cache only when caching is
/// on).  For hill_climb, use_pruning toggles the admissible
/// proxy-cost screen on neighbour evaluation (Eval_cache::find_one +
/// optimistic stand-in costs; candidates the proxy proves
/// non-improving skip their exact screen — the climb trajectory and
/// best tuple are identical either way).
struct Solve_options {
    int n_threads = 0;        ///< 0 = hardware concurrency
    bool use_cache = true;    ///< memoize per-BSB scheduling (see above)
    bool use_pruning = true;  ///< branch-and-bound / screening prunes
    std::size_t cache_capacity = 0;  ///< per-worker cache cap (0 = unbounded)

    // --- Deadlines, budgets, and anytime results (docs/api.md) ---
    // When any of these is armed, Session::solve builds a
    // util::Cancel_token for the run and every strategy degrades to
    // an anytime solve: it stops cooperatively at a chunk/row
    // boundary, returns the best of what it explored, and reports
    // why in Solve_result::status.

    /// Wall-clock budget for the solve in milliseconds (0 = none).
    /// Checked cooperatively, so the overrun is bounded by one DP
    /// row / one evaluation, not by a thread preemption.
    double deadline_ms = 0.0;

    /// Cap on scored points — screened or fully evaluated, the same
    /// work Solve_result::n_evaluated counts (0 = unlimited).
    std::uint64_t max_evals = 0;

    /// Cap on DP cells/states swept across every PACE run of the
    /// solve (0 = unlimited).  The finest-grained budget: it trips
    /// inside a single evaluation's sweep.
    std::uint64_t max_dp_cells = 0;

    /// Deterministic fault injection for tests: trips the token (or
    /// simulates an allocation failure) at a fixed logical work unit,
    /// independent of threads and wall clock.  Not for production.
    util::Fault_injector fault;

    /// Engine-level escape hatch: a caller-owned token used directly
    /// (the knobs above then layer on top of it as its child).
    /// Prefer Session::solve(name, options, token) for external
    /// cancellation.
    const util::Cancel_token* cancel = nullptr;

    // --- Distributed-search hooks (src/dist/, docs/distributed.md) ---

    /// Restrict the walk to the logical-unit range [window.begin,
    /// window.end) — leaf indices for `exhaustive_bb`, a0 rows for
    /// `multi_asic_bb` (the same units Fault_injector cuts at).  The
    /// default sentinel covers the whole space.  This is the range
    /// *lease* of the distributed search: folding per-window bests of
    /// a partition of the space in window order reproduces the
    /// full-space best tuple bit-identically; one window's best on
    /// its own may be screened against global probe points.
    /// `hill_climb` has no unit range to lease and throws when a
    /// window is set.
    util::Chunk_range window;

    /// Optional cross-process incumbent bound sampled by the engines
    /// (chunk entry, strided leaf polls, row boundaries) and folded
    /// into the prune threshold.  Every value stored in it must be
    /// the hybrid time of a fully evaluated real point of the space —
    /// then any broadcast/sampling timing yields the bit-identical
    /// best tuple (see util::Shared_bound).
    const util::Shared_bound* incumbent_bound = nullptr;

    std::variant<std::monostate, Hill_climb_extras, Multi_asic_extras>
        extras;
};

/// The `multi_asic_bb` section of a Solve_result (active only when
/// that strategy ran).  The unified counters (n_evaluated / n_pruned
/// / space_size) in the enclosing Solve_result count allocation
/// *pairs* for this strategy.
struct Multi_solve_result {
    bool active = false;
    std::array<core::Rmap, 2> datapaths;          ///< best pair found
    std::array<double, 2> datapath_area{0.0, 0.0};
    std::array<double, 2> asic_areas{0.0, 0.0};   ///< budgets searched
    pace::Multi_pace_result partition;            ///< its two-ASIC partition
    std::array<long long, 2> axis_points{0, 0};   ///< per-ASIC fitting points

    // Pair-tree branch-and-bound observability:
    long long rows_visited = 0;  ///< a0 rows walked (within the prefix)
    long long rows_pruned = 0;   ///< rows killed whole by the row bound
    /// Pairs beyond Multi_asic_extras::pair_limit, deterministically
    /// skipped instead of thrown on (0 = the whole space was walked).
    long long pairs_skipped = 0;
    /// Sparse-DP work across every screening/partition sweep of this
    /// solve: Pareto states actually swept vs. the dense grids the
    /// same sweeps would have scanned (the ratio is the aggregate
    /// sparse occupancy).
    long long dp_states_swept = 0;
    long long dp_cells_dense = 0;
    /// States the pair DPs' saving floor dropped mid-sweep
    /// (pace::Multi_pace_workspace::last_states_dropped, summed).
    long long dp_states_dropped = 0;
    /// The time-to-beat the walk started from: the screened time of
    /// the walked pair of largest separable bound S_0(i) + S_1(j) —
    /// the window row with the largest S_0, then the largest S_1 among
    /// the columns that row walks.  +inf when the walk ran unprimed:
    /// no pruning, a cancellation token attached, or a primer DP whose
    /// saving floor dropped every state.  A distributed solve's folded
    /// result leaves it +inf: each lease primes from its own rows.
    double prime_time_ns = std::numeric_limits<double>::infinity();
};

/// Per-worker stats of a distributed solve (Dist_solve_result), in
/// coordinator connection order.
struct Dist_worker_stats {
    long long ranges_served = 0;       ///< lease results accepted
    long long incumbents_applied = 0;  ///< broadcast bounds that tightened
                                       ///< this worker's Shared_bound
    long long remote_bound_kills = 0;  ///< prunes only the remote bound made
};

/// The distributed section of a Solve_result (active only when the
/// solve ran through dist::solve_distributed; see docs/distributed.md).
struct Dist_solve_result {
    bool active = false;
    int n_workers = 0;          ///< workers that ever connected
    long long n_units = 0;      ///< leased logical units (leaves / rows)
    long long leases_granted = 0;     ///< grants incl. re-grants
    long long leases_reassigned = 0;  ///< ranges re-queued after a death
    long long workers_lost = 0;       ///< EOF, send failure, or timeout
    long long incumbent_broadcasts = 0;  ///< bound messages fanned out
    long long leases_solved_locally = 0; ///< coordinator fallback ranges
    std::vector<Dist_worker_stats> workers;
};

/// Unified outcome of Session::solve, whatever strategy ran.
struct Solve_result {
    std::string strategy;      ///< registry name of the strategy that ran
    search::Evaluation best;   ///< best single-ASIC allocation
                               ///< (default-constructed for multi_asic_bb
                               ///< — see `multi`)
    /// True once any point was fully evaluated.  Always true for a
    /// full-space solve (the empty allocation / pair is a real point);
    /// a windowed solve may legitimately end without one when every
    /// leaf of the window was screened or infeasible.
    bool have_best = false;
    long long n_evaluated = 0; ///< points scored (value-DP or full)
    long long n_pruned = 0;    ///< points skipped by bounds/screening
    /// Prunes attributable to Solve_options::incumbent_bound alone
    /// (the remote bound was strictly tighter than every local
    /// threshold at the kill site).
    long long n_pruned_remote = 0;
    long long space_size = 0;  ///< full space (pairs for multi_asic_bb)
    double seconds = 0.0;
    int n_threads = 1;
    search::Eval_cache_stats cache_stats;  ///< aggregated over workers
    long long dp_rows_reused = 0;  ///< incremental-DP observability
    long long dp_rows_swept = 0;
    /// The share of dp_rows_reused resumed from checkpoints an
    /// *earlier* solve left in the session's persistent workspace pool
    /// (Session::workspaces) — the cross-request warm-start counter of
    /// the serve layer's request batching.  0 on a fresh session.
    long long dp_rows_reused_cross_request = 0;

    /// Requests served in the same serve::Server batch as this one,
    /// including it (1 = served alone on a worker).  Set by the serve
    /// layer only; 0 for direct Session::solve calls.
    int batch_size = 0;

    /// Why the solve ended.  `complete` = the search ran to its
    /// natural end; anything else is an anytime result: `best` is the
    /// best of the explored prefix, honest but possibly suboptimal.
    util::Solve_status status = util::Solve_status::complete;

    /// Truncation observability: worker chunks that stopped early (or
    /// never started) and finer work units — restarts, a0 rows,
    /// subtree leaves — refused, abandoned or never claimed.  Like
    /// n_evaluated these depend on the chunking (and, for
    /// multi_asic_bb's dynamically claimed rows, on the schedule);
    /// only the best tuple is pinned.
    long long chunks_abandoned = 0;
    long long rows_abandoned = 0;

    Multi_solve_result multi;
    Dist_solve_result dist;
};

class Session;

/// A registered way to search a Problem.  Strategies are stateless
/// singletons; all per-solve state lives in the Session and in the
/// engine calls.
class Strategy {
public:
    virtual ~Strategy() = default;
    virtual std::string_view name() const = 0;
    virtual std::string_view description() const = 0;
    virtual Solve_result solve(Session& session,
                               const Solve_options& options) const = 0;
};

/// All registered strategies, in registry order (exhaustive_bb,
/// hill_climb, multi_asic_bb).
std::span<const Strategy* const> strategies();

/// Lookup by registry name; nullptr when unknown.
const Strategy* find_strategy(std::string_view name);

/// The machinery for solving one Problem: owns the thread pool, the
/// shared Eval_cache (worker 0 + re-scores), and the immutable
/// Eval_invariants every worker cache reads instead of recomputing.
/// Sessions are single-threaded on the outside (one solve at a time)
/// and neither copyable nor movable (the derived Eval_context points
/// into the session-held Problem).
class Session {
public:
    /// Validates the problem via Problem::validate and throws one
    /// std::invalid_argument listing *every* defect when it is not
    /// well-formed.
    explicit Session(Problem problem);
    ~Session();

    Session(const Session&) = delete;
    Session& operator=(const Session&) = delete;

    const Problem& problem() const { return problem_; }

    /// The Eval_context the strategies evaluate under (references the
    /// session-held problem; valid for the session's lifetime).
    const search::Eval_context& context() const { return ctx_; }

    /// Size of the single-ASIC allocation space under the problem's
    /// restrictions.
    long long space_size() const;

    /// The shared immutable frames/invariants, computed on first use
    /// and reused by every subsequent solve of this session.
    const std::shared_ptr<const search::Eval_invariants>& invariants();

    /// The session-owned shared cache (created on first use with
    /// `capacity`; later calls reuse it regardless of capacity).  It
    /// serves worker 0 of every solve and all re-scores, so the fine
    /// re-score of a search winner runs entirely on warm entries.
    search::Eval_cache& cache(std::size_t capacity = 0);

    /// The session-owned thread pool, created lazily and re-created
    /// only when a solve wants more threads than it has.
    util::Thread_pool& pool(std::size_t n_threads);

    /// The session-owned persistent DP workspace pool (created on
    /// first use): worker c of every solve sweeps on slot c, so its
    /// incremental-PACE checkpoint survives between solves and a
    /// repeat solve of the same (quantum, width) fingerprint resumes
    /// at the first divergent cost row instead of re-sweeping — the
    /// serve layer's cross-request warm start
    /// (Solve_result::dp_rows_reused_cross_request).  Results are
    /// bit-identical with or without the warm checkpoints (see
    /// Pace_workspace).
    search::Dp_workspace_pool& workspaces();

    /// Run the named strategy.  Throws std::invalid_argument for
    /// unknown names or mismatched Solve_options::extras.  When the
    /// options arm a deadline, budget or fault injector, the solve
    /// runs under a Cancel_token and may return an anytime result
    /// (Solve_result::status != complete).
    Solve_result solve(std::string_view strategy,
                       const Solve_options& options = {});

    /// Same, under an external caller-owned cancellation token (e.g.
    /// tripped from a UI thread via Cancel_token::request_cancel).
    /// Any deadline/budget knobs in `options` layer on top as a child
    /// token; the solve stops on whichever condition fires first.
    /// `cancel` must outlive the call — the session keeps no
    /// reference past it.
    Solve_result solve(std::string_view strategy,
                       const Solve_options& options,
                       const util::Cancel_token& cancel);

    /// Auto strategy pick, mirroring the paper's treatment: exhaustive
    /// when the space is within `exhaustive_limit` evaluations, else
    /// iterated hill climbing.
    Solve_result solve(const Solve_options& options = {});

    /// Re-evaluate `datapath` at the exact (quantum-free) evaluation
    /// settings through the session cache — schedules are quantum-
    /// independent, so a re-score after a coarse search runs entirely
    /// on warm entries.
    search::Evaluation rescore(const core::Rmap& datapath);

    /// Space-size threshold of the auto strategy pick.
    long long exhaustive_limit = 30000;

private:
    Problem problem_;
    search::Eval_context ctx_;
    std::shared_ptr<const search::Eval_invariants> invariants_;
    std::unique_ptr<search::Eval_cache> cache_;
    std::unique_ptr<util::Thread_pool> pool_;
    std::unique_ptr<search::Dp_workspace_pool> dp_pool_;
};

}  // namespace lycos::solver

// multi_asic_bb — branch-and-bound over the two-ASIC pair *tree*.
//
// The first multi-ASIC allocation search was a flat quadratic pair
// walk: every (a0 allocation, a1 allocation) pair of the per-axis
// filtered point lists was visited, bounded per pair, and hard-capped
// by Multi_asic_extras::pair_limit (an exception).  This engine
// restructures the walk as a deterministic branch-and-bound over the
// a0-major pair tree:
//
//   * one parallel prep pass over the points the walk reads, in
//     static contiguous chunks on the pool, each on its own workspace
//     slot and cache: it fetches each point's per-BSB costs once per
//     solve into one flat cost block (see Axis_block), so the pair
//     loop indexes memory instead of hashing projections, and bounds
//     the point: S_a(p), the best single-ASIC saving p's costs reach
//     on ASIC a (the sparse value-only DP with the other ASIC
//     infeasible, areas rounded optimistically).  A placement's
//     saving splits exactly into its two per-ASIC restrictions — the
//     adjacency credit applies only after a BSB on the same ASIC — so
//     no pair (i, j) saves more than S_0(i) + S_1(j),
//   * the walk starts from a primed time-to-beat: the screened time
//     of the walked pair of largest separable bound (the row with the
//     largest S_0, then its walked column with the largest S_1).  That
//     pair lies inside the walked prefix, the window and the mirror
//     half, so priming is sound under a truncating pair_limit and in
//     a distributed lease alike,
//   * rows are the tree's first level: one a0 axis point = one row of
//     f1 pairs.  The O(1) *row bound* S_0(i) plus the suffix maximum
//     of S_1 over the row's columns may kill the whole row before any
//     per-pair DP runs,
//   * surviving rows run the per-pair ladder: the separable bound
//     S_0(i) + S_1(j), multi_max_gain over the precomputed per-point
//     gain terms, then the sparse screening DP, then the full sparse
//     partition with traceback.  Both DPs take a saving floor from
//     the pair's local time-to-beat (Multi_pace_options::min_saving):
//     a state that cannot save enough to beat it, even if every
//     remaining BSB added its largest gain term, is dropped mid-sweep.
//     A pair that can beat it gets its exact value and placement; one
//     that cannot screens below the floor and is killed as before,
//   * at an even split (x, y) and (y, x) are the same design on
//     swapped labels, with bit-identical DP results: the pruned walk
//     scores only the j >= i half and counts the mirror pairs as
//     pruned,
//   * rows are claimed dynamically: n_threads pool tasks each take
//     the next a0 row from one atomic counter and run it on their own
//     session workspace slot, the cost block shared read-only,
//   * the workers share one time-to-beat: every full partition
//     tightens a per-solve util::Shared_bound, and every row and pair
//     threshold is min(primed time, own best, solve bound, external
//     bound), so a strong pair found by one worker prunes in all,
//   * the reduce folds the per-worker bests by the strict
//     (time, combined area) comparison and, on an exact tie, the lower
//     (a0 row, a1 column) pair index — no chunk order is needed,
//   * pair_limit is a *soft* guard: a pair space beyond it is walked
//     up to exactly pair_limit pairs in a0-major order —
//     deterministically, whatever the thread count — with the
//     remainder reported as Multi_solve_result::pairs_skipped instead
//     of thrown.  Every prune compares against a pair inside the
//     walked prefix, the primer's included, so the best pair equals
//     the brute-force best of the prefix.
//
// Every prune (row or pair) removes only pairs provably worse in
// time than a pair that is actually evaluated (a mirror pair ties
// exactly with the walked pair of lower index), and the reduction
// resolves exact ties to the lowest pair index, as the enumeration
// does — so the best (time, combined area, pair) tuple is
// bit-identical to the brute-force pair scan for any thread count,
// claim schedule, or bound setting, the determinism contract all
// strategies carry.  Which pairs are pruned rather than evaluated
// does depend on the schedule: n_evaluated, n_pruned and rows_pruned
// are not thread-count invariant.
#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "search/alloc_space.hpp"
#include "search/workspace_pool.hpp"
#include "solver/internal.hpp"
#include "util/cancel.hpp"
#include "util/chunk_range.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace lycos::solver::detail {

namespace {

/// One enumerable allocation (area pre-computed: the inner loop
/// compares it millions of times).
struct Axis_point {
    core::Rmap alloc;
    double area = 0.0;
    std::uint32_t row = 0;  ///< its row in the Axis_block, if read
    /// Bit a: the walk reads this point on ASIC a (its S_a is needed);
    /// 0 = the walk never reads it.
    std::uint8_t sides = 0;
};

/// Largest single-ASIC space the per-axis enumeration will walk while
/// building the filtered point lists.
constexpr long long k_axis_enum_limit = 1LL << 22;

/// Per-BSB costs of every axis point the walk reads, fetched once per
/// solve: row r holds n_bsbs pace::Bsb_cost (and their
/// multi_gain_terms) contiguously, so a pair costs two row offsets
/// instead of two cache lookups.  Filled by the prep pass, each row
/// by exactly one chunk, before any worker runs, and read-only
/// afterwards — shared by every worker.
struct Axis_block {
    std::size_t n_bsbs = 0;
    std::vector<pace::Bsb_cost> costs;  ///< rows x n_bsbs
    std::vector<double> gain;           ///< rows x n_bsbs gain terms

    std::span<const pace::Bsb_cost> costs_of(std::uint32_t row) const
    {
        return {costs.data() + row * n_bsbs, n_bsbs};
    }
    std::span<const double> gain_of(std::uint32_t row) const
    {
        return {gain.data() + row * n_bsbs, n_bsbs};
    }
};

/// What one worker accumulates over the rows it claims.  Cache-line
/// aligned: workers bump their counters per pair, and neighbouring
/// accumulators must not share a line.
struct alignas(64) Pair_worker {
    bool have_best = false;
    double best_time = 0.0;
    double best_area_sum = 0.0;
    long long best_i = 0;
    long long best_j = 0;
    pace::Multi_pace_result best_partition;
    long long n_evaluated = 0;
    long long n_pruned = 0;
    long long n_pruned_remote = 0;  ///< kills only the external bound made
    long long rows_visited = 0;
    long long rows_pruned = 0;
    long long dp_states_swept = 0;
    long long dp_cells_dense = 0;
    long long dp_states_dropped = 0;
    long long rows_abandoned = 0;
    bool stopped = false;
};

/// Fill the a0 half of the combined costs (t_sw is allocation-
/// independent and rides along).  Done once per a0 row of the walk;
/// set_asic1_costs patches only the a1 half per pair.
void set_asic0_costs(std::span<const pace::Bsb_cost> c0,
                     std::vector<pace::Multi_bsb_cost>& out)
{
    out.resize(c0.size());
    for (std::size_t k = 0; k < c0.size(); ++k) {
        out[k].t_sw = c0[k].t_sw;
        out[k].hw[0] = c0[k];
    }
}

void set_asic1_costs(std::span<const pace::Bsb_cost> c1,
                     std::vector<pace::Multi_bsb_cost>& out)
{
    for (std::size_t k = 0; k < c1.size(); ++k)
        out[k].hw[1] = c1[k];
}

void combine_costs(std::span<const pace::Bsb_cost> c0,
                   std::span<const pace::Bsb_cost> c1,
                   std::vector<pace::Multi_bsb_cost>& out)
{
    set_asic0_costs(c0, out);
    set_asic1_costs(c1, out);
}

/// S_a(p): the best saving point p's costs reach alone on an ASIC
/// with `ctrl_budget` of controller area, the other ASIC infeasible.
/// A pair's placement splits exactly into its two per-ASIC
/// restrictions (the adjacency credit needs both BSBs on one ASIC),
/// so its saving is at most S_0(p0) + S_1(p1); `optimistic` rounding
/// keeps that true of every ceil-rounded pair DP at any quantum.
/// Without it the value is a saving the pair itself can reach.
double single_asic_saving(std::span<const pace::Bsb_cost> c,
                          double ctrl_budget, double area_quantum,
                          bool optimistic,
                          std::vector<pace::Multi_bsb_cost>& mcosts,
                          pace::Multi_pace_workspace& mws)
{
    constexpr double inf = std::numeric_limits<double>::infinity();
    pace::Bsb_cost infeasible;
    infeasible.t_hw = inf;
    infeasible.ctrl_area = inf;
    set_asic0_costs(c, mcosts);
    for (auto& m : mcosts)
        m.hw[1] = infeasible;
    pace::Multi_pace_options mo;
    mo.ctrl_area_budgets = {ctrl_budget, 0.0};
    mo.area_quantum = area_quantum;
    mo.optimistic_rounding = optimistic;
    return pace::multi_pace_best_saving(mcosts, mo, &mws);
}

}  // namespace

Solve_result solve_multi_asic_bb(Session& session,
                                 const Solve_options& options)
{
    util::Wall_timer timer;
    const auto extras =
        extras_or_default<Multi_asic_extras>(options, "multi_asic_bb");
    const search::Eval_context& ctx = session.context();
    const auto budgets = multi_asic_budgets(session.problem());

    const search::Alloc_space space(ctx.lib,
                                    session.problem().restrictions);
    if (space.size() > k_axis_enum_limit)
        throw std::invalid_argument(
            "multi_asic_bb: single-ASIC space too large to enumerate per "
            "axis (" +
            std::to_string(space.size()) + " points); tighten restrictions");

    // Materialize the larger budget's point list — every allocation
    // whose data-path fits it, in mixed-radix enumeration order — and
    // each ASIC's axis as indices into it.  An axis is the points
    // within its own budget, so the smaller axis is a subsequence of
    // the larger one (and the same list at an even split).
    std::vector<Axis_point> points;
    std::array<std::vector<std::uint32_t>, 2> axis;
    space.for_each(std::max(budgets[0], budgets[1]),
                   [&](const core::Rmap& a) {
                       const double area = a.area(ctx.lib);
                       const auto p = static_cast<std::uint32_t>(points.size());
                       for (std::size_t k = 0; k < 2; ++k)
                           if (area <= budgets[k])
                               axis[k].push_back(p);
                       points.push_back({a, area});
                       return true;
                   });
    const long long f0 = static_cast<long long>(axis[0].size());
    const long long f1 = static_cast<long long>(axis[1].size());
    const long long pairs = f0 * f1;  // each axis <= 2^22, no overflow

    // Soft pair cap: walk exactly the first `walked` pairs (a0-major
    // order), skip the rest deterministically.  <= 0 means unlimited.
    const long long walked =
        extras.pair_limit > 0 ? std::min(pairs, extras.pair_limit) : pairs;

    Solve_result out;
    out.strategy = "multi_asic_bb";
    out.space_size = pairs;
    out.multi.active = true;
    out.multi.asic_areas = budgets;
    out.multi.axis_points = {f0, f1};
    out.multi.pairs_skipped = pairs - walked;
    if (walked == 0) {
        out.seconds = timer.seconds();
        return out;
    }
    const long long n_rows = (walked + f1 - 1) / f1;
    // Under a truncating pair_limit no row reaches the asic1 axis
    // points past the walked prefix.
    const auto reachable =
        static_cast<std::size_t>(std::min<long long>(f1, walked));

    // Resolve the a0-row window (a distributed range lease, or all
    // rows).  Everything derived from the full walk — axis lists,
    // prefix truncation, priming, the mirror rule — is computed
    // identically whatever the window, so per-window bests fold to
    // the full-space best bit-identically.
    const long long r_begin =
        options.window.whole() ? 0 : options.window.begin;
    const long long r_end =
        options.window.whole() ? n_rows : options.window.end;
    if (r_begin < 0 || r_begin > r_end || r_end > n_rows)
        throw std::invalid_argument(
            "multi_asic_bb: window [" + std::to_string(r_begin) + ", " +
            std::to_string(r_end) + ") outside the row range [0, " +
            std::to_string(n_rows) + ")");
    const long long n_rows_work = r_end - r_begin;
    if (n_rows_work == 0) {
        out.seconds = timer.seconds();
        return out;
    }

    // Resolve the shared immutable invariants before any worker runs:
    // Session::invariants() is lazily computed and not thread-safe.
    const auto invariants = session.invariants();

    // The block covers the window's rows and the reachable asic1
    // prefix: mark each point with the ASICs whose S_a the walk reads
    // (at an even split S_1 = S_0, so one bit), then number the marked
    // points, each once, in enumeration order.
    const bool even = budgets[0] == budgets[1];
    for (long long i = r_begin; i < r_end; ++i)
        points[axis[0][static_cast<std::size_t>(i)]].sides |= 1;
    for (std::size_t j = 0; j < reachable; ++j)
        points[axis[1][j]].sides |= even ? 1 : 2;
    std::vector<std::uint32_t> block_points;  // block row -> point
    for (std::uint32_t p = 0; p < points.size(); ++p)
        if (points[p].sides != 0) {
            points[p].row = static_cast<std::uint32_t>(block_points.size());
            block_points.push_back(p);
        }
    const std::size_t n_block = block_points.size();
    Axis_block block;
    block.n_bsbs = ctx.bsbs.size();
    block.costs.resize(n_block * block.n_bsbs);
    block.gain.resize(n_block * block.n_bsbs);

    // The prep pass, in static contiguous chunks of block rows, each
    // on its own workspace slot: fetch a row's costs, compute its gain
    // terms and the separable bound S_a(p) (single_asic_saving) of
    // every side it fills.  Chunk 0 fetches through the prep cache —
    // the session's when caching is on; an uncached solve must not
    // mutate or instantiate the session cache, so it fetches through a
    // throwaway — and every other chunk through a private cache on the
    // session invariants.  The DPs run without the token (an aborted
    // sweep's -inf would read as a kill); the token is polled before
    // every fetch instead, and a trip abandons every row.
    search::Eval_cache* session_cache = nullptr;
    search::Eval_cache_stats shared_before;
    if (options.use_cache) {
        session_cache = &session.cache(options.cache_capacity);
        shared_before = session_cache->stats();
    }
    std::optional<search::Eval_cache> prep_local;
    search::Eval_cache& prep =
        session_cache != nullptr
            ? *session_cache
            : prep_local.emplace(ctx, options.cache_capacity, invariants);

    const std::size_t n_prep = util::clamp_chunks(
        options.n_threads, util::Thread_pool::default_concurrency(),
        static_cast<long long>(n_block));
    // Session-persistent DP workspaces: chunk or worker c's
    // Multi_pace_workspace (sparse state sets, merge scratch, traceback
    // arena) lives on pool slot c, so its grow-only buffers survive
    // between solves and a repeat solve pays no re-allocation — the
    // multi-ASIC share of the serve layer's cross-request reuse.  The
    // walk never has more workers than the block has rows.
    session.workspaces().prepare(n_prep);

    std::array<std::vector<double>, 2> single;  // S_a per block row
    if (options.use_pruning) {
        single[0].resize(n_block);
        if (!even)
            single[1].resize(n_block);
    }
    std::vector<search::Eval_cache_stats> private_stats(n_prep);
    std::atomic<long long> bound_swept{0};
    std::atomic<long long> bound_dense{0};
    const auto prep_chunk = [&](std::size_t c, long long begin,
                                long long end) {
        std::optional<search::Eval_cache> own;
        search::Eval_cache& cache =
            c == 0 ? prep
                   : own.emplace(ctx, options.cache_capacity, invariants);
        pace::Multi_pace_workspace& mws = session.workspaces().slot(c).multi;
        std::vector<pace::Bsb_cost> costs;
        std::vector<double> gain;
        std::vector<pace::Multi_bsb_cost> mcosts;
        long long swept = 0;
        long long dense = 0;
        for (long long r = begin; r < end; ++r) {
            if (options.cancel != nullptr && options.cancel->stop())
                break;
            const Axis_point& point =
                points[block_points[static_cast<std::size_t>(r)]];
            cache.costs_for(point.alloc, costs);
            pace::multi_gain_terms(costs, gain);
            const std::size_t at = point.row * block.n_bsbs;
            std::copy(costs.begin(), costs.end(), block.costs.begin() + at);
            std::copy(gain.begin(), gain.end(), block.gain.begin() + at);
            if (!options.use_pruning)
                continue;
            for (std::size_t a = 0; a < 2; ++a)
                if ((point.sides >> a) & 1) {
                    single[a][point.row] = single_asic_saving(
                        costs, budgets[a] - point.area, ctx.area_quantum,
                        true, mcosts, mws);
                    swept += mws.last_cells_swept();
                    dense += mws.last_cells_dense();
                }
        }
        if (c != 0)
            private_stats[c] = cache.stats();
        bound_swept.fetch_add(swept, std::memory_order_relaxed);
        bound_dense.fetch_add(dense, std::memory_order_relaxed);
    };
    if (n_prep == 1)
        prep_chunk(0, 0, static_cast<long long>(n_block));
    else
        util::parallel_chunks(session.pool(n_prep),
                              static_cast<long long>(n_block), n_prep,
                              prep_chunk, options.cancel);
    out.multi.dp_states_swept = bound_swept.load();
    out.multi.dp_cells_dense = bound_dense.load();
    if (options.use_cache) {
        out.cache_stats = session_cache->stats().minus(shared_before);
        for (const auto& s : private_stats)
            out.cache_stats += s;
    }
    if (options.cancel != nullptr && options.cancel->tripped()) {
        out.rows_abandoned = n_rows_work;
        out.status = options.cancel->status();
        out.seconds = timer.seconds();
        return out;
    }

    // The all-software baseline is allocation-independent: any row's.
    double all_sw = 0.0;
    for (const auto& c : block.costs_of(0))
        all_sw += c.t_sw;
    const double slack = 1e-7 * std::max(1.0, std::abs(all_sw));

    // S_1 per reachable asic1 column, and its suffix maximum over
    // [j, reachable).
    std::vector<double> s1;
    std::vector<double> s1_suffix;
    if (options.use_pruning) {
        const auto& single1 = single[even ? 0 : 1];
        s1.resize(reachable);
        for (std::size_t j = 0; j < reachable; ++j)
            s1[j] = single1[points[axis[1][j]].row];
        s1_suffix.assign(reachable + 1,
                         -std::numeric_limits<double>::infinity());
        for (std::size_t j = reachable; j-- > 0;)
            s1_suffix[j] = std::max(s1[j], s1_suffix[j + 1]);
    }
    // At an even split (x, y) and (y, x) are one design on swapped
    // labels: the swapped pair's DP value and partition time are
    // bit-identical and its combined area is the same sum, so the
    // exact tie goes to the lower index, i <= j.  The pruned walk
    // scores only that half; row i starts at column i.
    const bool mirror = options.use_pruning && even;
    // The columns [j_begin, j_end) row i walks.  The final row of a
    // truncated prefix may be partial.  The mirror pairs (i, j < i)
    // were scored in row j, a full row (only the last row of a prefix
    // is partial).
    const auto walked_columns = [&](long long i) {
        const long long j_end = std::min(f1, walked - i * f1);
        return std::pair(mirror ? std::min(i, j_end) : 0, j_end);
    };

    // Prime the time-to-beat from the walked pair of largest separable
    // bound: the window row with the largest S_0, and the column with
    // the largest S_1 among those that row walks.  The pair is walked
    // — inside the prefix, the window and the mirror half — so a prune
    // against its time removes only pairs strictly worse than a pair
    // the walk scores anyway.  A cancellation token may stop the walk
    // before it reaches that pair, so a token disables priming.
    double prime_time = std::numeric_limits<double>::infinity();
    long long pi = -1;
    if (options.use_pruning && options.cancel == nullptr) {
        const auto s0_of = [&](long long i) {
            return single[0][points[axis[0][static_cast<std::size_t>(i)]].row];
        };
        for (long long i = r_begin; i < r_end; ++i) {
            const auto [j_begin, j_end] = walked_columns(i);
            if (j_begin < j_end && (pi < 0 || s0_of(i) > s0_of(pi)))
                pi = i;
        }
    }
    if (pi >= 0) {
        const auto [j_begin, j_end] = walked_columns(pi);
        auto pj = static_cast<std::size_t>(j_begin);
        for (auto j = pj + 1; j < static_cast<std::size_t>(j_end); ++j)
            if (s1[j] > s1[pj])
                pj = j;
        const auto& p0 = points[axis[0][static_cast<std::size_t>(pi)]];
        const auto& p1 = points[axis[1][pj]];
        pace::Multi_pace_workspace& mws = session.workspaces().slot(0).multi;
        const auto count_sweep = [&] {
            out.multi.dp_states_swept += mws.last_cells_swept();
            out.multi.dp_cells_dense += mws.last_cells_dense();
            out.multi.dp_states_dropped += mws.last_states_dropped();
        };
        // The saving floor bounds the primer's cost: the better of the
        // two points' exact single-ASIC savings, each a placement the
        // pair also has, so the sweep normally keeps the exact value
        // at a fraction of the floorless cost.  Any floor is sound:
        // below it the sweep returns a surviving placement's saving (a
        // looser time of this walked pair) or lowest() (no priming).
        std::vector<pace::Multi_bsb_cost> mcosts;
        double floor = -std::numeric_limits<double>::infinity();
        for (const auto [p, a] : {std::pair(&p0, 0), std::pair(&p1, 1)}) {
            floor = std::max(
                floor, single_asic_saving(block.costs_of(p->row),
                                          budgets[a] - p->area,
                                          ctx.area_quantum, false, mcosts,
                                          mws));
            count_sweep();
        }
        combine_costs(block.costs_of(p0.row), block.costs_of(p1.row), mcosts);
        pace::Multi_pace_options mo;
        mo.ctrl_area_budgets = {budgets[0] - p0.area, budgets[1] - p1.area};
        mo.area_quantum = ctx.area_quantum;
        mo.min_saving = floor;
        const double saving = pace::multi_pace_best_saving(mcosts, mo, &mws);
        count_sweep();
        if (saving != std::numeric_limits<double>::lowest())
            prime_time = all_sw - saving;
    }
    out.multi.prime_time_ns = prime_time;

    const bool use_row_bound = options.use_pruning && extras.use_row_bound;
    const std::size_t n_threads = util::clamp_chunks(
        options.n_threads, util::Thread_pool::default_concurrency(),
        n_rows_work);
    out.n_threads = static_cast<int>(n_threads);
    std::vector<Pair_worker> workers(n_threads);
    // The next unclaimed a0 row, and the solve's time-to-beat: the
    // best full-partition time any worker has found so far.
    std::atomic<long long> next_row{r_begin};
    util::Shared_bound solve_bound;
    const auto run_worker = [&](std::size_t c) {
        Pair_worker& w = workers[c];
        std::vector<pace::Multi_bsb_cost> mcosts;
        // Per-worker workspace from the session pool: this lambda IS
        // the task body, and distinct tasks use distinct slots.
        pace::Multi_pace_workspace& mws =
            session.workspaces().slot(c).multi;
        // The local time-to-beat: the primed time and the solve bound
        // (never above the worker's own best) are times of pairs this
        // walk scores, so a kill against them is a local kill.
        const auto local_threshold = [&] {
            return std::min(prime_time, solve_bound.get());
        };
        // External incumbent (a distributed coordinator's broadcast):
        // admissible by the Shared_bound contract, so min()ing it into
        // every threshold only removes pairs provably worse than a
        // fully evaluated real pair — the winning tuple is unchanged.
        const util::Shared_bound* ext = options.incumbent_bound;
        double ext_val = std::numeric_limits<double>::infinity();
        for (;;) {
            // Claims are increasing per worker, so a worker's rows are
            // walked in enumeration order.
            const long long i =
                next_row.fetch_add(1, std::memory_order_relaxed);
            if (i >= r_end)
                break;
            // Admission gate per a0 row — the thread-invariant work
            // unit: an injected cut walks exactly the rows below it,
            // whatever the claim schedule, so truncated incumbents stay
            // bit-identical for any thread count.
            if (options.cancel != nullptr &&
                !options.cancel->admit(static_cast<std::uint64_t>(i))) {
                ++w.rows_abandoned;
                if (options.cancel->tripped()) {
                    w.stopped = true;
                    break;
                }
                continue;
            }
            const auto& p0 = points[axis[0][static_cast<std::size_t>(i)]];
            // The mirror pairs before j_begin count as pruned.
            const auto [j_begin, j_end] = walked_columns(i);
            w.n_pruned += j_begin;
            const auto gain0 = block.gain_of(p0.row);
            const double s0 = options.use_pruning ? single[0][p0.row] : 0.0;
            set_asic0_costs(block.costs_of(p0.row), mcosts);
            ++w.rows_visited;

            if (use_row_bound && j_begin < j_end) {
                // O(1) row check: no column j >= j_begin saves more
                // than the suffix maximum of S_1.
                const double local_row = local_threshold();
                if (ext != nullptr)
                    ext_val = ext->get();
                const double threshold_row = std::min(local_row, ext_val);
                const double bound_time =
                    all_sw -
                    (s0 + s1_suffix[static_cast<std::size_t>(j_begin)]);
                if (bound_time > threshold_row + slack) {
                    w.n_pruned += j_end - j_begin;
                    // A kill the local threshold alone would not have
                    // made is credited to the remote bound.
                    if (!(bound_time > local_row + slack))
                        w.n_pruned_remote += j_end - j_begin;
                    ++w.rows_pruned;
                    continue;
                }
            }

            for (long long j = j_begin; j < j_end; ++j) {
                // Live-condition poll once per pair: a tripped token
                // abandons this row and stops the worker, keeping the
                // incumbent found so far.
                if (options.cancel != nullptr && options.cancel->stop()) {
                    ++w.rows_abandoned;
                    w.stopped = true;
                    break;
                }
                const auto& p1 = points[axis[1][static_cast<std::size_t>(j)]];

                const double local_thr = local_threshold();
                if (ext != nullptr)
                    ext_val = ext->get();
                const double threshold = std::min(local_thr, ext_val);

                if (options.use_pruning) {
                    // The separable bound first, then the budget-free
                    // one: no placement of this pair can save more
                    // than S_0(i) + S_1(j), nor more than
                    // multi_max_gain whatever the controller areas.
                    double bound_time =
                        all_sw - (s0 + s1[static_cast<std::size_t>(j)]);
                    if (!(bound_time > threshold + slack))
                        bound_time = all_sw - pace::multi_max_gain(
                                                  gain0, block.gain_of(p1.row));
                    if (bound_time > threshold + slack) {
                        ++w.n_pruned;
                        if (!(bound_time > local_thr + slack))
                            ++w.n_pruned_remote;
                        continue;
                    }
                }
                // Only pairs that reach a DP need the asic1 half.
                set_asic1_costs(block.costs_of(p1.row), mcosts);
                pace::Multi_pace_options mo;
                mo.ctrl_area_budgets = {budgets[0] - p0.area,
                                        budgets[1] - p1.area};
                mo.area_quantum = ctx.area_quantum;
                mo.cancel = options.cancel;
                // The saving floor: a pair saving less than this screens
                // above threshold + slack, a kill either way.  It follows
                // the local time-to-beat, not the external one, so a
                // screen's time — and with it the remote-kill credit —
                // is exact wherever the local threshold alone would not
                // kill the pair.
                if (options.use_pruning && std::isfinite(local_thr))
                    mo.min_saving = all_sw - local_thr - 2.0 * slack;

                if (options.use_pruning) {
                    // Screening pass: the sparse DP's optimal value
                    // without the traceback arena.  A killed pair was
                    // scored — it counts as evaluated, like the
                    // single-ASIC walker's screened leaves.
                    const double saving =
                        pace::multi_pace_best_saving(mcosts, mo, &mws);
                    w.dp_states_swept += mws.last_cells_swept();
                    w.dp_cells_dense += mws.last_cells_dense();
                    w.dp_states_dropped += mws.last_states_dropped();
                    // -inf: the token tripped mid-sweep.  The pair was
                    // not scored; the row is abandoned.  (A sweep the
                    // floor emptied returns a finite lowest(): a scored
                    // pair, killed below.)
                    if (saving == -std::numeric_limits<double>::infinity()) {
                        ++w.rows_abandoned;
                        w.stopped = true;
                        break;
                    }
                    const double screen_time = all_sw - saving;
                    if (screen_time > threshold + slack) {
                        ++w.n_evaluated;
                        if (!(screen_time > local_thr + slack))
                            ++w.n_pruned_remote;
                        if (options.cancel != nullptr)
                            options.cancel->charge_evals(1);
                        continue;
                    }
                }

                const auto full =
                    pace::multi_pace_partition(mcosts, mo, &mws);
                w.dp_states_swept += mws.last_cells_swept();
                w.dp_cells_dense += mws.last_cells_dense();
                w.dp_states_dropped += mws.last_states_dropped();
                ++w.n_evaluated;
                if (options.cancel != nullptr)
                    options.cancel->charge_evals(1);
                solve_bound.tighten(full.time_hybrid_ns);
                const double area_sum = p0.area + p1.area;
                if (!w.have_best ||
                    search::better_tuple(full.time_hybrid_ns, area_sum,
                                         w.best_time, w.best_area_sum)) {
                    w.best_time = full.time_hybrid_ns;
                    w.best_area_sum = area_sum;
                    w.best_i = i;
                    w.best_j = j;
                    w.best_partition = full;
                    w.have_best = true;
                }
            }
            if (w.stopped)
                break;
        }
    };

    std::size_t workers_skipped = 0;
    if (n_threads == 1) {
        run_worker(0);
    }
    else {
        // One pool task per worker; the rows are claimed, not split.
        workers_skipped = util::parallel_chunks(
            session.pool(n_threads), static_cast<long long>(n_threads),
            n_threads,
            [&](std::size_t c, long long, long long) { run_worker(c); },
            options.cancel);
    }

    // Fold the worker bests.  A worker keeps the first of its exact
    // ties, its lowest pair index; across workers an exact tie goes to
    // the lower (row, column) index — the pair the enumeration-order
    // scan keeps, so the (x,y)/(y,x) ties of an even split resolve as
    // on one thread.
    const Pair_worker* best = nullptr;
    for (const auto& w : workers) {
        out.n_evaluated += w.n_evaluated;
        out.n_pruned += w.n_pruned;
        out.n_pruned_remote += w.n_pruned_remote;
        out.rows_abandoned += w.rows_abandoned;
        out.chunks_abandoned += w.stopped ? 1 : 0;
        out.multi.rows_visited += w.rows_visited;
        out.multi.rows_pruned += w.rows_pruned;
        out.multi.dp_states_swept += w.dp_states_swept;
        out.multi.dp_cells_dense += w.dp_cells_dense;
        out.multi.dp_states_dropped += w.dp_states_dropped;
        if (!w.have_best)
            continue;
        if (best == nullptr ||
            search::better_tuple(w.best_time, w.best_area_sum,
                                 best->best_time, best->best_area_sum) ||
            (!search::better_tuple(best->best_time, best->best_area_sum,
                                   w.best_time, w.best_area_sum) &&
             std::pair(w.best_i, w.best_j) <
                 std::pair(best->best_i, best->best_j)))
            best = &w;
    }
    if (best != nullptr) {
        const auto& p0 =
            points[axis[0][static_cast<std::size_t>(best->best_i)]];
        const auto& p1 =
            points[axis[1][static_cast<std::size_t>(best->best_j)]];
        out.multi.datapaths = {p0.alloc, p1.alloc};
        out.multi.datapath_area = {p0.area, p1.area};
        out.multi.partition = best->best_partition;
    }
    out.have_best = best != nullptr;
    // Rows no worker claimed before a trip are abandoned too.
    out.rows_abandoned += r_end - std::min(next_row.load(), r_end);
    out.chunks_abandoned += static_cast<long long>(workers_skipped);
    if (options.cancel != nullptr) {
        out.status = options.cancel->status();
        if (out.status == util::Solve_status::complete &&
            (out.rows_abandoned > 0 || out.chunks_abandoned > 0))
            out.status = util::Solve_status::cancelled;
    }

    out.seconds = timer.seconds();
    return out;
}

}  // namespace lycos::solver::detail

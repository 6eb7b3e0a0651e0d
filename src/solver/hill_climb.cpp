// hill_climb — iterated hill climbing over the allocation space.
//
// The eigen example's space (~10^6 allocations, each costing a PACE
// run) made exhaustive evaluation impossible for the paper (footnote
// 1: the best allocation was the best found "using numerous
// experiments").  This search plays that role reproducibly: steepest-
// ascent hill climbing on the +-1-unit neighbourhood, restarted from
// random points of the space (Hill_climb_extras: restart 0 starts from
// the empty allocation, the rest from points drawn from the seed).
//
// The climb adopted the exhaustive walker's cheap-evaluation tricks:
// every candidate is scored with the *value-only* screening DP
// (pace_best_saving — no traceback bookkeeping), steps and the
// per-restart best are chosen on the screened (time, area) tuple, and
// only the overall winner pays for one full partition
// reconstruction.  With Solve_options::use_pruning, neighbours
// additionally pass through admissible *proxy-cost* screening
// (search/proxy_cost.hpp): projections already memoized come straight
// from Eval_cache::find_one, the rest are stood in for by optimistic
// costs, and only neighbours the proxy cannot rule out pay for real
// schedules.  The proxy time lower-bounds the exact screened time, so
// skipped neighbours could never have been stepped to nor have
// improved the restart best — the trajectory and the final tuple are
// bit-identical with the screen on or off (skips land in n_pruned).
// The screen is auto-disabled under a storage model (no sound proxy
// exists; see Proxy_cost_model::sound).  With an explicit search
// quantum the DP table width is additionally pinned to the total ASIC
// area (Eval_context::dp_table_budget), so the per-worker
// Pace_workspace checkpoint stays valid across the +-1 neighbourhood
// — neighbouring candidates share long cost prefixes, exactly the
// access pattern the incremental DP feeds on.  The workspaces are the
// session's Dp_workspace_pool slots, so a repeat climb of the same
// problem resumes at the first divergent cost row.  The screened time
// equals the full partition's up to float summation order, so the
// climb's trajectory is unchanged except on ties at that noise level.
//
// Restarts are independent, so they run in parallel on the session
// pool.  Worker 0 climbs on the session cache (unless use_cache is
// off), the others on private caches bounded by cache_capacity.
// Determinism contract: every start point is drawn from the seed in
// restart order *before* any climbing, each restart climbs in
// isolation, and per-restart bests are reduced in restart order with
// the same strict comparison — so the result is bit-identical to the
// sequential climb for any thread count.  A cancel token's logical
// work unit is the restart index: the injected cut climbs exactly the
// restarts below it; live conditions additionally poll once per climb
// step and keep the partial restart's best.
#include <array>
#include <limits>
#include <optional>
#include <stdexcept>
#include <utility>

#include "search/alloc_space.hpp"
#include "search/eval_cache.hpp"
#include "search/proxy_cost.hpp"
#include "search/workspace_pool.hpp"
#include "solver/internal.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace lycos::solver::detail {

namespace {

using search::Alloc_space;
using search::better_tuple;
using search::Eval_cache;
using search::Eval_cache_stats;
using search::Eval_context;

/// Screened score of one candidate: the value-only DP's hybrid time
/// and the data-path area — everything the climb needs to pick steps
/// and the best, at a fraction of a full partition reconstruction.
struct Screened {
    double time = std::numeric_limits<double>::infinity();
    double area = 0.0;
    core::Rmap point;
    bool valid = false;
};

/// What one restart's climb produces; reduced in restart order.
struct Restart_result {
    Screened best;
    long long n_evaluated = 0;
    long long n_pruned = 0;  ///< neighbours the proxy screen skipped
};

/// Per-worker scratch buffers: one screened evaluation costs one
/// memoized cost fetch into `costs` (no per-call vector churn) plus
/// one value-only DP on `ws` — the workspace checkpoint resumes at
/// the first divergent cost row, and the +-1 neighbourhood leaves
/// most rows untouched.  With a proxy model, neighbour screens first
/// assemble costs from memoized projections (find_one) plus
/// optimistic stand-ins and only fall through to real schedules when
/// the proxy tuple still beats the current point.
struct Climb_scratch {
    Eval_cache& cache;
    std::optional<search::Proxy_cost_model> proxy;
    /// The worker's session Dp_workspace_pool slot, whose checkpoint
    /// survives into the next solve.
    pace::Pace_workspace* ws;
    std::vector<pace::Bsb_cost> costs;
    std::vector<int> counts;

    Climb_scratch(const Eval_context& ctx, Eval_cache& c, bool use_proxy,
                  pace::Pace_workspace& slot_ws)
        : cache(c), ws(&slot_ws)
    {
        if (use_proxy) {
            proxy.emplace(ctx, c);
            if (!proxy->sound())
                proxy.reset();
        }
    }

    /// Value-only DP over whatever `costs` currently holds.
    std::pair<double, double> screen_costs(const Eval_context& ctx,
                                           double area)
    {
        const double all_sw = pace::all_sw_time_ns(costs);
        if (area > ctx.target.asic.total_area)
            return {all_sw, area};
        pace::Pace_options opts;
        opts.ctrl_area_budget = ctx.target.asic.total_area - area;
        opts.area_quantum = ctx.area_quantum;
        opts.table_area_budget = ctx.dp_table_budget;
        opts.cancel = ctx.cancel;
        return {all_sw - pace::pace_best_saving(costs, opts, ws), area};
    }

    /// (screened hybrid time, data-path area) of `a`.  A non-fitting
    /// point scores its all-software time, exactly as the full
    /// evaluation pipeline reports it.
    std::pair<double, double> screen(const Eval_context& ctx,
                                     const core::Rmap& a)
    {
        cache.costs_for(a, costs);
        return screen_costs(ctx, a.area(ctx.lib));
    }

    /// Neighbour screen with the admissible proxy layer: returns
    /// nullopt — and pays for no schedule — when the proxy proves the
    /// neighbour cannot beat the (ref_time, ref_area) tuple.  The
    /// proxy time lower-bounds the exact screened time, so a skipped
    /// neighbour's exact tuple could not have beaten the reference
    /// either: the climb's steps and bests are unchanged.
    std::optional<std::pair<double, double>> screen_neighbour(
        const Eval_context& ctx, const core::Rmap& a, double ref_time,
        double ref_area)
    {
        if (!proxy.has_value())
            return screen(ctx, a);

        counts.assign(ctx.lib.size(), 0);
        for (const auto& [r, c] : a.entries())
            counts[static_cast<std::size_t>(r)] = c;
        const double area = a.area(ctx.lib);
        costs.resize(ctx.bsbs.size());
        bool any_proxy = false;
        for (std::size_t b = 0; b < ctx.bsbs.size(); ++b) {
            if (const auto* exact = cache.find_one(b, counts)) {
                costs[b] = *exact;
            }
            else {
                costs[b] = proxy->cost(b, counts);
                any_proxy = true;
            }
        }
        if (!any_proxy)  // fully memoized: this IS the exact screen
            return screen_costs(ctx, area);

        const auto bound = screen_costs(ctx, area);
        if (!better_tuple(bound.first, bound.second, ref_time, ref_area))
            return std::nullopt;  // provably not an improvement
        cache.costs_for_counts(counts, costs);
        return screen_costs(ctx, area);
    }
};

/// Steepest-ascent climb from `start`, recording the best of *every*
/// screened evaluation (not just accepted steps) exactly as the
/// full-evaluation climb did.
void climb(const Eval_context& ctx, const Alloc_space& space,
           int max_steps, const core::Rmap& start, Climb_scratch& scratch,
           Restart_result& out)
{
    auto consider = [&](double time, double area, const core::Rmap& p) {
        if (!out.best.valid ||
            better_tuple(time, area, out.best.time, out.best.area)) {
            out.best.time = time;
            out.best.area = area;
            out.best.point = p;
            out.best.valid = true;
        }
    };

    core::Rmap current = start;
    auto [cur_time, cur_area] = scratch.screen(ctx, current);
    ++out.n_evaluated;
    if (ctx.cancel != nullptr)
        ctx.cancel->charge_evals(1);
    consider(cur_time, cur_area, current);

    for (int step = 0; step < max_steps; ++step) {
        // Live-condition poll once per climb step: a tripped token
        // keeps whatever this restart found so far.
        if (ctx.cancel != nullptr && ctx.cancel->stop())
            break;
        double best_time = 0.0;
        double best_area = 0.0;
        core::Rmap best_neighbour;
        bool found = false;

        for (const auto& [r, bound] : space.dims()) {
            for (int delta : {+1, -1}) {
                const int c = current(r) + delta;
                if (c < 0 || c > bound)
                    continue;
                core::Rmap candidate = current;
                candidate.set(r, c);
                if (candidate.area(ctx.lib) > ctx.target.asic.total_area)
                    continue;
                const auto screened = scratch.screen_neighbour(
                    ctx, candidate, cur_time, cur_area);
                if (!screened.has_value()) {
                    ++out.n_pruned;  // proxy: provably no improvement
                    continue;
                }
                const auto [time, area] = *screened;
                ++out.n_evaluated;
                if (ctx.cancel != nullptr)
                    ctx.cancel->charge_evals(1);
                consider(time, area, candidate);
                if (!found ||
                    better_tuple(time, area, best_time, best_area)) {
                    best_time = time;
                    best_area = area;
                    best_neighbour = candidate;
                    found = true;
                }
            }
        }

        if (!found ||
            !better_tuple(best_time, best_area, cur_time, cur_area))
            break;  // local optimum
        current = best_neighbour;
        cur_time = best_time;
        cur_area = best_area;
    }
}

}  // namespace

Solve_result solve_hill_climb(Session& session, const Solve_options& options)
{
    const auto extras =
        extras_or_default<Hill_climb_extras>(options, "hill_climb");
    if (!options.window.whole())
        throw std::invalid_argument(
            "hill_climb: Solve_options::window is not supported — the "
            "climb has no contiguous unit range to lease");
    util::Wall_timer timer;
    const Eval_context& ctx = session.context();
    const Alloc_space space(ctx.lib, session.problem().restrictions);

    Solve_result result;
    result.strategy = "hill_climb";
    result.space_size = space.size();
    const int n_restarts = extras.n_restarts;
    if (n_restarts <= 0) {
        result.seconds = timer.seconds();
        return result;
    }

    // Pin the DP table width to the total ASIC area so each worker's
    // Pace_workspace checkpoint stays valid across the neighbourhood's
    // different leftover controller budgets — only with an explicit
    // search quantum, for the same reason exhaustive_bb does: the
    // automatic quantum derives from the budget, and widening the
    // table would change it.
    Eval_context run_ctx = ctx;
    if (ctx.area_quantum > 0.0)
        run_ctx.dp_table_budget = ctx.target.asic.total_area;
    run_ctx.cancel = options.cancel;

    // Draw every start point up front, in restart order: the random
    // sequence — and therefore the whole search — is independent of
    // how restarts are later spread over threads.  Restart 0 is the
    // empty allocation (a safe baseline), the rest random points.
    util::Rng rng(extras.seed);
    std::vector<core::Rmap> starts;
    starts.reserve(static_cast<std::size_t>(n_restarts));
    starts.emplace_back();
    for (int r = 1; r < n_restarts; ++r)
        starts.push_back(space.nth(rng.uniform_index(space.size())));

    const std::size_t n_threads = util::clamp_chunks(
        options.n_threads, util::Thread_pool::default_concurrency(),
        n_restarts);
    result.n_threads = static_cast<int>(n_threads);

    Eval_cache* session_cache =
        options.use_cache ? &session.cache(options.cache_capacity) : nullptr;
    const auto& invariants = session.invariants();

    // One workspace slot per chunk, grown and marked cross-request
    // before any worker runs (see exhaustive_bb for the same dance).
    search::Dp_workspace_pool& dp_pool = session.workspaces();
    dp_pool.prepare(n_threads);

    std::vector<Restart_result> restarts(
        static_cast<std::size_t>(n_restarts));
    std::vector<Eval_cache_stats> chunk_stats(n_threads);
    std::vector<long long> chunk_refused(n_threads, 0);
    std::vector<std::uint8_t> chunk_stopped(n_threads, 0);
    std::vector<std::array<long long, 3>> chunk_dp(n_threads,
                                                   {0, 0, 0});
    const auto run_chunk = [&](std::size_t c, long long begin, long long end) {
        Eval_cache* cache = nullptr;
        std::optional<Eval_cache> own_cache;
        Eval_cache_stats shared_before;
        if (c == 0 && session_cache != nullptr) {
            cache = session_cache;
            shared_before = cache->stats();
        }
        else {
            own_cache.emplace(ctx, options.cache_capacity, invariants);
            cache = &*own_cache;
        }
        Climb_scratch scratch(run_ctx, *cache, options.use_pruning,
                              dp_pool.slot(c).pace);
        // The session workspace carries counters from earlier solves —
        // report this chunk's deltas only.
        const long long reused0 = scratch.ws->rows_reused();
        const long long swept0 = scratch.ws->rows_swept();
        const long long foreign0 = scratch.ws->rows_reused_foreign();
        for (long long r = begin; r < end; ++r) {
            // Admission gate per restart — the thread-invariant work
            // unit, so the injected cut climbs exactly [0, cut).
            if (options.cancel != nullptr &&
                !options.cancel->admit(static_cast<std::uint64_t>(r))) {
                if (options.cancel->tripped()) {
                    chunk_refused[c] += end - r;
                    chunk_stopped[c] = 1;
                    break;
                }
                ++chunk_refused[c];
                continue;
            }
            climb(run_ctx, space, extras.max_steps,
                  starts[static_cast<std::size_t>(r)], scratch,
                  restarts[static_cast<std::size_t>(r)]);
        }
        chunk_stats[c] = cache == session_cache
                             ? cache->stats().minus(shared_before)
                             : cache->stats();
        chunk_dp[c] = {scratch.ws->rows_reused() - reused0,
                       scratch.ws->rows_swept() - swept0,
                       scratch.ws->rows_reused_foreign() - foreign0};
    };

    std::size_t chunks_skipped = 0;
    if (n_threads == 1)
        run_chunk(0, 0, n_restarts);
    else
        chunks_skipped =
            util::parallel_chunks(session.pool(n_threads), n_restarts,
                                  n_threads, run_chunk, options.cancel);

    // Reduce in restart order with the strict screened comparison the
    // per-restart loops used, so ties keep the earliest restart.
    Screened winner;
    for (const auto& r : restarts) {
        result.n_evaluated += r.n_evaluated;
        result.n_pruned += r.n_pruned;
        if (r.best.valid &&
            (!winner.valid || better_tuple(r.best.time, r.best.area,
                                              winner.time, winner.area)))
            winner = r.best;
    }
    for (const auto& s : chunk_stats)
        result.cache_stats += s;
    for (std::size_t c = 0; c < n_threads; ++c) {
        result.rows_abandoned += chunk_refused[c];
        result.chunks_abandoned += chunk_stopped[c];
        result.dp_rows_reused += chunk_dp[c][0];
        result.dp_rows_swept += chunk_dp[c][1];
        result.dp_rows_reused_cross_request += chunk_dp[c][2];
    }
    result.chunks_abandoned += static_cast<long long>(chunks_skipped);
    if (options.cancel != nullptr) {
        result.status = options.cancel->status();
        if (result.status == util::Solve_status::complete &&
            (result.rows_abandoned > 0 || result.chunks_abandoned > 0))
            result.status = util::Solve_status::cancelled;
    }

    // Only the overall winner pays for the full partition
    // reconstruction; cached and uncached evaluation agree bit for
    // bit, so this needs no cache.  The reconstruction runs with the
    // token detached — a tripped token must not degrade the delivered
    // incumbent to an all-software partition.
    if (winner.valid) {
        Eval_context final_ctx = run_ctx;
        final_ctx.cancel = nullptr;
        result.best = search::evaluate_allocation(final_ctx, winner.point);
        result.have_best = true;
    }

    result.seconds = timer.seconds();
    return result;
}

}  // namespace lycos::solver::detail

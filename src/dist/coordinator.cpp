// The distributed-search coordinator (src/dist/dist.hpp).
//
// Single-threaded poll(2) event loop: accepts workers, ships the job,
// streams range leases (one outstanding per worker — which is what
// makes the chaos reassignment count deterministic), folds lease
// results in range order with the strict better_tuple rule, and
// broadcasts strict incumbent improvements.  The winner's full
// Evaluation / two-ASIC partition is *recomputed locally* from the
// reported datapath(s) — deterministic functions of (context,
// allocation), so the result is bitwise what the engine itself would
// have produced — instead of serializing the whole partition.
#include <algorithm>
#include <cerrno>
#include <chrono>
#include <deque>
#include <limits>
#include <map>
#include <optional>
#include <poll.h>
#include <stdexcept>
#include <vector>

#include "dist/dist.hpp"
#include "dist/wire.hpp"
#include "search/alloc_space.hpp"
#include "search/evaluate.hpp"
#include "solver/internal.hpp"
#include "util/chunk_range.hpp"
#include "util/net.hpp"
#include "util/timer.hpp"

namespace lycos::dist {

namespace {

using Clock = std::chrono::steady_clock;

struct Worker_conn {
    util::Fd fd;
    std::vector<std::uint8_t> inbuf;
    bool alive = true;
    bool ready = false;  ///< hello received, job sent
    bool has_lease = false;
    std::uint64_t lease_id = 0;
    util::Chunk_range lease;
    Clock::time_point lease_deadline{};
    solver::Dist_worker_stats stats;
};

/// One completed range, however it was solved (a worker lease or the
/// coordinator's local fallback).
struct Range_result {
    Lease_result_msg msg;
};

solver::Multi_asic_extras multi_extras_of(
    const solver::Solve_options& solve)
{
    if (const auto* e =
            std::get_if<solver::Multi_asic_extras>(&solve.extras))
        return *e;
    return {};
}

/// The leased logical-unit count of `strategy` over `session`'s
/// problem: leaf indices for exhaustive_bb, a0 rows for multi_asic_bb
/// — exactly the ranges Solve_options::window accepts.  For multi the
/// axis filter is re-enumerated here with the same arithmetic as the
/// engine (axis sizes are also reported back through `axis_points`).
long long count_units(solver::Session& session,
                      const std::string& strategy,
                      const solver::Solve_options& solve,
                      std::array<long long, 2>& axis_points,
                      long long& pairs_out)
{
    if (strategy == "exhaustive_bb") {
        return session.space_size();
    }
    if (strategy == "multi_asic_bb") {
        const auto& ctx = session.context();
        const auto budgets =
            solver::detail::multi_asic_budgets(session.problem());
        const search::Alloc_space space(ctx.lib,
                                        session.problem().restrictions);
        if (space.size() > (1LL << 22))
            throw std::invalid_argument(
                "solve_distributed: single-ASIC space too large to "
                "enumerate per axis");
        long long f0 = 0;
        long long f1 = 0;
        const double max_budget = std::max(budgets[0], budgets[1]);
        space.for_each(max_budget, [&](const core::Rmap& a) {
            const double area = a.area(ctx.lib);
            if (area <= budgets[0])
                ++f0;
            if (area <= budgets[1])
                ++f1;
            return true;
        });
        axis_points = {f0, f1};
        const long long pairs = f0 * f1;
        pairs_out = pairs;
        const auto extras = multi_extras_of(solve);
        const long long walked = extras.pair_limit > 0
                                     ? std::min(pairs, extras.pair_limit)
                                     : pairs;
        return walked == 0 ? 0 : (walked + f1 - 1) / f1;
    }
    throw std::invalid_argument(
        "solve_distributed: strategy \"" + strategy +
        "\" has no contiguous unit range to lease");
}

/// A local Solve_result (fallback path) viewed as a lease result, so
/// the fold has one shape.
Lease_result_msg to_lease_result(const std::string& strategy,
                                 const solver::Solve_result& r)
{
    Lease_result_msg m;
    m.have_best = r.have_best;
    if (r.have_best) {
        if (strategy == "multi_asic_bb") {
            m.best_time = r.multi.partition.time_hybrid_ns;
            m.best_area =
                r.multi.datapath_area[0] + r.multi.datapath_area[1];
            m.datapaths = {r.multi.datapaths[0], r.multi.datapaths[1]};
        }
        else {
            m.best_time = r.best.partition.time_hybrid_ns;
            m.best_area = r.best.datapath_area;
            m.datapaths = {r.best.datapath};
        }
    }
    m.n_evaluated = r.n_evaluated;
    m.n_pruned = r.n_pruned;
    m.n_pruned_remote = r.n_pruned_remote;
    m.dp_rows_reused = r.dp_rows_reused;
    m.dp_rows_swept = r.dp_rows_swept;
    m.rows_visited = r.multi.rows_visited;
    m.rows_pruned = r.multi.rows_pruned;
    m.dp_states_swept = r.multi.dp_states_swept;
    m.dp_cells_dense = r.multi.dp_cells_dense;
    m.dp_states_dropped = r.multi.dp_states_dropped;
    return m;
}

/// Recompute the winner's full single-ASIC Evaluation from its
/// datapath — the same context pinning the exhaustive engine applies
/// (DP table width fixed to the total ASIC area under an explicit
/// search quantum), so the result is bitwise the engine's own.
void fill_winner_single(solver::Session& session,
                        const solver::Solve_options& solve,
                        const core::Rmap& dp, solver::Solve_result& out)
{
    search::Eval_context run_ctx = session.context();
    if (run_ctx.area_quantum > 0.0)
        run_ctx.dp_table_budget = run_ctx.target.asic.total_area;
    search::Eval_cache* cache =
        solve.use_cache ? &session.cache(solve.cache_capacity) : nullptr;
    out.best = search::evaluate_allocation(run_ctx, dp, cache);
    out.have_best = true;
}

/// Same for the two-ASIC winner: rebuild the pair's combined costs
/// through the cache and rerun the sparse partition DP with the exact
/// options the engine used for that pair.
void fill_winner_multi(solver::Session& session,
                       const solver::Solve_options& solve,
                       const core::Rmap& dp0, const core::Rmap& dp1,
                       solver::Solve_result& out)
{
    const auto& ctx = session.context();
    const auto budgets =
        solver::detail::multi_asic_budgets(session.problem());
    std::optional<search::Eval_cache> local;
    search::Eval_cache& cache =
        solve.use_cache
            ? session.cache(solve.cache_capacity)
            : local.emplace(ctx, solve.cache_capacity,
                            session.invariants());
    std::vector<pace::Bsb_cost> c0;
    std::vector<pace::Bsb_cost> c1;
    cache.costs_for(dp0, c0);
    cache.costs_for(dp1, c1);
    std::vector<pace::Multi_bsb_cost> mcosts(c0.size());
    for (std::size_t k = 0; k < c0.size(); ++k) {
        mcosts[k].t_sw = c0[k].t_sw;
        mcosts[k].hw[0] = c0[k];
        mcosts[k].hw[1] = c1[k];
    }
    const double a0 = dp0.area(ctx.lib);
    const double a1 = dp1.area(ctx.lib);
    pace::Multi_pace_options mo;
    mo.ctrl_area_budgets = {budgets[0] - a0, budgets[1] - a1};
    mo.area_quantum = ctx.area_quantum;
    pace::Multi_pace_workspace mws;
    out.multi.partition = pace::multi_pace_partition(mcosts, mo, &mws);
    out.multi.datapaths = {dp0, dp1};
    out.multi.datapath_area = {a0, a1};
    out.have_best = true;
}

}  // namespace

solver::Solve_result solve_distributed(const solver::Problem& problem,
                                       const Coordinator_options& options)
{
    util::Wall_timer timer;
    if (options.strategy != "exhaustive_bb" &&
        options.strategy != "multi_asic_bb")
        throw std::invalid_argument(
            "solve_distributed: strategy \"" + options.strategy +
            "\" has no contiguous unit range to lease");

    solver::Session session(problem);  // validates; throws on defects
    const bool multi = options.strategy == "multi_asic_bb";
    std::array<long long, 2> axis_points{0, 0};
    long long pairs = 0;
    const long long n_units = count_units(session, options.strategy,
                                          options.solve, axis_points,
                                          pairs);

    solver::Solve_result out;
    out.strategy = options.strategy;
    out.dist.active = true;
    out.dist.n_units = n_units;
    if (multi) {
        out.multi.active = true;
        out.multi.asic_areas =
            solver::detail::multi_asic_budgets(session.problem());
        out.multi.axis_points = axis_points;
        out.space_size = pairs;
        const auto extras = multi_extras_of(options.solve);
        const long long walked =
            extras.pair_limit > 0 ? std::min(pairs, extras.pair_limit)
                                  : pairs;
        out.multi.pairs_skipped = pairs - walked;
    }
    else {
        out.space_size = session.space_size();
    }
    if (n_units == 0) {
        out.seconds = timer.seconds();
        return out;
    }

    // The lease schedule: deterministic contiguous ranges, in order.
    const int workers_hint = std::max(1, options.n_workers);
    long long lease_units = options.lease_units;
    if (lease_units <= 0)
        lease_units = std::max<long long>(
            1, n_units / (8 * static_cast<long long>(workers_hint)));
    std::vector<util::Chunk_range> ranges;
    for (long long b = 0; b < n_units; b += lease_units)
        ranges.push_back({b, std::min(n_units, b + lease_units)});
    std::deque<util::Chunk_range> pending(ranges.begin(), ranges.end());
    std::map<long long, Range_result> results;  // keyed by range begin

    // The job every worker receives.
    Job_msg job;
    job.problem = Problem_blob::from_problem(problem);
    job.strategy = options.strategy;
    job.options.n_threads = options.solve.n_threads;
    job.options.use_cache = options.solve.use_cache;
    job.options.use_pruning = options.solve.use_pruning;
    job.options.cache_capacity = options.solve.cache_capacity;
    {
        const auto extras = multi_extras_of(options.solve);
        job.options.pair_limit = extras.pair_limit;
        job.options.use_row_bound = extras.use_row_bound;
    }
    job.n_units = n_units;
    const std::vector<std::uint8_t> job_frame_plain =
        frame(Msg::job, encode_job(job));
    job.chaos_die = true;
    const std::vector<std::uint8_t> job_frame_chaos =
        frame(Msg::job, encode_job(job));
    const bool chaos = options.chaos_seed != 0;
    const int chaos_victim = static_cast<int>(
        options.chaos_seed % static_cast<std::uint64_t>(workers_hint));

    auto listener = util::listen_tcp(options.port);
    if (options.on_listen)
        options.on_listen(listener.port);

    std::deque<Worker_conn> workers;
    std::uint64_t next_lease_id = 1;
    int hellos = 0;
    double bcast_time = std::numeric_limits<double>::infinity();
    const auto accept_deadline =
        Clock::now() + std::chrono::milliseconds(static_cast<long long>(
                           options.accept_timeout_ms));
    const auto lease_timeout = std::chrono::milliseconds(
        static_cast<long long>(options.lease_timeout_ms));

    const auto lose_worker = [&](Worker_conn& w) {
        if (!w.alive)
            return;
        w.alive = false;
        w.fd.reset();
        ++out.dist.workers_lost;
        if (w.has_lease) {
            // Back to the *front*: the lowest unfinished range gates
            // the in-order fold, so it should complete first.
            pending.push_front(w.lease);
            w.has_lease = false;
            ++out.dist.leases_reassigned;
        }
    };

    const auto grant_lease = [&](Worker_conn& w) {
        if (!w.alive || !w.ready || w.has_lease || pending.empty())
            return;
        // Hold leasing until the expected fleet said hello (or the
        // accept window lapsed): with n_workers > 1 a fast first
        // worker must not drain the whole schedule before the others
        // connect — the property the multi-process CI leg pins.
        if (hellos < options.n_workers && Clock::now() < accept_deadline)
            return;
        Lease_msg lease;
        lease.lease_id = next_lease_id++;
        lease.begin = pending.front().begin;
        lease.end = pending.front().end;
        pending.pop_front();
        w.lease = {lease.begin, lease.end};
        w.lease_id = lease.lease_id;
        w.has_lease = true;
        w.lease_deadline = Clock::now() + lease_timeout;
        ++out.dist.leases_granted;
        const auto f = frame(Msg::lease, encode_lease(lease));
        if (!util::send_all(w.fd, f.data(), f.size()))
            lose_worker(w);
    };

    const auto broadcast_incumbent = [&](double time_ns,
                                         const Worker_conn* except) {
        if (!(time_ns < bcast_time))
            return;
        bcast_time = time_ns;
        const auto f = frame(Msg::incumbent, encode_incumbent(time_ns));
        for (auto& w : workers) {
            if (!w.alive || !w.ready || &w == except)
                continue;
            if (!util::send_all(w.fd, f.data(), f.size()))
                lose_worker(w);
            else
                ++out.dist.incumbent_broadcasts;
        }
    };

    const auto accept_result = [&](Worker_conn& w,
                                   const Lease_result_msg& m) -> bool {
        if (!w.has_lease || m.lease_id != w.lease_id)
            return false;  // stale or never-granted: protocol error
        const long long begin = w.lease.begin;
        w.has_lease = false;
        ++w.stats.ranges_served;
        w.stats.incumbents_applied = m.incumbents_applied;
        w.stats.remote_bound_kills += m.n_pruned_remote;
        // First result for a range wins; a re-run after a timeout of a
        // worker that was merely slow is dropped (both are the same
        // deterministic answer anyway).
        if (results.emplace(begin, Range_result{m}).second &&
            m.have_best)
            broadcast_incumbent(m.best_time, &w);
        grant_lease(w);
        return true;
    };

    // --- event loop ---------------------------------------------------
    while (results.size() < ranges.size()) {
        const bool any_live = std::any_of(
            workers.begin(), workers.end(),
            [](const Worker_conn& w) { return w.alive; });
        const auto now = Clock::now();
        if (!any_live && now >= accept_deadline) {
            // Nobody (left) to lease to: the coordinator is its own
            // worker of last resort, solving the remaining ranges as
            // ordinary windowed solves on its session.
            while (!pending.empty()) {
                const util::Chunk_range range = pending.front();
                pending.pop_front();
                solver::Solve_options o = options.solve;
                o.window = range;
                const auto r = session.solve(options.strategy, o);
                results.emplace(range.begin,
                                Range_result{to_lease_result(
                                    options.strategy, r)});
                ++out.dist.leases_solved_locally;
            }
            break;
        }

        std::vector<pollfd> pfds;
        pfds.push_back({listener.fd.get(), POLLIN, 0});
        std::vector<Worker_conn*> polled;
        for (auto& w : workers)
            if (w.alive) {
                pfds.push_back({w.fd.get(), POLLIN, 0});
                polled.push_back(&w);
            }
        const int r = ::poll(pfds.data(), pfds.size(), 100);
        if (r < 0 && errno != EINTR)
            throw std::runtime_error("solve_distributed: poll failed");

        // New workers (any time, not just during the accept window).
        if (r > 0 && (pfds[0].revents & POLLIN) != 0) {
            util::Fd conn = util::accept_conn(listener.fd, 0);
            if (conn.valid()) {
                Worker_conn w;
                w.fd = std::move(conn);
                workers.push_back(std::move(w));
            }
        }

        for (std::size_t i = 0; i < polled.size(); ++i) {
            Worker_conn& w = *polled[i];
            if (!w.alive ||
                (pfds[i + 1].revents & (POLLIN | POLLHUP | POLLERR)) == 0)
                continue;
            std::uint8_t buf[16384];
            const long n = util::recv_some(w.fd, buf, sizeof buf);
            if (n <= 0) {
                lose_worker(w);
                continue;
            }
            w.inbuf.insert(w.inbuf.end(), buf, buf + n);
            for (;;) {
                Unframed msg;
                const auto st =
                    try_unframe(w.inbuf.data(), w.inbuf.size(), msg);
                if (st == Unframe_status::need_more)
                    break;
                if (st == Unframe_status::corrupt) {
                    lose_worker(w);
                    break;
                }
                w.inbuf.erase(w.inbuf.begin(),
                              w.inbuf.begin() +
                                  static_cast<long>(msg.consumed));
                if (msg.type == Msg::hello && !w.ready) {
                    std::uint32_t version = 0;
                    if (!decode_hello(msg.payload, version) ||
                        version != k_protocol_version) {
                        lose_worker(w);
                        break;
                    }
                    const int index = hellos++;
                    const bool die = chaos && index == chaos_victim;
                    const auto& jf =
                        die ? job_frame_chaos : job_frame_plain;
                    if (!util::send_all(w.fd, jf.data(), jf.size())) {
                        lose_worker(w);
                        break;
                    }
                    w.ready = true;
                    ++out.dist.n_workers;
                    out.dist.workers.emplace_back();
                    grant_lease(w);
                }
                else if (msg.type == Msg::lease_result && w.ready) {
                    Lease_result_msg lr;
                    if (!decode_lease_result(msg.payload, lr) ||
                        !accept_result(w, lr)) {
                        lose_worker(w);
                        break;
                    }
                }
                else {
                    lose_worker(w);  // protocol violation
                    break;
                }
            }
        }

        // Lease deadlines: a worker sitting on a range past the
        // timeout is treated as dead (its socket is closed, so a late
        // result cannot arrive and double-count).
        const auto sweep_now = Clock::now();
        for (auto& w : workers)
            if (w.alive && w.has_lease && sweep_now >= w.lease_deadline)
                lose_worker(w);

        // Idle-but-ready workers pick up reassigned ranges.
        for (auto& w : workers)
            grant_lease(w);
    }

    // Drain: tell everyone still connected we are done.
    {
        const auto f = frame(Msg::done, {});
        for (auto& w : workers)
            if (w.alive)
                util::send_all(w.fd, f.data(), f.size());
    }

    // --- the in-order fold -------------------------------------------
    // Range order == enumeration order; the strict better_tuple keeps
    // the earliest range on ties, exactly like the engines' in-order
    // chunk reduce — so the tuple below is the single-process one.
    bool have_best = false;
    double best_time = 0.0;
    double best_area = 0.0;
    const Lease_result_msg* winner = nullptr;
    for (const auto& range : ranges) {
        const auto& m = results.at(range.begin).msg;
        out.n_evaluated += m.n_evaluated;
        out.n_pruned += m.n_pruned;
        out.n_pruned_remote += m.n_pruned_remote;
        out.dp_rows_reused += m.dp_rows_reused;
        out.dp_rows_swept += m.dp_rows_swept;
        out.multi.rows_visited += m.rows_visited;
        out.multi.rows_pruned += m.rows_pruned;
        out.multi.dp_states_swept += m.dp_states_swept;
        out.multi.dp_cells_dense += m.dp_cells_dense;
        out.multi.dp_states_dropped += m.dp_states_dropped;
        if (m.have_best &&
            (!have_best || search::better_tuple(m.best_time, m.best_area,
                                                best_time, best_area))) {
            best_time = m.best_time;
            best_area = m.best_area;
            winner = &m;
            have_best = true;
        }
    }
    if (winner != nullptr) {
        if (multi)
            fill_winner_multi(session, options.solve,
                              winner->datapaths.at(0),
                              winner->datapaths.at(1), out);
        else
            fill_winner_single(session, options.solve,
                               winner->datapaths.at(0), out);
    }

    // Per-worker stats, in hello order.
    {
        std::size_t slot = 0;
        for (const auto& w : workers)
            if (w.ready && slot < out.dist.workers.size())
                out.dist.workers[slot++] = w.stats;
    }

    out.n_threads = 1;
    out.seconds = timer.seconds();
    return out;
}

}  // namespace lycos::dist

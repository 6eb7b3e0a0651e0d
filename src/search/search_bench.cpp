#include "search/search_bench.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <future>
#include <limits>
#include <ostream>
#include <sstream>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "apps/random_app.hpp"
#include "bsb/bsb.hpp"
#include "core/analysis.hpp"
#include "core/multi_allocator.hpp"
#include "core/restrictions.hpp"
#include "dist/dist.hpp"
#include "hw/target.hpp"
#include "pace/multi_asic.hpp"
#include "search/alloc_space.hpp"
#include "search/eval_cache.hpp"
#include "serve/serve.hpp"
#include "serve/trace.hpp"
#include "solver/solver.hpp"
#include "util/arena.hpp"
#include "util/cancel.hpp"
#include "util/format.hpp"
#include "util/simd.hpp"
#include "util/timer.hpp"

namespace lycos::search {

namespace {

double rate(long long n, double seconds)
{
    return seconds > 0.0 ? static_cast<double>(n) / seconds : 0.0;
}

bool same_best(const solver::Solve_result& a, const solver::Solve_result& b)
{
    return a.best.datapath == b.best.datapath &&
           a.best.partition.time_hybrid_ns ==
               b.best.partition.time_hybrid_ns &&
           a.best.datapath_area == b.best.datapath_area;
}

/// One exhaustive_bb solve on a fresh Session, so no run starts from
/// another's warm cache or DP checkpoints.
solver::Solve_result cold_exhaustive(const solver::Problem& problem,
                                     const solver::Solve_options& options)
{
    solver::Session session(problem);
    return session.solve("exhaustive_bb", options);
}

}  // namespace

Search_bench_result run_search_bench(const Search_bench_config& config)
{
    const auto lib = hw::make_default_library();
    const auto target = hw::make_default_target(config.asic_area);

    // Heterogeneous BSBs: like real basic blocks, each uses a small
    // random subset of the operation kinds (an address-arithmetic
    // block adds and shifts, a compare block compares...).  This is
    // the composition the Eval_cache projection keying exploits: a
    // BSB's schedule is independent of the counts of types it cannot
    // use, so points differing only there share its entry.
    util::Rng rng(config.seed);
    const std::vector<hw::Op_kind> kind_pool = {
        hw::Op_kind::add,    hw::Op_kind::sub,        hw::Op_kind::mul,
        hw::Op_kind::div,    hw::Op_kind::cmp_lt,     hw::Op_kind::const_load,
    };
    std::vector<bsb::Bsb> bsbs;
    bsbs.reserve(static_cast<std::size_t>(config.n_bsbs));
    for (int i = 0; i < config.n_bsbs; ++i) {
        apps::Random_app_params params;
        params.n_bsbs = 1;
        params.min_ops = config.ops_per_bsb;
        params.max_ops = config.ops_per_bsb;
        params.kinds.clear();
        auto pool = kind_pool;
        const int n_kinds = rng.uniform_int(2, 4);
        for (int k = 0; k < n_kinds; ++k) {
            const auto pick = static_cast<std::size_t>(
                rng.uniform_int(0, static_cast<int>(pool.size()) - 1));
            params.kinds.push_back(pool[pick]);
            pool.erase(pool.begin() + static_cast<std::ptrdiff_t>(pick));
        }
        auto one = apps::random_bsbs(rng, params);
        one[0].name = "R" + std::to_string(i);
        bsbs.push_back(std::move(one[0]));
    }

    // The real flow's restrictions, clamped so the space stays small
    // enough that the naive baseline finishes in seconds.
    const auto infos = core::analyze(bsbs, lib, target.gates);
    const auto raw = core::compute_restrictions(infos, lib);
    // Rebuild rather than clamp in place: Rmap::set(r, 0) erases the
    // entry, which would invalidate an iterator over raw.entries().
    core::Rmap restrictions;
    for (const auto& [r, bound] : raw.entries())
        restrictions.set(r, std::min(bound, config.max_count_per_type));

    solver::Problem problem;
    problem.bsbs = bsbs;
    problem.lib = &lib;
    problem.target = target;
    problem.restrictions = restrictions;
    problem.ctrl_mode = pace::Controller_mode::list_schedule;
    problem.area_quantum = config.asic_area / 256.0;
    // Asymmetric two-ASIC target for multi_asic_bb (ignored by the
    // single-ASIC strategies): a big primary chip plus a small
    // secondary, so the two axes differ and the row bound reads
    // separate per-ASIC optima (an even split walks one shared axis
    // and skips the mirror pairs).
    problem.asic_areas = {config.asic_area * 0.65, config.asic_area * 0.35};
    const Eval_context ctx{bsbs, lib, target, problem.ctrl_mode,
                           problem.area_quantum};

    Search_bench_result out;

    solver::Problem old_problem = problem;
    old_problem.scheduler = sched::Scheduler_kind::naive;
    const auto old_run = cold_exhaustive(
        old_problem,
        {.n_threads = 1, .use_cache = false, .use_pruning = false});

    const auto new_single = cold_exhaustive(
        problem, {.n_threads = 1, .use_cache = true, .use_pruning = false});

    const auto new_pruned = cold_exhaustive(
        problem, {.n_threads = 1, .use_cache = true, .use_pruning = true});

    const auto new_parallel = cold_exhaustive(
        problem, {.n_threads = 0, .use_cache = true, .use_pruning = true});

    // Instrumented pass: where does one full sweep spend its time —
    // fetching memoized per-BSB costs (scheduling) or running the
    // PACE DP?  Uses the same cache + workspace machinery as the
    // search hot loop.
    {
        Eval_cache cache(ctx);
        pace::Pace_workspace ws;
        const Alloc_space space(lib, restrictions);
        std::vector<pace::Bsb_cost> costs;
        space.for_each(target.asic.total_area, [&](const core::Rmap& a) {
            util::Wall_timer t_sched;
            cache.costs_for(a, costs);
            out.sched_seconds += t_sched.seconds();
            util::Wall_timer t_dp;
            const auto ev = evaluate_with_costs(ctx, a, costs, &ws);
            out.dp_seconds += t_dp.seconds();
            (void)ev;
            return true;
        });
    }

    // Two-ASIC DP: split the scenario's silicon across two chips and
    // compare the Pareto-sparse production DP against the dense
    // full-scan reference — identical results, counted cells/states,
    // and traceback bytes land in the multi_asic section of
    // BENCH_search.json.
    {
        const std::array<double, 2> budgets = {config.asic_area / 2.0,
                                               config.asic_area / 2.0};
        const auto two = core::allocate_two_asics(infos, lib,
                                                  {.budgets = budgets});
        const auto mcosts = pace::build_multi_cost_model(
            bsbs, lib, target, two.allocations[0], two.allocations[1],
            pace::Controller_mode::list_schedule);
        const pace::Multi_pace_options mopts{
            .ctrl_area_budgets = {
                std::max(0.0, budgets[0] - two.datapath_area[0]),
                std::max(0.0, budgets[1] - two.datapath_area[1])}};

        // Min-of-N per-call timings (not means): the BENCH speedup
        // gates read these, and the minimum is the noise-robust
        // estimator of a deterministic kernel's cost.
        const auto min_of = [](int reps, auto&& call) {
            double best = std::numeric_limits<double>::infinity();
            for (int i = 0; i < reps; ++i) {
                util::Wall_timer t;
                call();
                best = std::min(best, t.seconds());
            }
            return best;
        };

        pace::Multi_pace_workspace mws;
        auto sparse = pace::multi_pace_partition(mcosts, mopts, &mws);
        out.multi_secs_sparse = min_of(40, [&] {
            sparse = pace::multi_pace_partition(mcosts, mopts, &mws);
        });

        pace::Multi_pace_result dense;
        out.multi_secs_dense = min_of(5, [&] {
            dense = pace::multi_pace_partition_reference(mcosts, mopts);
        });

        const auto speedup_of = [&](double secs) {
            return secs > 0.0 ? out.multi_secs_dense / secs : 0.0;
        };
        out.multi_n_bsbs = static_cast<long long>(mcosts.size());
        out.multi_speedup = speedup_of(out.multi_secs_sparse);
        out.multi_evals_per_sec =
            out.multi_secs_sparse > 0.0 ? 1.0 / out.multi_secs_sparse : 0.0;
        out.multi_sparse_occupancy = sparse.state_occupancy();
        out.multi_sparse_states = sparse.dp_states_stored;
        out.multi_area_quantum = sparse.area_quantum_used;
        out.multi_traceback_bytes = sparse.traceback_bytes;
        out.multi_traceback_bytes_dense = dense.traceback_bytes;
        out.multi_sparse_matches_dense =
            sparse.placement == dense.placement &&
            sparse.time_hybrid_ns == dense.time_hybrid_ns;
    }

    // Solver section: the unified Session API over the same scenario.
    // One session serves all three strategies (shared invariants,
    // shared worker-0 cache, one thread pool).
    {
        solver::Session session(problem);

        const auto exh = session.solve("exhaustive_bb", {});
        out.solver_exh_seconds = exh.seconds;
        out.solver_exh_evals_per_sec =
            rate(new_single.n_evaluated, exh.seconds);

        solver::Solve_options hill_opts;
        hill_opts.extras = solver::Hill_climb_extras{};
        const auto hill = session.solve("hill_climb", hill_opts);
        out.solver_hill_seconds = hill.seconds;
        out.solver_hill_evaluated = hill.n_evaluated;
        out.solver_hill_evals_per_sec = rate(hill.n_evaluated, hill.seconds);

        // multi_asic_bb: the pair-tree branch-and-bound — even
        // silicon split, parallel run, plus the determinism
        // cross-check (single-threaded walk lands on the same pair).
        // rows_pruned and the sparse-DP cell counts feed the
        // pair_tree_bb gates.
        const auto multi = session.solve("multi_asic_bb", {});
        out.solver_multi_pairs = multi.space_size;
        out.solver_multi_axis0 = multi.multi.axis_points[0];
        out.solver_multi_axis1 = multi.multi.axis_points[1];
        out.solver_multi_evaluated = multi.n_evaluated;
        out.solver_multi_pruned = multi.n_pruned;
        out.solver_multi_rows_visited = multi.multi.rows_visited;
        out.solver_multi_rows_pruned = multi.multi.rows_pruned;
        out.solver_multi_pairs_skipped = multi.multi.pairs_skipped;
        out.solver_multi_dp_states = multi.multi.dp_states_swept;
        out.solver_multi_dp_dense = multi.multi.dp_cells_dense;
        out.solver_multi_seconds = multi.seconds;
        out.solver_multi_pairs_per_sec =
            rate(multi.space_size, multi.seconds);
        out.solver_multi_best_time_ns =
            multi.multi.partition.time_hybrid_ns;
        const auto multi_seq =
            session.solve("multi_asic_bb", {.n_threads = 1});
        out.solver_multi_deterministic =
            multi_seq.multi.datapaths == multi.multi.datapaths &&
            multi_seq.multi.partition.time_hybrid_ns ==
                multi.multi.partition.time_hybrid_ns &&
            multi_seq.multi.partition.placement ==
                multi.multi.partition.placement;

        // Deadline/anytime section.  Poll overhead: the new_single
        // sweep (single thread, cached, no pruning — so the armed
        // token changes no work, only adds the polls) with a token
        // whose deadline is an hour away, against the same sweep with
        // no token at all.  One sweep takes a few ms, so the two sides
        // alternate sweep by sweep (each pair led by the other side in
        // turn, so a slow stretch of the host lands on both) until
        // each side has run for at least 100 ms, and the gate compares
        // the per-sweep medians.  It keeps a small absolute floor for
        // timer noise.  Every sweep runs on a fresh Session, so both
        // sides schedule every projection cold and no sweep resumes
        // from an earlier one's DP checkpoints.
        const util::Cancel_token far_deadline(3.6e6, 0, 0, {});
        const auto sweep_seconds = [&](const util::Cancel_token* token) {
            return cold_exhaustive(problem, {.n_threads = 1,
                                             .use_cache = true,
                                             .use_pruning = false,
                                             .cancel = token})
                .seconds;
        };
        constexpr double k_poll_side_secs = 0.1;
        std::vector<double> no_token;
        std::vector<double> token;
        double no_token_total = 0.0;
        double token_total = 0.0;
        while (no_token_total < k_poll_side_secs ||
               token_total < k_poll_side_secs) {
            const bool token_first = no_token.size() % 2 == 1;
            if (token_first)
                token.push_back(sweep_seconds(&far_deadline));
            no_token.push_back(sweep_seconds(nullptr));
            if (!token_first)
                token.push_back(sweep_seconds(&far_deadline));
            no_token_total += no_token.back();
            token_total += token.back();
        }
        const auto median = [](std::vector<double>& v) {
            const auto mid = v.begin() + static_cast<long>(v.size() / 2);
            std::nth_element(v.begin(), mid, v.end());
            return *mid;
        };
        out.deadline_poll_sweeps = static_cast<int>(no_token.size());
        out.deadline_secs_no_token = median(no_token);
        out.deadline_secs_token = median(token);
        out.deadline_poll_overhead =
            out.deadline_secs_no_token > 0.0
                ? out.deadline_secs_token / out.deadline_secs_no_token - 1.0
                : 0.0;
        out.deadline_overhead_ok =
            out.deadline_secs_token <=
            out.deadline_secs_no_token * 1.01 + 0.002;

        // Incumbent quality vs deadline: what the anytime contract
        // delivers after 1/10/100 ms on this scenario.
        out.deadline_untruncated_time_ns = exh.best.partition.time_hybrid_ns;
        for (std::size_t i = 0; i < out.deadline_ms_points.size(); ++i) {
            solver::Solve_options dopts;
            dopts.deadline_ms = out.deadline_ms_points[i];
            const auto r = session.solve("exhaustive_bb", dopts);
            out.deadline_best_time_ns[i] = r.best.partition.time_hybrid_ns;
            out.deadline_complete[i] =
                r.status == util::Solve_status::complete;
        }

        // Distributed section: the same exhaustive solve fanned out
        // over loopback TCP workers (in-process threads, single-
        // threaded solves so worker counts scale cores).  The gate is
        // bit-identity against the session solve above at every
        // worker count; wall times and broadcast counts are recorded
        // for the report.
        bool dist_match = true;
        for (std::size_t i = 0; i < out.dist_worker_counts.size(); ++i) {
            const int n_workers = out.dist_worker_counts[i];
            std::vector<std::thread> workers;
            dist::Coordinator_options dco;
            dco.strategy = "exhaustive_bb";
            dco.solve.n_threads = 1;
            dco.n_workers = n_workers;
            dco.on_listen = [&](std::uint16_t port) {
                for (int w = 0; w < n_workers; ++w)
                    workers.emplace_back([port] {
                        dist::run_worker("127.0.0.1", port);
                    });
            };
            const auto r = dist::solve_distributed(problem, dco);
            for (auto& t : workers)
                t.join();
            out.dist_seconds[i] = r.seconds;
            out.dist_leases[i] = r.dist.leases_granted;
            out.dist_broadcasts[i] = r.dist.incumbent_broadcasts;
            out.dist_units = r.dist.n_units;
            dist_match =
                dist_match && r.have_best &&
                r.best.datapath == exh.best.datapath &&
                r.best.partition.time_hybrid_ns ==
                    exh.best.partition.time_hybrid_ns &&
                r.best.datapath_area == exh.best.datapath_area &&
                r.n_evaluated + r.n_pruned == r.space_size;
        }
        out.dist_matches_local = dist_match;
    }

    // Serve section: the same scenario through serve::Server.  A
    // calibration one-shot (inline mode, no queue) prices a single
    // hill_climb request; the burst then pushes 16 normal requests
    // (mixed priorities, single-threaded solves so the two workers
    // don't fight over cores) plus 4 with already-expired deadlines —
    // those walk the degradation ladder down to the greedy incumbent
    // and land as `degraded`, so the ladder is exercised on every
    // bench run.  The p99 gate budget is queue depth per worker times
    // the calibrated cost, times a generous factor.
    {
        const auto make_request = [&](double deadline_ms,
                                      serve::Priority priority) {
            serve::Request request;
            request.problem.bsbs = bsbs;
            request.problem.lib = &lib;
            request.problem.target = target;
            request.problem.restrictions = restrictions;
            request.problem.ctrl_mode = pace::Controller_mode::list_schedule;
            request.problem.area_quantum = config.asic_area / 256.0;
            request.strategy = "hill_climb";
            request.priority = priority;
            request.deadline_ms = deadline_ms;
            request.options.n_threads = 1;
            return request;
        };

        serve::Server calib({.n_workers = 0});
        const auto warmup =
            calib.solve(make_request(0.0, serve::Priority::bulk));
        const auto calibrated =
            calib.solve(make_request(0.0, serve::Priority::bulk));
        (void)warmup;
        out.serve_calib_ms = calibrated.solve_ms;

        constexpr int k_normal = 16;
        constexpr int k_expired = 4;
        constexpr int k_workers = 2;
        serve::Server server({.n_workers = k_workers,
                              .queue_capacity = 64,
                              .warm_start = false});
        std::vector<std::future<serve::Response>> futures;
        for (int i = 0; i < k_normal; ++i)
            futures.push_back(server.submit(
                make_request(0.0, i % 2 == 0 ? serve::Priority::bulk
                                             : serve::Priority::interactive)));
        for (int i = 0; i < k_expired; ++i)
            futures.push_back(server.submit(
                make_request(1e-3, serve::Priority::bulk)));

        std::vector<double> latencies_ms;
        for (auto& f : futures) {
            const auto r = f.get();
            ++out.serve_requests;
            switch (r.status) {
            case serve::Request_status::complete:
                ++out.serve_completed;
                break;
            case serve::Request_status::degraded:
                ++out.serve_degraded;
                break;
            case serve::Request_status::shed:
                ++out.serve_shed;
                break;
            case serve::Request_status::failed:
                ++out.serve_failed;
                break;
            }
            if (r.status == serve::Request_status::complete ||
                r.status == serve::Request_status::degraded)
                latencies_ms.push_back(r.queue_ms + r.solve_ms);
        }
        out.serve_workers = k_workers;
        out.serve_p50_ms = serve::percentile(latencies_ms, 0.50);
        out.serve_p99_ms = serve::percentile(latencies_ms, 0.99);
        const double depth_per_worker =
            static_cast<double>(k_normal + k_expired) / k_workers;
        out.serve_p99_budget_ms =
            std::max(k_serve_p99_floor_ms, k_serve_p99_budget_factor *
                                               out.serve_calib_ms *
                                               depth_per_worker);
        out.serve_p99_ok = out.serve_failed == 0 && out.serve_shed == 0 &&
                           out.serve_p99_ms <= out.serve_p99_budget_ms;
    }

    // Serve batching section: an interleaved two-family burst (same
    // BSBs, two search quanta — two distinct canonical problem keys)
    // against a one-worker Server whose session pool holds a single
    // idle session.  Unbatched, the alternating families evict each
    // other on every checkin, so every request builds a fresh session
    // — exactly the fresh-session reference of the batching
    // bit-identity contract.  Batched, the paused queue drains into
    // one batch per family on one pinned session, so members after
    // the first hit the shared Eval_cache and resume the checkpointed
    // DP rows (dp_rows_reused_cross_request).  Min-of-N walls per
    // mode; the speedup, the observed cross-request rows, the
    // per-request identity and the batched p99 are the CI gates.
    {
        constexpr int k_pairs = 6;    // requests per family
        constexpr int k_runs = 2;     // min-of-N
        const std::array<double, 2> quanta{config.asic_area / 256.0,
                                           config.asic_area / 320.0};
        const auto make_request = [&](double quantum) {
            serve::Request request;
            request.problem.bsbs = bsbs;
            request.problem.lib = &lib;
            request.problem.target = target;
            request.problem.restrictions = restrictions;
            request.problem.ctrl_mode = pace::Controller_mode::list_schedule;
            request.problem.area_quantum = quantum;
            request.strategy = "hill_climb";
            request.priority = serve::Priority::bulk;
            request.options.n_threads = 1;
            return request;
        };

        struct Run_outcome {
            double seconds = 0.0;
            std::vector<serve::Response> responses;  // submission order
            serve::Server_stats stats;
        };
        const auto run_burst = [&](bool batching) {
            Run_outcome run;
            serve::Server server({.n_workers = 1,
                                  .queue_capacity = 64,
                                  .session_pool_capacity = 1,
                                  .warm_start = false,
                                  .batching = batching,
                                  .start_paused = true});
            std::vector<std::future<serve::Response>> futures;
            for (int i = 0; i < k_pairs; ++i)
                for (const double q : quanta)
                    futures.push_back(server.submit(make_request(q)));
            const util::Wall_timer timer;
            server.resume();
            for (auto& f : futures)
                run.responses.push_back(f.get());
            run.seconds = timer.seconds();
            run.stats = server.stats();
            return run;
        };

        Run_outcome best_on, best_off;
        for (int r = 0; r < k_runs; ++r) {
            auto on = run_burst(true);
            auto off = run_burst(false);
            if (r == 0 || on.seconds < best_on.seconds)
                best_on = std::move(on);
            if (r == 0 || off.seconds < best_off.seconds)
                best_off = std::move(off);
        }

        out.serve_batch_requests = 2 * k_pairs;
        out.serve_batch_families = 2;
        out.serve_batch_secs_on = best_on.seconds;
        out.serve_batch_secs_off = best_off.seconds;
        out.serve_batch_rps_on =
            best_on.seconds > 0.0 ? 2.0 * k_pairs / best_on.seconds : 0.0;
        out.serve_batch_rps_off =
            best_off.seconds > 0.0 ? 2.0 * k_pairs / best_off.seconds : 0.0;
        out.serve_batch_speedup = best_on.seconds > 0.0
                                      ? best_off.seconds / best_on.seconds
                                      : 0.0;
        out.serve_batch_dp_rows_cross =
            best_on.stats.dp_rows_reused_cross_request;
        out.serve_batch_batches =
            static_cast<long long>(best_on.stats.batches);
        out.serve_batch_max_size =
            static_cast<long long>(best_on.stats.max_batch_size);
        search::Eval_cache_stats combined;
        for (const auto& f : best_on.stats.family_cache)
            combined += f.cache;
        out.serve_batch_cache_hit_rate = combined.hit_rate();

        std::vector<double> batched_ms;
        bool identical = best_on.responses.size() == best_off.responses.size();
        for (std::size_t i = 0; i < best_on.responses.size(); ++i) {
            const auto& a = best_on.responses[i];
            batched_ms.push_back(a.queue_ms + a.solve_ms);
            if (!identical)
                break;
            const auto& b = best_off.responses[i];
            identical =
                a.status == serve::Request_status::complete &&
                b.status == serve::Request_status::complete &&
                a.rung_strategy == b.rung_strategy &&
                a.result.best.datapath == b.result.best.datapath &&
                a.result.best.partition.time_hybrid_ns ==
                    b.result.best.partition.time_hybrid_ns &&
                a.result.best.datapath_area == b.result.best.datapath_area;
        }
        out.serve_batch_identical = identical;
        out.serve_batch_p50_ms = serve::percentile(batched_ms, 0.50);
        out.serve_batch_p99_ms = serve::percentile(batched_ms, 0.99);
        out.serve_batch_p99_budget_ms =
            std::max(k_serve_p99_floor_ms,
                     k_serve_p99_budget_factor * out.serve_calib_ms *
                         static_cast<double>(2 * k_pairs));
        out.serve_batch_ok =
            out.serve_batch_identical &&
            out.serve_batch_speedup >= k_serve_batch_min_speedup &&
            out.serve_batch_dp_rows_cross > 0 &&
            out.serve_batch_p99_ms <= out.serve_batch_p99_budget_ms;
    }

    // Kernel-dispatch section: the dispatched SIMD kernel table
    // against the always-built scalar one, on the two row scans the
    // DP sweeps spend their time in — the single-ASIC value-sweep row
    // and the multi-ASIC dominance-merge scan.  Min-of-N over fixed
    // inner batches; the calls go through the tables' function
    // pointers exactly like the production sweeps, so the compiler
    // cannot specialize either side away.
    {
        namespace simd = util::simd;
        out.kernels_simd_available = simd::best_isa() != simd::Isa::scalar;
        out.kernels_isa = simd::isa_name(simd::active_isa());
        const simd::Kernels& sc = simd::kernels(simd::Isa::scalar);
        const simd::Kernels& vec = simd::kernels(simd::best_isa());

        // Interleave the scalar and SIMD batches rep by rep: the two
        // sides then see the same frequency/thermal drift, so the
        // min-of-N *ratio* stays honest even when absolute timings
        // wander (shared CI runners).
        const auto min_of_batches = [](int reps, int inner, auto&& scalar,
                                       auto&& simd) {
            std::pair<double, double> best{
                std::numeric_limits<double>::infinity(),
                std::numeric_limits<double>::infinity()};
            for (int r = 0; r < reps; ++r) {
                util::Wall_timer ts;
                for (int i = 0; i < inner; ++i)
                    scalar();
                best.first = std::min(best.first, ts.seconds() / inner);
                util::Wall_timer tv;
                for (int i = 0; i < inner; ++i)
                    simd();
                best.second = std::min(best.second, tv.seconds() / inner);
            }
            return best;
        };

        util::Rng krng(12345);
        // One wide DP row, cache-resident like the production rows
        // (this scenario's table width is ~256; the auto-quantum
        // default tops out near 4K levels).  The buffers come from an
        // Arena for the same 64-byte alignment the production rows
        // get — a 16-byte-aligned std::vector makes every other
        // 32-byte access split a cache line and the measured ratio
        // flip-flops with the allocator's mood.
        constexpr std::size_t k_width = 1024;
        util::Arena karena;
        const auto alloc_doubles = [&](std::size_t n) {
            return static_cast<double*>(karena.alloc(n * sizeof(double)));
        };
        double* cur = alloc_doubles(2 * k_width);
        double* nxt = alloc_doubles(2 * k_width);
        for (std::size_t i = 0; i < 2 * k_width; ++i)
            cur[i] = krng.chance(0.15)
                         ? -std::numeric_limits<double>::infinity()
                         : krng.uniform_real(0.0, 1.0e6);
        constexpr std::size_t k_qa = 16;
        const auto pace_pass = [&](const simd::Kernels& k) {
            k.pace_row_sw(cur, nxt, k_width);
            k.pace_row_hw(cur, nxt + k_qa * 2, k_width - k_qa, 123.5,
                          150.25);
        };
        std::tie(out.kern_pace_secs_scalar, out.kern_pace_secs_simd) =
            min_of_batches(9, 200, [&] { pace_pass(sc); },
                           [&] { pace_pass(vec); });

        constexpr std::size_t k_states = 4096;  // one big SoA lane
        auto* a0 = static_cast<std::int32_t*>(
            karena.alloc(k_states * sizeof(std::int32_t)));
        auto* a1 = static_cast<std::int32_t*>(
            karena.alloc(k_states * sizeof(std::int32_t)));
        double* value = alloc_doubles(k_states);
        std::int32_t run0 = 0;
        for (std::size_t i = 0; i < k_states; ++i) {
            run0 += krng.uniform_int(0, 2);
            a0[i] = run0;
            a1[i] = krng.uniform_int(0, 1 << 20);
            value[i] = krng.uniform_real(0.0, 1.0e6);
        }
        auto* key = static_cast<std::uint64_t*>(
            karena.alloc(k_states * sizeof(std::uint64_t)));
        double* val = alloc_doubles(k_states);
        // Caps that nothing overflows: the steady-state shape of a
        // mid-sweep merge (the overflow tails are covered by the
        // equivalence tests, not timed here).
        const std::int32_t cap0 = run0 + 64;
        const std::int32_t cap1 = (1 << 20) + 64;
        const auto merge_pass = [&](const simd::Kernels& k) {
            k.multi_shift_lane(a0, a1, value, k_states, 3, 5, 42.0, cap0,
                               cap1, key, val);
            volatile double sink = k.max_reduce(val, k_states);
            (void)sink;
        };
        std::tie(out.kern_merge_secs_scalar, out.kern_merge_secs_simd) =
            min_of_batches(9, 200, [&] { merge_pass(sc); },
                           [&] { merge_pass(vec); });

        const auto ratio = [](double scalar, double simd_secs) {
            return simd_secs > 0.0 ? scalar / simd_secs : 0.0;
        };
        out.kern_pace_speedup =
            ratio(out.kern_pace_secs_scalar, out.kern_pace_secs_simd);
        out.kern_merge_speedup =
            ratio(out.kern_merge_secs_scalar, out.kern_merge_secs_simd);
        out.kern_pace_ok =
            !out.kernels_simd_available ||
            out.kern_pace_speedup >= k_kernel_pace_min_speedup;
        out.kern_merge_ok =
            !out.kernels_simd_available ||
            out.kern_merge_speedup >= k_kernel_merge_min_speedup;
    }

    out.dp_rows_reused = new_pruned.dp_rows_reused;
    out.dp_rows_swept = new_pruned.dp_rows_swept;
    out.space_size = old_run.space_size;
    out.n_evaluated = old_run.n_evaluated;
    out.n_evaluated_pruned = new_pruned.n_evaluated;
    out.n_pruned = new_pruned.n_pruned;
    out.secs_old = old_run.seconds;
    out.secs_new_single = new_single.seconds;
    out.secs_new_pruned = new_pruned.seconds;
    out.secs_new_parallel = new_parallel.seconds;
    out.evals_per_sec_old = rate(old_run.n_evaluated, old_run.seconds);
    out.evals_per_sec_new_single =
        rate(new_single.n_evaluated, new_single.seconds);
    // Effective rates: the pruned searches cover the same space, so
    // their throughput is the unpruned workload over their wall time.
    out.evals_per_sec_new_pruned =
        rate(new_single.n_evaluated, new_pruned.seconds);
    out.evals_per_sec_new_parallel =
        rate(new_single.n_evaluated, new_parallel.seconds);
    const auto speedup_vs = [](double a, double b) {
        return b > 0.0 ? a / b : 0.0;
    };
    out.speedup_single =
        speedup_vs(out.evals_per_sec_new_single, out.evals_per_sec_old);
    out.speedup_pruned =
        speedup_vs(out.evals_per_sec_new_pruned, out.evals_per_sec_old);
    out.speedup_pruned_vs_single = speedup_vs(
        out.evals_per_sec_new_pruned, out.evals_per_sec_new_single);
    out.speedup_parallel =
        speedup_vs(out.evals_per_sec_new_parallel, out.evals_per_sec_old);
    out.cache_hit_rate = new_single.cache_stats.hit_rate();
    out.cache_hit_rate_pruned = new_pruned.cache_stats.hit_rate();
    out.n_threads = new_parallel.n_threads;
    out.pruned_matches_unpruned = same_best(old_run, new_pruned);
    out.same_best = same_best(old_run, new_single) &&
                    out.pruned_matches_unpruned &&
                    same_best(old_run, new_parallel);
    return out;
}

std::string to_json(const Search_bench_config& config,
                    const Search_bench_result& result)
{
    std::ostringstream out;
    out.precision(6);
    out << "{\n"
        << "  \"scenario\": {\n"
        << "    \"n_bsbs\": " << config.n_bsbs << ",\n"
        << "    \"ops_per_bsb\": " << config.ops_per_bsb << ",\n"
        << "    \"asic_area\": " << config.asic_area << ",\n"
        << "    \"max_count_per_type\": " << config.max_count_per_type
        << ",\n"
        << "    \"seed\": " << config.seed << ",\n"
        << "    \"space_size\": " << result.space_size << ",\n"
        << "    \"n_evaluated\": " << result.n_evaluated << "\n"
        << "  },\n"
        << "  \"old\": {\"seconds\": " << result.secs_old
        << ", \"evals_per_sec\": " << result.evals_per_sec_old << "},\n"
        << "  \"new_single\": {\"seconds\": " << result.secs_new_single
        << ", \"evals_per_sec\": " << result.evals_per_sec_new_single
        << ", \"cache_hit_rate\": " << result.cache_hit_rate << "},\n"
        << "  \"new_pruned\": {\"seconds\": " << result.secs_new_pruned
        << ", \"effective_evals_per_sec\": "
        << result.evals_per_sec_new_pruned
        << ", \"n_evaluated\": " << result.n_evaluated_pruned
        << ", \"n_pruned\": " << result.n_pruned
        << ", \"cache_hit_rate\": " << result.cache_hit_rate_pruned
        << ", \"dp_rows_reused\": " << result.dp_rows_reused
        << ", \"dp_rows_swept\": " << result.dp_rows_swept
        << "},\n"
        << "  \"multi_asic\": {\"n_bsbs\": " << result.multi_n_bsbs
        << ", \"secs_dense\": " << result.multi_secs_dense
        << ", \"secs_sparse\": " << result.multi_secs_sparse
        << ", \"speedup\": " << result.multi_speedup
        << ", \"evals_per_sec\": " << result.multi_evals_per_sec
        << ", \"sparse_occupancy\": " << result.multi_sparse_occupancy
        << ", \"sparse_states\": " << result.multi_sparse_states
        << ", \"area_quantum\": " << result.multi_area_quantum
        << ", \"traceback_bytes\": " << result.multi_traceback_bytes
        << ", \"traceback_bytes_dense\": "
        << result.multi_traceback_bytes_dense
        << ", \"sparse_matches_dense\": "
        << (result.multi_sparse_matches_dense ? "true" : "false") << "},\n"
        << "  \"new_parallel\": {\"seconds\": " << result.secs_new_parallel
        << ", \"effective_evals_per_sec\": "
        << result.evals_per_sec_new_parallel
        << ", \"n_threads\": " << result.n_threads << "},\n"
        << "  \"solver\": {\n"
        << "    \"exhaustive_bb\": {\"seconds\": "
        << result.solver_exh_seconds << ", \"effective_evals_per_sec\": "
        << result.solver_exh_evals_per_sec << "},\n"
        << "    \"hill_climb\": {\"seconds\": " << result.solver_hill_seconds
        << ", \"n_evaluated\": " << result.solver_hill_evaluated
        << ", \"evals_per_sec\": " << result.solver_hill_evals_per_sec
        << "},\n"
        << "    \"multi_asic_bb\": {\"seconds\": "
        << result.solver_multi_seconds
        << ", \"pair_space\": " << result.solver_multi_pairs
        << ", \"axis_points\": [" << result.solver_multi_axis0 << ", "
        << result.solver_multi_axis1 << "]"
        << ", \"n_evaluated\": " << result.solver_multi_evaluated
        << ", \"n_pruned\": " << result.solver_multi_pruned
        << ", \"effective_pairs_per_sec\": "
        << result.solver_multi_pairs_per_sec
        << ", \"best_time_ns\": " << result.solver_multi_best_time_ns
        << "},\n"
        << "    \"pair_tree_bb\": {\"rows_visited\": "
        << result.solver_multi_rows_visited
        << ", \"rows_pruned\": " << result.solver_multi_rows_pruned
        << ", \"pairs_skipped\": " << result.solver_multi_pairs_skipped
        << ", \"dp_states_swept\": " << result.solver_multi_dp_states
        << ", \"dp_cells_dense\": " << result.solver_multi_dp_dense
        << ", \"deterministic\": "
        << (result.solver_multi_deterministic ? "true" : "false") << "}\n"
        << "  },\n"
        << "  \"deadline\": {\"secs_no_token\": "
        << result.deadline_secs_no_token
        << ", \"secs_token\": " << result.deadline_secs_token
        << ", \"poll_sweeps\": " << result.deadline_poll_sweeps
        << ", \"poll_overhead\": " << result.deadline_poll_overhead
        << ", \"overhead_ok\": "
        << (result.deadline_overhead_ok ? "true" : "false")
        << ", \"untruncated_time_ns\": "
        << result.deadline_untruncated_time_ns << ", \"quality\": [";
    for (std::size_t i = 0; i < result.deadline_ms_points.size(); ++i)
        out << (i > 0 ? ", " : "") << "{\"deadline_ms\": "
            << result.deadline_ms_points[i] << ", \"best_time_ns\": "
            << result.deadline_best_time_ns[i] << ", \"complete\": "
            << (result.deadline_complete[i] ? "true" : "false") << "}";
    out << "]},\n"
        << "  \"serve\": {\"requests\": " << result.serve_requests
        << ", \"workers\": " << result.serve_workers
        << ", \"completed\": " << result.serve_completed
        << ", \"degraded\": " << result.serve_degraded
        << ", \"shed\": " << result.serve_shed
        << ", \"failed\": " << result.serve_failed
        << ", \"calib_ms\": " << result.serve_calib_ms
        << ", \"p50_ms\": " << result.serve_p50_ms
        << ", \"p99_ms\": " << result.serve_p99_ms
        << ", \"p99_budget_ms\": " << result.serve_p99_budget_ms
        << ", \"p99_ok\": " << (result.serve_p99_ok ? "true" : "false")
        << "},\n"
        << "  \"serve_batch\": {\"requests\": " << result.serve_batch_requests
        << ", \"families\": " << result.serve_batch_families
        << ", \"secs_on\": " << result.serve_batch_secs_on
        << ", \"secs_off\": " << result.serve_batch_secs_off
        << ", \"rps_on\": " << result.serve_batch_rps_on
        << ", \"rps_off\": " << result.serve_batch_rps_off
        << ", \"speedup\": " << result.serve_batch_speedup
        << ", \"p50_ms\": " << result.serve_batch_p50_ms
        << ", \"p99_ms\": " << result.serve_batch_p99_ms
        << ", \"p99_budget_ms\": " << result.serve_batch_p99_budget_ms
        << ", \"dp_rows_cross\": " << result.serve_batch_dp_rows_cross
        << ", \"batches\": " << result.serve_batch_batches
        << ", \"max_batch_size\": " << result.serve_batch_max_size
        << ", \"cache_hit_rate\": " << result.serve_batch_cache_hit_rate
        << ", \"identical\": "
        << (result.serve_batch_identical ? "true" : "false")
        << ", \"ok\": " << (result.serve_batch_ok ? "true" : "false")
        << "},\n"
        << "  \"dist\": {\"units\": " << result.dist_units
        << ", \"matches_local\": "
        << (result.dist_matches_local ? "true" : "false") << ", \"runs\": [";
    for (std::size_t i = 0; i < result.dist_worker_counts.size(); ++i)
        out << (i > 0 ? ", " : "") << "{\"workers\": "
            << result.dist_worker_counts[i]
            << ", \"seconds\": " << result.dist_seconds[i]
            << ", \"leases\": " << result.dist_leases[i]
            << ", \"incumbent_broadcasts\": " << result.dist_broadcasts[i]
            << "}";
    out << "]},\n"
        << "  \"kernels\": {\"isa\": \"" << result.kernels_isa << "\""
        << ", \"simd_available\": "
        << (result.kernels_simd_available ? "true" : "false") << ",\n"
        << "    \"pace_sweep\": {\"secs_scalar\": "
        << result.kern_pace_secs_scalar
        << ", \"secs_simd\": " << result.kern_pace_secs_simd
        << ", \"speedup\": " << result.kern_pace_speedup
        << ", \"min_speedup\": " << k_kernel_pace_min_speedup
        << ", \"ok\": " << (result.kern_pace_ok ? "true" : "false")
        << "},\n"
        << "    \"multi_merge\": {\"secs_scalar\": "
        << result.kern_merge_secs_scalar
        << ", \"secs_simd\": " << result.kern_merge_secs_simd
        << ", \"speedup\": " << result.kern_merge_speedup
        << ", \"min_speedup\": " << k_kernel_merge_min_speedup
        << ", \"ok\": " << (result.kern_merge_ok ? "true" : "false")
        << "}},\n"
        << "  \"time_split\": {\"sched_seconds\": " << result.sched_seconds
        << ", \"dp_seconds\": " << result.dp_seconds << "},\n"
        << "  \"speedup_single\": " << result.speedup_single << ",\n"
        << "  \"speedup_pruned\": " << result.speedup_pruned << ",\n"
        << "  \"speedup_pruned_vs_single\": "
        << result.speedup_pruned_vs_single << ",\n"
        << "  \"speedup_parallel\": " << result.speedup_parallel << ",\n"
        << "  \"pruned_matches_unpruned\": "
        << (result.pruned_matches_unpruned ? "true" : "false") << ",\n"
        << "  \"same_best\": " << (result.same_best ? "true" : "false")
        << "\n}\n";
    return out.str();
}

void print_summary(std::ostream& out, const Search_bench_result& result)
{
    out << "search bench over " << result.n_evaluated << " of "
        << result.space_size << " allocations\n"
        << "  old (naive sched, no cache):  "
        << util::fixed(result.evals_per_sec_old, 1) << " evals/s ("
        << util::fixed(result.secs_old, 3) << " s)\n"
        << "  new single (event + cache):   "
        << util::fixed(result.evals_per_sec_new_single, 1) << " evals/s ("
        << util::fixed(result.speedup_single, 1) << "x, hit rate "
        << util::fixed(100.0 * result.cache_hit_rate, 1) << "%)\n"
        << "  new pruned (branch&bound):    "
        << util::fixed(result.evals_per_sec_new_pruned, 1)
        << " evals/s effective (" << util::fixed(result.speedup_pruned, 1)
        << "x old, " << util::fixed(result.speedup_pruned_vs_single, 1)
        << "x single; " << result.n_pruned << " pruned)\n"
        << "  new parallel (" << result.n_threads << " threads):       "
        << util::fixed(result.evals_per_sec_new_parallel, 1)
        << " evals/s effective ("
        << util::fixed(result.speedup_parallel, 1) << "x)\n"
        << "  time split (one sweep):       sched "
        << util::fixed(result.sched_seconds * 1e3, 1) << " ms, DP "
        << util::fixed(result.dp_seconds * 1e3, 1) << " ms\n"
        << "  incremental DP (pruned run):  " << result.dp_rows_reused
        << " rows reused, " << result.dp_rows_swept << " swept\n"
        << "  multi-ASIC DP (sparse):       "
        << util::fixed(result.multi_secs_sparse * 1e3, 2)
        << " ms/partition (" << util::fixed(result.multi_speedup, 1)
        << "x dense; states "
        << util::fixed(100.0 * result.multi_sparse_occupancy, 1)
        << "% of grid; traceback " << result.multi_traceback_bytes_dense
        << " -> " << result.multi_traceback_bytes << " B; "
        << (result.multi_sparse_matches_dense ? "match" : "MISMATCH")
        << ")\n"
        << "  solver exhaustive_bb:         "
        << util::fixed(result.solver_exh_evals_per_sec, 1)
        << " evals/s effective ("
        << util::fixed(result.solver_exh_seconds, 3) << " s)\n"
        << "  solver hill_climb:            "
        << util::fixed(result.solver_hill_evals_per_sec, 1)
        << " evals/s (" << result.solver_hill_evaluated << " screened)\n"
        << "  solver multi_asic_bb:         "
        << util::fixed(result.solver_multi_pairs_per_sec, 1)
        << " pairs/s effective (" << result.solver_multi_pairs
        << " pairs = " << result.solver_multi_axis0 << "x"
        << result.solver_multi_axis1 << ", "
        << result.solver_multi_evaluated << " scored + "
        << result.solver_multi_pruned << " pruned; "
        << (result.solver_multi_deterministic ? "deterministic"
                                              : "NON-DETERMINISTIC")
        << ")\n"
        << "  pair-tree row bound:          "
        << result.solver_multi_rows_pruned << "/"
        << result.solver_multi_rows_visited << " rows killed, "
        << result.solver_multi_pairs_skipped << " pairs skipped; sparse DP "
        << result.solver_multi_dp_states << " states vs "
        << result.solver_multi_dp_dense << " dense cells\n"
        << "  kernel dispatch (" << result.kernels_isa << "):       "
        << (result.kernels_simd_available
                ? util::fixed(result.kern_pace_speedup, 2) + "x pace sweep, " +
                      util::fixed(result.kern_merge_speedup, 2) +
                      "x multi merge vs scalar (" +
                      std::string(result.kern_pace_ok && result.kern_merge_ok
                                      ? "ok"
                                      : "REGRESSED") +
                      ")"
                : std::string("scalar-only build/CPU, gates waived"))
        << "\n"
        << "  serve burst (" << result.serve_workers << " workers):      "
        << result.serve_requests << " requests, p50 "
        << util::fixed(result.serve_p50_ms, 1) << " ms, p99 "
        << util::fixed(result.serve_p99_ms, 1) << " ms (budget "
        << util::fixed(result.serve_p99_budget_ms, 1) << " ms; "
        << result.serve_completed << " complete, " << result.serve_degraded
        << " degraded, " << result.serve_shed << " shed; "
        << (result.serve_p99_ok ? "ok" : "TOO SLOW") << ")\n"
        << "  serve batching:               "
        << util::fixed(result.serve_batch_speedup, 2) << "x ("
        << util::fixed(result.serve_batch_secs_off * 1e3, 1) << " ms -> "
        << util::fixed(result.serve_batch_secs_on * 1e3, 1) << " ms for "
        << result.serve_batch_requests << " requests, "
        << result.serve_batch_families << " families; "
        << result.serve_batch_dp_rows_cross << " cross-request DP rows, "
        << util::fixed(100.0 * result.serve_batch_cache_hit_rate, 1)
        << "% cache hits, p99 " << util::fixed(result.serve_batch_p99_ms, 1)
        << " ms; "
        << (result.serve_batch_ok
                ? "ok"
                : result.serve_batch_identical ? "TOO SLOW" : "MISMATCH")
        << ")\n"
        << "  distributed exhaustive_bb:    "
        << util::fixed(result.dist_seconds[0] * 1e3, 1) << "/"
        << util::fixed(result.dist_seconds[1] * 1e3, 1) << "/"
        << util::fixed(result.dist_seconds[2] * 1e3, 1)
        << " ms for 1/2/4 workers (" << result.dist_units << " units, "
        << result.dist_broadcasts[0] + result.dist_broadcasts[1] +
               result.dist_broadcasts[2]
        << " broadcasts; "
        << (result.dist_matches_local ? "match" : "MISMATCH") << ")\n"
        << "  cancel-token poll overhead:   "
        << util::fixed(100.0 * result.deadline_poll_overhead, 2) << "% ("
        << util::fixed(result.deadline_secs_no_token * 1e3, 2)
        << " ms -> " << util::fixed(result.deadline_secs_token * 1e3, 2)
        << " ms, medians of " << result.deadline_poll_sweeps
        << " interleaved sweeps a side; "
        << (result.deadline_overhead_ok ? "ok" : "TOO SLOW")
        << ")\n"
        << "  same best allocation: " << (result.same_best ? "yes" : "NO")
        << " (pruned vs unpruned: "
        << (result.pruned_matches_unpruned ? "match" : "MISMATCH") << ")\n";
}

int write_bench_report(const std::string& path, std::ostream& log,
                       std::ostream& err)
{
    std::error_code ignored;
    const bool existed = std::filesystem::exists(path, ignored);
    try {
        // Probe writability first (append mode: no truncation) so an
        // unwritable path fails fast, yet a measurement failure later
        // cannot clobber a previously written good report.
        {
            std::ofstream probe(path, std::ios::app);
            if (!probe) {
                err << "error: cannot write " << path << "\n";
                return 1;
            }
        }
        const Search_bench_config config;
        const auto result = run_search_bench(config);
        print_summary(log, result);
        std::ofstream out(path);
        out << to_json(config, result);
        out.flush();
        if (!out) {
            err << "error: failed writing " << path << "\n";
            return 1;
        }
        log << "wrote " << path << "\n";
        if (!result.pruned_matches_unpruned)
            err << "error: pruned (incremental) search disagrees with the "
                   "cold unpruned search on the best allocation\n";
        if (!result.multi_sparse_matches_dense)
            err << "error: two-ASIC sparse DP disagrees with the dense "
                   "reference\n";
        if (!result.solver_multi_deterministic)
            err << "error: multi_asic_bb best pair depends on the "
                   "chunking\n";
        if (result.solver_multi_rows_pruned <= 0)
            err << "error: the pair-tree row bound killed no rows on the "
                   "standard bench space\n";
        if (result.solver_multi_dp_states >= result.solver_multi_dp_dense)
            err << "error: the sparse multi-ASIC DP swept no fewer cells "
                   "than the dense grids it replaced\n";
        if (!result.deadline_overhead_ok)
            err << "error: an armed-but-idle Cancel_token slowed the "
                   "new_single sweep by more than 1%\n";
        if (!result.serve_p99_ok)
            err << "error: the serve burst missed its p99 budget ("
                << result.serve_p99_ms << " ms > "
                << result.serve_p99_budget_ms << " ms) or shed/failed "
                   "requests on an uncontended queue\n";
        if (!result.serve_batch_ok) {
            if (!result.serve_batch_identical)
                err << "error: batched answers differ from the unbatched "
                       "fresh-session ones\n";
            else if (result.serve_batch_dp_rows_cross <= 0)
                err << "error: the batched burst observed no cross-request "
                       "DP warm-start rows\n";
            else if (result.serve_batch_speedup < k_serve_batch_min_speedup)
                err << "error: request batching regressed below "
                    << k_serve_batch_min_speedup
                    << "x the unbatched burst (measured "
                    << result.serve_batch_speedup << "x)\n";
            else
                err << "error: the batched burst missed its p99 budget ("
                    << result.serve_batch_p99_ms << " ms > "
                    << result.serve_batch_p99_budget_ms << " ms)\n";
        }
        if (!result.kern_pace_ok)
            err << "error: SIMD pace-sweep kernels regressed below "
                << k_kernel_pace_min_speedup << "x scalar (measured "
                << result.kern_pace_speedup << "x)\n";
        if (!result.kern_merge_ok)
            err << "error: SIMD dominance-merge kernels regressed below "
                << k_kernel_merge_min_speedup << "x scalar (measured "
                << result.kern_merge_speedup << "x)\n";
        if (!result.dist_matches_local)
            err << "error: the distributed solve disagrees with the "
                   "local Session solve at some worker count\n";
        return result.same_best && result.pruned_matches_unpruned &&
                       result.multi_sparse_matches_dense &&
                       result.solver_multi_deterministic &&
                       result.solver_multi_rows_pruned > 0 &&
                       result.solver_multi_dp_states <
                           result.solver_multi_dp_dense &&
                       result.deadline_overhead_ok && result.serve_p99_ok &&
                       result.serve_batch_ok &&
                       result.kern_pace_ok && result.kern_merge_ok &&
                       result.dist_matches_local
                   ? 0
                   : 1;
    }
    catch (const std::exception& e) {
        // Don't leave a zero-byte probe-created file behind.
        if (!existed)
            std::filesystem::remove(path, ignored);
        err << "error: " << e.what() << "\n";
        return 1;
    }
}

}  // namespace lycos::search

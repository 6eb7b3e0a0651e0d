// The timing gates: four catastrophic-regression checks on one seeded
// synthetic scenario, one output row per gate (value, threshold, ok).
// Exits non-zero when any gate fails; CI runs it in the build-test and
// build-test-scalar jobs.
//
// The scenario: 16 BSBs x 128 ops (seed 42, each BSB using 2-4 of six
// op kinds), the real flow's restrictions clamped to 2 per type, the
// default library and target at 20000 gates, searched at quantum
// area/256.  The gates:
//
//   serve.p99_ok          a 20-request hill_climb burst (16 normal,
//                         mixed priorities, plus 4 already-expired
//                         deadlines that walk the degradation ladder)
//                         through a 2-worker serve::Server finishes
//                         every request, and its end-to-end p99 stays
//                         under max(50 ms, 4.0 x the calibrated
//                         one-shot request cost x queue depth per
//                         worker).
//   serve_batch.ok        an interleaved two-family burst (two search
//                         quanta, 6 requests each) on a paused
//                         1-worker server with a capacity-1 session
//                         pool runs >= 1.3x faster with batching on
//                         than off (min of 2 runs a side), observes
//                         cross-request DP rows, answers every request
//                         bit-identically to the unbatched
//                         (fresh-session) run, and keeps the batched
//                         p99 under max(50 ms, 4.0 x calibrated cost x
//                         12).
//   deadline.overhead_ok  an armed, never-tripping Cancel_token costs
//                         the one-thread cached unpruned exhaustive
//                         sweep at most 1% + 2 ms: per-sweep medians
//                         of interleaved sweeps (each pair led by the
//                         other side in turn), >= 100 ms a side, each
//                         sweep on a fresh Session.
//   kernels.pace_ok       the dispatched value-sweep row kernels are
//   kernels.merge_ok      >= 1.5x / the dominance-merge kernels >= 1.3x
//                         the scalar table (interleaved min of 9
//                         batches of 200); waived when best_isa() is
//                         scalar.
//
// The thresholds are deliberately generous: they catch a serialized
// pool, a lost wakeup, a per-request overhead blowup or a kernel that
// fell back to scalar, not drift.  The correctness checks this
// scenario once carried are ctest cases (docs/performance.md lists
// them); end-to-end timings are perfbench's (perfbench/README.md).
#include <algorithm>
#include <array>
#include <cstdint>
#include <future>
#include <iostream>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "apps/random_app.hpp"
#include "core/analysis.hpp"
#include "core/restrictions.hpp"
#include "hw/target.hpp"
#include "serve/serve.hpp"
#include "serve/trace.hpp"
#include "solver/solver.hpp"
#include "util/arena.hpp"
#include "util/cancel.hpp"
#include "util/format.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace {

using namespace lycos;

constexpr double k_asic_area = 20000.0;
constexpr double k_serve_p99_budget_factor = 4.0;
constexpr double k_serve_p99_floor_ms = 50.0;
constexpr double k_serve_batch_min_speedup = 1.3;
constexpr double k_poll_max_overhead = 0.01;
constexpr double k_poll_noise_floor_s = 0.002;
constexpr double k_kernel_pace_min_speedup = 1.5;
constexpr double k_kernel_merge_min_speedup = 1.3;

/// The scenario's BSBs: like real basic blocks, each uses a small
/// random subset of the operation kinds, which is the composition the
/// Eval_cache's per-BSB projection keying exploits.
std::vector<bsb::Bsb> scenario_bsbs()
{
    util::Rng rng(42);
    const std::vector<hw::Op_kind> kind_pool = {
        hw::Op_kind::add,    hw::Op_kind::sub,        hw::Op_kind::mul,
        hw::Op_kind::div,    hw::Op_kind::cmp_lt,     hw::Op_kind::const_load,
    };
    std::vector<bsb::Bsb> bsbs;
    for (int i = 0; i < 16; ++i) {
        apps::Random_app_params params;
        params.n_bsbs = 1;
        params.min_ops = 128;
        params.max_ops = 128;
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
    return bsbs;
}

struct Gate {
    std::string name;
    std::string value;
    std::string threshold;
    bool ok = false;
    bool waived = false;
    std::string detail;
};

std::string ms(double seconds) { return util::fixed(seconds * 1e3, 2) + " ms"; }

bool same_answer(const serve::Response& a, const serve::Response& b)
{
    return a.status == serve::Request_status::complete &&
           b.status == serve::Request_status::complete &&
           a.rung_strategy == b.rung_strategy &&
           a.result.best.datapath == b.result.best.datapath &&
           a.result.best.partition.time_hybrid_ns ==
               b.result.best.partition.time_hybrid_ns &&
           a.result.best.datapath_area == b.result.best.datapath_area;
}

/// serve.p99_ok; returns the calibrated one-shot request cost (ms)
/// through `calib_ms` for the batching gate's budget.
Gate serve_gate(const solver::Problem& problem, double& calib_ms)
{
    const auto make_request = [&](double deadline_ms,
                                  serve::Priority priority) {
        serve::Request request;
        request.problem = problem;
        request.strategy = "hill_climb";
        request.priority = priority;
        request.deadline_ms = deadline_ms;
        request.options.n_threads = 1;
        return request;
    };

    serve::Server calib({.n_workers = 0});
    (void)calib.solve(make_request(0.0, serve::Priority::bulk));  // warm-up
    calib_ms = calib.solve(make_request(0.0, serve::Priority::bulk)).solve_ms;

    constexpr int k_normal = 16;
    constexpr int k_expired = 4;
    constexpr int k_workers = 2;
    serve::Server server(
        {.n_workers = k_workers, .queue_capacity = 64, .warm_start = false});
    std::vector<std::future<serve::Response>> futures;
    for (int i = 0; i < k_normal; ++i)
        futures.push_back(server.submit(make_request(
            0.0, i % 2 == 0 ? serve::Priority::bulk
                            : serve::Priority::interactive)));
    for (int i = 0; i < k_expired; ++i)
        futures.push_back(
            server.submit(make_request(1e-3, serve::Priority::bulk)));

    std::vector<double> latencies_ms;
    int complete = 0, degraded = 0, shed = 0, failed = 0;
    for (auto& f : futures) {
        const auto r = f.get();
        switch (r.status) {
        case serve::Request_status::complete:
            ++complete;
            break;
        case serve::Request_status::degraded:
            ++degraded;
            break;
        case serve::Request_status::shed:
            ++shed;
            break;
        case serve::Request_status::failed:
            ++failed;
            break;
        }
        if (r.status == serve::Request_status::complete ||
            r.status == serve::Request_status::degraded)
            latencies_ms.push_back(r.queue_ms + r.solve_ms);
    }
    const double p99 = serve::percentile(latencies_ms, 0.99);
    const double budget = std::max(
        k_serve_p99_floor_ms, k_serve_p99_budget_factor * calib_ms *
                                  (k_normal + k_expired) / k_workers);
    return {"serve.p99_ok",
            util::fixed(p99, 1) + " ms",
            "<= " + util::fixed(budget, 1) + " ms",
            shed == 0 && failed == 0 && p99 <= budget,
            false,
            std::to_string(complete) + " complete, " +
                std::to_string(degraded) + " degraded, " +
                std::to_string(shed) + " shed, " + std::to_string(failed) +
                " failed; calibrated " + util::fixed(calib_ms, 2) +
                " ms/request"};
}

Gate serve_batch_gate(const solver::Problem& problem, double calib_ms)
{
    constexpr int k_per_family = 6;
    constexpr int k_runs = 2;  // min-of-N walls
    const std::array<double, 2> quanta{k_asic_area / 256.0,
                                       k_asic_area / 320.0};
    struct Run {
        double seconds = 0.0;
        std::vector<serve::Response> responses;  // submission order
        serve::Server_stats stats;
    };
    const auto run_burst = [&](bool batching) {
        Run run;
        serve::Server server({.n_workers = 1,
                              .queue_capacity = 64,
                              .session_pool_capacity = 1,
                              .warm_start = false,
                              .batching = batching,
                              .start_paused = true});
        std::vector<std::future<serve::Response>> futures;
        for (int i = 0; i < k_per_family; ++i)
            for (const double q : quanta) {
                serve::Request request;
                request.problem = problem;
                request.problem.area_quantum = q;
                request.strategy = "hill_climb";
                request.priority = serve::Priority::bulk;
                request.options.n_threads = 1;
                futures.push_back(server.submit(std::move(request)));
            }
        const util::Wall_timer timer;
        server.resume();
        for (auto& f : futures)
            run.responses.push_back(f.get());
        run.seconds = timer.seconds();
        run.stats = server.stats();
        return run;
    };

    Run on, off;
    for (int r = 0; r < k_runs; ++r) {
        auto run_on = run_burst(true);
        auto run_off = run_burst(false);
        if (r == 0 || run_on.seconds < on.seconds)
            on = std::move(run_on);
        if (r == 0 || run_off.seconds < off.seconds)
            off = std::move(run_off);
    }

    bool identical = on.responses.size() == off.responses.size();
    std::vector<double> batched_ms;
    for (std::size_t i = 0; i < on.responses.size(); ++i) {
        batched_ms.push_back(on.responses[i].queue_ms +
                             on.responses[i].solve_ms);
        identical = identical && same_answer(on.responses[i], off.responses[i]);
    }
    const double speedup = on.seconds > 0.0 ? off.seconds / on.seconds : 0.0;
    const long long cross = on.stats.dp_rows_reused_cross_request;
    const double p99 = serve::percentile(batched_ms, 0.99);
    const double budget =
        std::max(k_serve_p99_floor_ms, k_serve_p99_budget_factor * calib_ms *
                                           2.0 * k_per_family);
    return {"serve_batch.ok",
            util::fixed(speedup, 2) + "x",
            ">= " + util::fixed(k_serve_batch_min_speedup, 2) + "x",
            identical && speedup >= k_serve_batch_min_speedup && cross > 0 &&
                p99 <= budget,
            false,
            ms(off.seconds) + " -> " + ms(on.seconds) + "; " +
                std::to_string(cross) + " cross-request DP rows (> 0), " +
                (identical ? "answers identical" : "answers DIFFER") +
                ", p99 " + util::fixed(p99, 1) + " ms <= " +
                util::fixed(budget, 1) + " ms"};
}

Gate deadline_gate(const solver::Problem& problem)
{
    const util::Cancel_token far_deadline(3.6e6, 0, 0, {});
    // Cached, unpruned, one thread: the armed token changes no work,
    // only adds the polls.  A fresh Session per sweep, so both sides
    // schedule every projection cold and resume no DP checkpoint.
    const auto sweep_seconds = [&](const util::Cancel_token* token) {
        solver::Solve_options options;
        options.n_threads = 1;
        options.use_cache = true;
        options.use_pruning = false;
        options.cancel = token;
        solver::Session session(problem);
        return session.solve("exhaustive_bb", options).seconds;
    };
    constexpr double k_side_secs = 0.1;
    std::vector<double> no_token, token;
    double no_token_total = 0.0, token_total = 0.0;
    while (no_token_total < k_side_secs || token_total < k_side_secs) {
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
    const auto sweeps = no_token.size();
    const double base = median(no_token);
    const double armed = median(token);
    const double limit =
        base * (1.0 + k_poll_max_overhead) + k_poll_noise_floor_s;
    return {"deadline.overhead_ok",
            ms(armed),
            "<= " + ms(limit),
            armed <= limit,
            false,
            "no token " + ms(base) + "; medians of " +
                std::to_string(sweeps) + " interleaved sweeps a side"};
}

/// kernels.pace_ok and kernels.merge_ok: the dispatched SIMD table
/// against the scalar one on the two row scans the DP sweeps spend
/// their time in, called through the tables' function pointers like
/// the production sweeps.
std::array<Gate, 2> kernel_gates()
{
    namespace simd = util::simd;
    const bool simd_available = simd::best_isa() != simd::Isa::scalar;
    const simd::Kernels& sc = simd::kernels(simd::Isa::scalar);
    const simd::Kernels& vec = simd::kernels(simd::best_isa());

    // Scalar and SIMD batches interleave rep by rep, so both sides see
    // the same frequency drift and the min-of-N ratio stays honest.
    const auto speedup = [](int reps, int inner, auto&& scalar, auto&& simd) {
        double best_scalar = std::numeric_limits<double>::infinity();
        double best_simd = best_scalar;
        for (int r = 0; r < reps; ++r) {
            util::Wall_timer ts;
            for (int i = 0; i < inner; ++i)
                scalar();
            best_scalar = std::min(best_scalar, ts.seconds());
            util::Wall_timer tv;
            for (int i = 0; i < inner; ++i)
                simd();
            best_simd = std::min(best_simd, tv.seconds());
        }
        return best_simd > 0.0 ? best_scalar / best_simd : 0.0;
    };

    util::Rng rng(12345);
    // One wide, cache-resident DP row.  Arena buffers get the 64-byte
    // alignment production rows get; a 16-byte-aligned vector splits
    // every other 32-byte access across cache lines.
    constexpr std::size_t k_width = 1024;
    util::Arena arena;
    const auto doubles = [&](std::size_t n) {
        return static_cast<double*>(arena.alloc(n * sizeof(double)));
    };
    double* cur = doubles(2 * k_width);
    double* nxt = doubles(2 * k_width);
    for (std::size_t i = 0; i < 2 * k_width; ++i)
        cur[i] = rng.chance(0.15) ? -std::numeric_limits<double>::infinity()
                                  : rng.uniform_real(0.0, 1.0e6);
    constexpr std::size_t k_qa = 16;
    const auto pace_pass = [&](const simd::Kernels& k) {
        k.pace_row_sw(cur, nxt, k_width);
        k.pace_row_hw(cur, nxt + k_qa * 2, k_width - k_qa, 123.5, 150.25);
    };
    const double pace = speedup(9, 200, [&] { pace_pass(sc); },
                                [&] { pace_pass(vec); });

    constexpr std::size_t k_states = 4096;  // one big SoA lane
    auto* a0 = static_cast<std::int32_t*>(
        arena.alloc(k_states * sizeof(std::int32_t)));
    auto* a1 = static_cast<std::int32_t*>(
        arena.alloc(k_states * sizeof(std::int32_t)));
    double* value = doubles(k_states);
    std::int32_t run0 = 0;
    for (std::size_t i = 0; i < k_states; ++i) {
        run0 += rng.uniform_int(0, 2);
        a0[i] = run0;
        a1[i] = rng.uniform_int(0, 1 << 20);
        value[i] = rng.uniform_real(0.0, 1.0e6);
    }
    auto* key = static_cast<std::uint64_t*>(
        arena.alloc(k_states * sizeof(std::uint64_t)));
    double* val = doubles(k_states);
    // Caps nothing overflows: the steady-state shape of a mid-sweep
    // merge (the overflow tails are the equivalence tests' business).
    const std::int32_t cap0 = run0 + 64;
    const std::int32_t cap1 = (1 << 20) + 64;
    const auto merge_pass = [&](const simd::Kernels& k) {
        k.multi_shift_lane(a0, a1, value, k_states, 3, 5, 42.0, cap0, cap1,
                           key, val);
        volatile double sink = k.max_reduce(val, k_states);
        (void)sink;
    };
    const double merge = speedup(9, 200, [&] { merge_pass(sc); },
                                 [&] { merge_pass(vec); });

    const std::string isa = simd::isa_name(simd::active_isa());
    const auto gate = [&](const char* name, double measured, double min) {
        return Gate{name,
                    util::fixed(measured, 2) + "x",
                    ">= " + util::fixed(min, 2) + "x",
                    !simd_available || measured >= min,
                    !simd_available,
                    simd_available ? isa + " vs scalar"
                                   : "scalar-only build or CPU"};
    };
    return {gate("kernels.pace_ok", pace, k_kernel_pace_min_speedup),
            gate("kernels.merge_ok", merge, k_kernel_merge_min_speedup)};
}

}  // namespace

int main()
{
    try {
        const auto lib = hw::make_default_library();
        const auto target = hw::make_default_target(k_asic_area);
        const auto bsbs = scenario_bsbs();

        const auto infos = core::analyze(bsbs, lib, target.gates);
        const auto raw = core::compute_restrictions(infos, lib);
        // Rebuild rather than clamp in place: Rmap::set(r, 0) erases
        // the entry, which would invalidate an iterator over raw.
        core::Rmap restrictions;
        for (const auto& [r, bound] : raw.entries())
            restrictions.set(r, std::min(bound, 2));

        solver::Problem problem;
        problem.bsbs = bsbs;
        problem.lib = &lib;
        problem.target = target;
        problem.restrictions = restrictions;
        problem.ctrl_mode = pace::Controller_mode::list_schedule;
        problem.area_quantum = k_asic_area / 256.0;

        std::vector<Gate> gates;
        double calib_ms = 0.0;
        gates.push_back(serve_gate(problem, calib_ms));
        gates.push_back(serve_batch_gate(problem, calib_ms));
        gates.push_back(deadline_gate(problem));
        for (auto& g : kernel_gates())
            gates.push_back(std::move(g));

        util::Table_printer table(
            {"gate", "value", "threshold", "ok", "detail"});
        table.set_align(4, util::Align::left);
        bool all_ok = true;
        for (const auto& g : gates) {
            all_ok = all_ok && g.ok;
            table.add_row({g.name, g.value, g.threshold,
                           g.waived ? "waived" : g.ok ? "yes" : "FAIL",
                           g.detail});
        }
        table.print(std::cout);
        std::cout << (all_ok ? "all gates pass\n" : "GATE FAILED\n");
        return all_ok ? 0 : 1;
    }
    catch (const std::exception& e) {
        std::cerr << "error: " << e.what() << "\n";
        return 1;
    }
}

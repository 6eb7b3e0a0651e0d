// §4.4 scaling: microbenchmarks (google-benchmark) for
//   * the FURO pre-analysis, claimed proportional to L * k^2
//     (L = number of BSBs, k = max operations per BSB),
//   * the allocation loop itself,
//   * the PACE dynamic program vs the exponential brute force,
//   * old vs new allocation evaluation (the naive test-oracle list
//     scheduler vs the event-driven one, uncached vs memoized
//     evaluation).
// The oracle cases (brute force, dense two-ASIC DP, naive scheduler)
// come from the lycos_oracles library (tests/support/).
#include <benchmark/benchmark.h>

#include "apps/random_app.hpp"
#include "core/allocator.hpp"
#include "hw/target.hpp"
#include "pace/cost_model.hpp"
#include "pace/multi_asic.hpp"
#include "pace/pace.hpp"
#include "search/eval_cache.hpp"
#include "sched/list_scheduler.hpp"
#include "support/brute_force.hpp"
#include "support/list_schedule_naive.hpp"
#include "support/multi_pace_reference.hpp"
#include "util/rng.hpp"

namespace {

using namespace lycos;

std::vector<bsb::Bsb> make_bsbs(int n_bsbs, int ops_per_bsb)
{
    util::Rng rng(42);
    apps::Random_app_params p;
    p.n_bsbs = n_bsbs;
    p.min_ops = ops_per_bsb;
    p.max_ops = ops_per_bsb;
    return apps::random_bsbs(rng, p);
}

// --- FURO analysis: sweep k with L fixed (expect ~quadratic) --------
void bm_analyze_ops_per_bsb(benchmark::State& state)
{
    const auto lib = hw::make_default_library();
    const auto target = hw::make_default_target(10000.0);
    const auto bsbs = make_bsbs(8, static_cast<int>(state.range(0)));
    for (auto _ : state) {
        auto infos = core::analyze(bsbs, lib, target.gates);
        benchmark::DoNotOptimize(infos);
    }
    state.SetComplexityN(state.range(0));
}
BENCHMARK(bm_analyze_ops_per_bsb)->RangeMultiplier(2)->Range(8, 128)
    ->Complexity(benchmark::oNSquared);

// --- FURO analysis: sweep L with k fixed (expect ~linear) -----------
void bm_analyze_bsb_count(benchmark::State& state)
{
    const auto lib = hw::make_default_library();
    const auto target = hw::make_default_target(10000.0);
    const auto bsbs = make_bsbs(static_cast<int>(state.range(0)), 24);
    for (auto _ : state) {
        auto infos = core::analyze(bsbs, lib, target.gates);
        benchmark::DoNotOptimize(infos);
    }
    state.SetComplexityN(state.range(0));
}
BENCHMARK(bm_analyze_bsb_count)->RangeMultiplier(2)->Range(2, 64)
    ->Complexity(benchmark::oN);

// --- the allocation loop (post-analysis) -----------------------------
void bm_allocator(benchmark::State& state)
{
    const auto lib = hw::make_default_library();
    const auto target = hw::make_default_target(20000.0);
    const auto bsbs = make_bsbs(static_cast<int>(state.range(0)), 16);
    const core::Allocator allocator(lib, target);
    const auto infos = core::analyze(bsbs, lib, target.gates);
    for (auto _ : state) {
        auto r = allocator.run_analyzed(infos,
                                        {.area_budget = 20000.0});
        benchmark::DoNotOptimize(r);
    }
}
BENCHMARK(bm_allocator)->RangeMultiplier(2)->Range(2, 32);

// --- PACE DP vs brute force -----------------------------------------
std::vector<pace::Bsb_cost> random_costs(int n)
{
    util::Rng rng(7);
    std::vector<pace::Bsb_cost> costs;
    for (int i = 0; i < n; ++i) {
        pace::Bsb_cost c;
        c.t_sw = rng.uniform_real(100.0, 5000.0);
        c.t_hw = rng.uniform_real(50.0, 2000.0);
        c.comm = rng.uniform_real(0.0, 100.0);
        c.save_prev = i > 0 ? rng.uniform_real(0.0, c.comm) : 0.0;
        c.ctrl_area = rng.uniform_int(1, 60);
        costs.push_back(c);
    }
    return costs;
}

void bm_pace_dp(benchmark::State& state)
{
    const auto costs = random_costs(static_cast<int>(state.range(0)));
    for (auto _ : state) {
        auto r = pace::pace_partition(costs, {.ctrl_area_budget = 300.0,
                                              .area_quantum = 1.0});
        benchmark::DoNotOptimize(r);
    }
}
BENCHMARK(bm_pace_dp)->RangeMultiplier(2)->Range(4, 64);

// Same DP with caller-owned buffers — the search hot loop's
// configuration (one workspace per worker, reused across points).
void bm_pace_dp_workspace(benchmark::State& state)
{
    const auto costs = random_costs(static_cast<int>(state.range(0)));
    pace::Pace_workspace ws;
    for (auto _ : state) {
        auto r = pace::pace_partition(
            costs, {.ctrl_area_budget = 300.0, .area_quantum = 1.0}, &ws);
        benchmark::DoNotOptimize(r);
    }
}
BENCHMARK(bm_pace_dp_workspace)->RangeMultiplier(2)->Range(4, 64);

// Value-only screening DP: optimal saving without the traceback (what
// the branch-and-bound search runs on every surviving candidate).
void bm_pace_best_saving(benchmark::State& state)
{
    const auto costs = random_costs(static_cast<int>(state.range(0)));
    pace::Pace_workspace ws;
    for (auto _ : state) {
        auto s = pace::pace_best_saving(
            costs, {.ctrl_area_budget = 300.0, .area_quantum = 1.0}, &ws);
        benchmark::DoNotOptimize(s);
    }
}
BENCHMARK(bm_pace_best_saving)->RangeMultiplier(2)->Range(4, 64);

// Incremental DP: neighbouring cost vectors through one checkpointing
// workspace.  Mutating the LAST BSB's cost resumes the sweep at the
// final row (the search-tree locality case); mutating the FIRST BSB
// forces a full restart and so measures the checkpointing overhead
// alone (rows are written straight into the checkpoint arena, so it
// should track bm_pace_best_saving).
void bm_pace_incremental(benchmark::State& state, std::size_t mutate_at)
{
    auto costs = random_costs(static_cast<int>(state.range(0)));
    mutate_at = std::min(mutate_at, costs.size() - 1);
    pace::Pace_workspace ws;
    const pace::Pace_options opts{.ctrl_area_budget = 300.0,
                                  .area_quantum = 1.0};
    // Alternate between two distinct values so every iteration
    // actually diverges at `mutate_at` (a repeated value would match
    // the checkpoint and measure a full resume instead).
    const double base = costs[mutate_at].t_sw;
    double bump = 1.0;
    for (auto _ : state) {
        bump = bump == 1.0 ? 2.0 : 1.0;
        costs[mutate_at].t_sw = base + bump;
        auto s = pace::pace_best_saving(costs, opts, &ws);
        benchmark::DoNotOptimize(s);
    }
}
void bm_pace_incremental_resume(benchmark::State& state)
{
    bm_pace_incremental(state, 1u << 20);  // clamped to the last BSB
}
void bm_pace_incremental_cold(benchmark::State& state)
{
    bm_pace_incremental(state, 0);
}
BENCHMARK(bm_pace_incremental_resume)->RangeMultiplier(2)->Range(4, 64);
BENCHMARK(bm_pace_incremental_cold)->RangeMultiplier(2)->Range(4, 64);

// --- two-ASIC DP: dense reference vs sparse/workspace ---------------
std::vector<pace::Multi_bsb_cost> random_multi_costs(int n)
{
    const auto c0 = random_costs(n);
    util::Rng rng(13);
    std::vector<pace::Multi_bsb_cost> costs(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
        auto& m = costs[static_cast<std::size_t>(i)];
        m.t_sw = c0[static_cast<std::size_t>(i)].t_sw;
        m.hw[0] = c0[static_cast<std::size_t>(i)];
        m.hw[1] = c0[static_cast<std::size_t>(i)];
        m.hw[1].t_hw = rng.uniform_real(50.0, 2000.0);
        m.hw[1].ctrl_area = rng.uniform_int(1, 60);
    }
    return costs;
}

void bm_multi_pace_dense(benchmark::State& state)
{
    const auto costs = random_multi_costs(static_cast<int>(state.range(0)));
    const pace::Multi_pace_options opts{.ctrl_area_budgets = {300.0, 300.0},
                                        .area_quantum = 1.0};
    for (auto _ : state) {
        auto r = pace::multi_pace_partition_reference(costs, opts);
        benchmark::DoNotOptimize(r);
    }
}
void bm_multi_pace_sparse(benchmark::State& state)
{
    const auto costs = random_multi_costs(static_cast<int>(state.range(0)));
    const pace::Multi_pace_options opts{.ctrl_area_budgets = {300.0, 300.0},
                                        .area_quantum = 1.0};
    pace::Multi_pace_workspace ws;
    for (auto _ : state) {
        auto r = pace::multi_pace_partition(costs, opts, &ws);
        benchmark::DoNotOptimize(r);
    }
}
void bm_multi_pace_screen(benchmark::State& state)
{
    const auto costs = random_multi_costs(static_cast<int>(state.range(0)));
    const pace::Multi_pace_options opts{.ctrl_area_budgets = {300.0, 300.0},
                                        .area_quantum = 1.0};
    pace::Multi_pace_workspace ws;
    for (auto _ : state) {
        auto s = pace::multi_pace_best_saving(costs, opts, &ws);
        benchmark::DoNotOptimize(s);
    }
}
BENCHMARK(bm_multi_pace_dense)->RangeMultiplier(2)->Range(4, 32);
BENCHMARK(bm_multi_pace_sparse)->RangeMultiplier(2)->Range(4, 32);
BENCHMARK(bm_multi_pace_screen)->RangeMultiplier(2)->Range(4, 32);

void bm_pace_brute_force(benchmark::State& state)
{
    const auto costs = random_costs(static_cast<int>(state.range(0)));
    for (auto _ : state) {
        auto r = pace::brute_force_partition(costs, 300.0);
        benchmark::DoNotOptimize(r);
    }
}
BENCHMARK(bm_pace_brute_force)->DenseRange(8, 20, 4);

// --- list scheduling inside the cost model ---------------------------
void bm_cost_model(benchmark::State& state)
{
    const auto lib = hw::make_default_library();
    const auto target = hw::make_default_target(10000.0);
    const auto bsbs = make_bsbs(16, static_cast<int>(state.range(0)));
    core::Rmap alloc;
    for (std::size_t r = 0; r < lib.size(); ++r)
        alloc.set(static_cast<hw::Resource_id>(r), 1);
    for (auto _ : state) {
        auto costs = pace::build_cost_model(
            bsbs, lib, target, alloc, pace::Controller_mode::optimistic_eca);
        benchmark::DoNotOptimize(costs);
    }
}
BENCHMARK(bm_cost_model)->RangeMultiplier(2)->Range(8, 64);

// --- old vs new: list scheduler implementations ----------------------
template <typename Scheduler>
void bm_list_schedule(benchmark::State& state, Scheduler schedule)
{
    const auto lib = hw::make_default_library();
    util::Rng rng(42);
    apps::Random_app_params p;
    const auto g =
        apps::random_dfg(rng, static_cast<int>(state.range(0)), p);
    const std::vector<int> counts(lib.size(), 1);  // scarce: stretched
    for (auto _ : state) {
        auto s = schedule(g, lib, counts);
        benchmark::DoNotOptimize(s);
    }
    state.SetComplexityN(state.range(0));
}
void bm_list_schedule_naive(benchmark::State& state)
{
    bm_list_schedule(state, &sched::list_schedule_naive);
}
void bm_list_schedule_event(benchmark::State& state)
{
    bm_list_schedule(state, [](const dfg::Dfg& g, const hw::Hw_library& lib,
                               std::span<const int> counts) {
        return sched::list_schedule(g, lib, counts);
    });
}
BENCHMARK(bm_list_schedule_naive)->RangeMultiplier(2)->Range(16, 256);
BENCHMARK(bm_list_schedule_event)->RangeMultiplier(2)->Range(16, 256);

// --- old vs new: uncached vs memoized allocation evaluation ----------
void bm_evaluate_allocation(benchmark::State& state, bool cached)
{
    const auto lib = hw::make_default_library();
    const auto target = hw::make_default_target(20000.0);
    const auto bsbs = make_bsbs(16, static_cast<int>(state.range(0)));
    const search::Eval_context ctx{bsbs, lib, target,
                                   pace::Controller_mode::list_schedule,
                                   target.asic.total_area / 512.0};
    search::Eval_cache cache(ctx);
    // Alternate between two neighbouring allocations: the hill-climb
    // access pattern the memo is built for.
    core::Rmap a;
    for (std::size_t r = 0; r < lib.size(); ++r)
        a.set(static_cast<hw::Resource_id>(r), 1);
    core::Rmap b = a;
    b.set(0, 2);
    bool flip = false;
    for (auto _ : state) {
        auto ev = search::evaluate_allocation(ctx, flip ? a : b,
                                              cached ? &cache : nullptr);
        benchmark::DoNotOptimize(ev);
        flip = !flip;
    }
}
void bm_evaluate_uncached(benchmark::State& state)
{
    bm_evaluate_allocation(state, false);
}
void bm_evaluate_cached(benchmark::State& state)
{
    bm_evaluate_allocation(state, true);
}
BENCHMARK(bm_evaluate_uncached)->RangeMultiplier(2)->Range(8, 64);
BENCHMARK(bm_evaluate_cached)->RangeMultiplier(2)->Range(8, 64);

}  // namespace

BENCHMARK_MAIN();

// Tests for search: allocation-space enumeration, the exhaustive_bb
// and hill_climb strategies, and the evaluation cache.
#include <gtest/gtest.h>

#include <limits>
#include <string_view>

#include "apps/random_app.hpp"
#include "core/allocator.hpp"
#include "hw/target.hpp"
#include "search/alloc_space.hpp"
#include "search/eval_cache.hpp"
#include "sched/list_scheduler.hpp"
#include "solver/solver.hpp"
#include "support/list_schedule_naive.hpp"
#include "util/rng.hpp"

namespace lc = lycos::core;
namespace lh = lycos::hw;
namespace lb = lycos::bsb;
namespace lse = lycos::search;
namespace lso = lycos::solver;
using lh::Op_kind;

namespace {

lh::Hw_library small_library()
{
    lh::Hw_library lib;
    lib.add({"adder", {Op_kind::add}, 100.0, 1});
    lib.add({"multiplier", {Op_kind::mul}, 500.0, 2});
    return lib;
}

std::vector<lb::Bsb> small_app()
{
    std::vector<lb::Bsb> bsbs;
    lb::Bsb hot;
    for (int i = 0; i < 3; ++i)
        hot.graph.add_op(Op_kind::mul);
    for (int i = 0; i < 2; ++i)
        hot.graph.add_op(Op_kind::add);
    hot.profile = 100.0;
    bsbs.push_back(std::move(hot));
    lb::Bsb cold;
    cold.graph.add_op(Op_kind::add);
    cold.graph.add_op(Op_kind::add);
    cold.profile = 2.0;
    bsbs.push_back(std::move(cold));
    return bsbs;
}

/// The search problem over `bounds` under `ctx`'s evaluation settings.
lso::Problem problem_over(const lse::Eval_context& ctx, const lc::Rmap& bounds)
{
    return {.bsbs = ctx.bsbs,
            .lib = &ctx.lib,
            .target = ctx.target,
            .restrictions = bounds,
            .ctrl_mode = ctx.ctrl_mode,
            .area_quantum = ctx.area_quantum};
}

/// One solve on a fresh Session, so no run inherits another's warm
/// cache or DP checkpoints.
lso::Solve_result solve(const lse::Eval_context& ctx, const lc::Rmap& bounds,
                        std::string_view strategy,
                        const lso::Solve_options& options = {})
{
    lso::Session session(problem_over(ctx, bounds));
    return session.solve(strategy, options);
}

/// Hill-climb options: `n_restarts` climbs of at most `max_steps`
/// steps, start points drawn from `seed`.
lso::Solve_options climb(int n_restarts, int max_steps, std::uint64_t seed,
                         int n_threads = 0, bool use_proxy_screen = true)
{
    lso::Solve_options options;
    options.n_threads = n_threads;
    options.use_pruning = use_proxy_screen;
    options.extras = lso::Hill_climb_extras{
        .n_restarts = n_restarts, .max_steps = max_steps, .seed = seed};
    return options;
}

}  // namespace

TEST(AllocSpace, size_is_product_of_bounds)
{
    const auto lib = small_library();
    lc::Rmap bounds;
    bounds.set(0, 2);
    bounds.set(1, 3);
    const lse::Alloc_space space(lib, bounds);
    EXPECT_EQ(space.size(), 3 * 4);
}

TEST(AllocSpace, enumerates_every_point_once)
{
    const auto lib = small_library();
    lc::Rmap bounds;
    bounds.set(0, 2);
    bounds.set(1, 1);
    const lse::Alloc_space space(lib, bounds);

    std::vector<lc::Rmap> seen;
    space.for_each(1e18, [&](const lc::Rmap& a) {
        seen.push_back(a);
        return true;
    });
    ASSERT_EQ(seen.size(), 6u);
    for (std::size_t i = 0; i < seen.size(); ++i)
        for (std::size_t j = i + 1; j < seen.size(); ++j)
            EXPECT_FALSE(seen[i] == seen[j]) << "duplicate point";
}

TEST(AllocSpace, area_pruning_skips_large_points)
{
    const auto lib = small_library();
    lc::Rmap bounds;
    bounds.set(0, 1);  // adder, 100 each
    bounds.set(1, 1);  // multiplier, 500 each
    const lse::Alloc_space space(lib, bounds);
    int visited = 0;
    space.for_each(150.0, [&](const lc::Rmap&) {
        ++visited;
        return true;
    });
    // {}, {adder} fit; {mult}, {adder,mult} do not.
    EXPECT_EQ(visited, 2);
}

TEST(AllocSpace, early_stop)
{
    const auto lib = small_library();
    lc::Rmap bounds;
    bounds.set(0, 5);
    const lse::Alloc_space space(lib, bounds);
    int visited = 0;
    space.for_each(1e18, [&](const lc::Rmap&) {
        ++visited;
        return visited < 3;
    });
    EXPECT_EQ(visited, 3);
}

TEST(AllocSpace, nth_round_trip)
{
    const auto lib = small_library();
    lc::Rmap bounds;
    bounds.set(0, 2);
    bounds.set(1, 2);
    const lse::Alloc_space space(lib, bounds);

    std::vector<lc::Rmap> seen;
    space.for_each(1e18, [&](const lc::Rmap& a) {
        seen.push_back(a);
        return true;
    });
    ASSERT_EQ(seen.size(), static_cast<std::size_t>(space.size()));
    for (long long i = 0; i < space.size(); ++i)
        EXPECT_EQ(space.nth(i), seen[static_cast<std::size_t>(i)]);
    EXPECT_THROW(space.nth(-1), std::out_of_range);
    EXPECT_THROW(space.nth(space.size()), std::out_of_range);
}

TEST(Exhaustive, finds_at_least_the_allocator_result)
{
    const auto lib = small_library();
    const auto target = lh::make_default_target(3000.0);
    const auto bsbs = small_app();

    const lc::Allocator alloc(lib, target);
    const auto heuristic =
        alloc.run(bsbs, {.area_budget = target.asic.total_area});

    const lse::Eval_context ctx{bsbs, lib, target,
                                lycos::pace::Controller_mode::optimistic_eca,
                                1.0};
    const auto heuristic_eval =
        lse::evaluate_allocation(ctx, heuristic.allocation);

    lc::Rmap bounds;
    bounds.set(0, 2);
    bounds.set(1, 3);
    const auto best = solve(ctx, bounds, "exhaustive_bb");

    EXPECT_GE(best.best.speedup_pct(), heuristic_eval.speedup_pct() - 1e-9);
    EXPECT_GT(best.n_evaluated, 0);
    EXPECT_EQ(best.space_size, 12);
}

TEST(AllocSpace, size_saturates_instead_of_overflowing)
{
    lh::Hw_library lib;
    for (int i = 0; i < 5; ++i)
        lib.add({"unit" + std::to_string(i), {Op_kind::add}, 10.0, 1});
    lc::Rmap bounds;
    for (int i = 0; i < 5; ++i)
        bounds.set(i, std::numeric_limits<int>::max());
    const lse::Alloc_space space(lib, bounds);
    // (2^31)^5 is far beyond 2^63: the size must clamp, not wrap.
    EXPECT_EQ(space.size(), std::numeric_limits<long long>::max());

    // Enumerating a prefix of such a space must not overflow the
    // per-dimension radix (bound + 1 with bound == INT_MAX).
    int visited = 0;
    space.for_each_range(0, 3, 1e18, [&](const lc::Rmap& a) {
        EXPECT_EQ(a(0), visited);
        ++visited;
        return true;
    });
    EXPECT_EQ(visited, 3);
}

TEST(AllocSpace, range_chunks_concatenate_to_full_enumeration)
{
    const auto lib = small_library();
    lc::Rmap bounds;
    bounds.set(0, 3);
    bounds.set(1, 2);
    const lse::Alloc_space space(lib, bounds);

    std::vector<lc::Rmap> full;
    space.for_each(1e18, [&](const lc::Rmap& a) {
        full.push_back(a);
        return true;
    });

    std::vector<lc::Rmap> chunked;
    const long long cuts[] = {0, 3, 4, 9, space.size()};
    for (std::size_t c = 0; c + 1 < std::size(cuts); ++c)
        space.for_each_range(cuts[c], cuts[c + 1], 1e18,
                             [&](const lc::Rmap& a) {
                                 chunked.push_back(a);
                                 return true;
                             });
    EXPECT_EQ(chunked, full);
    EXPECT_THROW(space.for_each_range(-1, 2, 1e18, [](const lc::Rmap&) {
        return true;
    }),
                 std::out_of_range);
    EXPECT_THROW(space.for_each_range(0, space.size() + 1, 1e18,
                                      [](const lc::Rmap&) { return true; }),
                 std::out_of_range);
}

TEST(Exhaustive, parallel_and_cached_match_sequential_uncached)
{
    const auto lib = small_library();
    const auto target = lh::make_default_target(3000.0);
    const auto bsbs = small_app();
    const lse::Eval_context ctx{bsbs, lib, target,
                                lycos::pace::Controller_mode::optimistic_eca,
                                1.0};
    lc::Rmap bounds;
    bounds.set(0, 2);
    bounds.set(1, 3);

    const auto reference = solve(
        ctx, bounds, "exhaustive_bb",
        {.n_threads = 1, .use_cache = false, .use_pruning = false});
    for (int n_threads : {1, 2, 3, 7}) {
        for (bool use_cache : {false, true}) {
            for (bool use_pruning : {false, true}) {
                const auto r = solve(
                    ctx, bounds, "exhaustive_bb",
                    {.n_threads = n_threads, .use_cache = use_cache,
                     .use_pruning = use_pruning});
                EXPECT_EQ(r.best.datapath, reference.best.datapath);
                EXPECT_EQ(r.best.partition.time_hybrid_ns,
                          reference.best.partition.time_hybrid_ns);
                EXPECT_EQ(r.best.datapath_area, reference.best.datapath_area);
                if (use_pruning) {
                    // Branch-and-bound may skip a chunking-dependent
                    // number of points, but every point must be either
                    // scored or provably pruned.
                    EXPECT_EQ(r.n_evaluated + r.n_pruned, r.space_size);
                    EXPECT_LE(r.n_evaluated, reference.n_evaluated);
                }
                else {
                    EXPECT_EQ(r.n_evaluated, reference.n_evaluated);
                    EXPECT_EQ(r.n_pruned, 0);
                }
                if (use_cache && !use_pruning)
                    EXPECT_EQ(r.cache_stats.hits + r.cache_stats.misses,
                              r.n_evaluated *
                                  static_cast<long long>(bsbs.size()));
            }
        }
    }
}

TEST(Exhaustive, empty_restrictions_single_point)
{
    const auto lib = small_library();
    const auto target = lh::make_default_target(3000.0);
    const auto bsbs = small_app();
    const lse::Eval_context ctx{bsbs, lib, target,
                                lycos::pace::Controller_mode::optimistic_eca,
                                1.0};
    const auto r = solve(ctx, lc::Rmap{}, "exhaustive_bb");
    EXPECT_EQ(r.space_size, 1);
    EXPECT_EQ(r.n_evaluated, 1);
    // Empty allocation: nothing in hardware, zero speedup.
    EXPECT_DOUBLE_EQ(r.best.speedup_pct(), 0.0);
}

TEST(HillClimb, never_beats_exhaustive_and_is_deterministic)
{
    const auto lib = small_library();
    const auto target = lh::make_default_target(3000.0);
    const auto bsbs = small_app();
    const lse::Eval_context ctx{bsbs, lib, target,
                                lycos::pace::Controller_mode::optimistic_eca,
                                1.0};
    lc::Rmap bounds;
    bounds.set(0, 2);
    bounds.set(1, 3);

    const auto exhaustive = solve(ctx, bounds, "exhaustive_bb");

    const auto hc1 = solve(ctx, bounds, "hill_climb", climb(6, 256, 123));
    const auto hc2 = solve(ctx, bounds, "hill_climb", climb(6, 256, 123));

    EXPECT_LE(hc1.best.speedup_pct(), exhaustive.best.speedup_pct() + 1e-9);
    EXPECT_EQ(hc1.best.datapath, hc2.best.datapath);  // deterministic

    // On this tiny space the climber should actually find the optimum.
    EXPECT_NEAR(hc1.best.speedup_pct(), exhaustive.best.speedup_pct(), 1e-6);
}

// The branch-and-bound contract on randomized spaces: the pruned
// search at any thread count and the cached unpruned search return
// the identical best (time, area, datapath) tuple as an uncached,
// unpruned one-thread solve.  The cost model is a pure function of
// each BSB's schedule, so checking that the production scheduler
// equals the cycle-stepping oracle on every BSB at every point of the
// space makes the reference the naive-scheduler answer too.
TEST(Exhaustive, pruned_unpruned_and_naive_agree_on_random_spaces)
{
    lycos::util::Rng rng(2026);
    const auto lib = lycos::hw::make_default_library();
    for (int trial = 0; trial < 6; ++trial) {
        lycos::apps::Random_app_params params;
        params.n_bsbs = rng.uniform_int(2, 5);
        params.min_ops = 4;
        params.max_ops = 16;
        const auto bsbs = lycos::apps::random_bsbs(rng, params);
        const double area = 500.0 * rng.uniform_int(2, 12);
        const auto target = lycos::hw::make_default_target(area);

        lc::Rmap bounds;
        const int n_dims = rng.uniform_int(2, 4);
        for (int d = 0; d < n_dims; ++d)
            bounds.set(rng.uniform_int(0, static_cast<int>(lib.size()) - 1),
                       rng.uniform_int(1, 2));

        const lse::Eval_context ctx{
            bsbs, lib, target, lycos::pace::Controller_mode::list_schedule,
            area / 64.0};
        const lse::Alloc_space space(lib, bounds);
        for (long long i = 0; i < space.size(); ++i) {
            const auto counts = space.nth(i).dense_counts(lib);
            for (const auto& b : bsbs) {
                const auto fast = lycos::sched::list_schedule(b.graph, lib,
                                                              counts);
                const auto naive =
                    lycos::sched::list_schedule_naive(b.graph, lib, counts);
                ASSERT_EQ(fast.feasible, naive.feasible)
                    << "trial " << trial << ", point " << i;
                EXPECT_EQ(fast.length, naive.length);
                EXPECT_EQ(fast.start, naive.start);
                EXPECT_EQ(fast.resource, naive.resource);
            }
        }

        const auto reference = solve(
            ctx, bounds, "exhaustive_bb",
            {.n_threads = 1, .use_cache = false, .use_pruning = false});
        const auto unpruned = solve(
            ctx, bounds, "exhaustive_bb",
            {.n_threads = 1, .use_cache = true, .use_pruning = false});
        for (int n_threads : {1, 2, 5}) {
            const auto pruned = solve(
                ctx, bounds, "exhaustive_bb",
                {.n_threads = n_threads, .use_cache = true,
                 .use_pruning = true});
            EXPECT_EQ(pruned.best.datapath, reference.best.datapath)
                << "trial " << trial << ", " << n_threads << " threads";
            EXPECT_EQ(pruned.best.partition.time_hybrid_ns,
                      reference.best.partition.time_hybrid_ns);
            EXPECT_EQ(pruned.best.datapath_area,
                      reference.best.datapath_area);
            EXPECT_EQ(pruned.n_evaluated + pruned.n_pruned,
                      pruned.space_size);
        }
        EXPECT_EQ(unpruned.best.datapath, reference.best.datapath);
        EXPECT_EQ(unpruned.best.partition.time_hybrid_ns,
                  reference.best.partition.time_hybrid_ns);
    }
}

// Regression: the gain bound's hardware-time floor must use each op
// kind's MINIMUM latency over all executors.  With a library whose
// cheapest-by-area unit is the slow one (a fast-but-large variant
// exists), a floor built from the area-cheapest latency would
// overestimate hardware time and prune the true optimum.
TEST(Exhaustive, pruning_safe_with_fast_but_large_variants)
{
    lh::Hw_library lib;
    lib.add({"mul_slow", {Op_kind::mul}, 120.0, 4});  // area-cheapest
    lib.add({"mul_fast", {Op_kind::mul}, 700.0, 1});  // latency-cheapest
    lib.add({"adder", {Op_kind::add}, 100.0, 1});

    lycos::util::Rng rng(41);
    for (int trial = 0; trial < 4; ++trial) {
        lycos::apps::Random_app_params params;
        params.n_bsbs = rng.uniform_int(2, 4);
        params.min_ops = 6;
        params.max_ops = 24;
        params.kinds = {Op_kind::mul, Op_kind::add};
        const auto bsbs = lycos::apps::random_bsbs(rng, params);
        const auto target =
            lh::make_default_target(500.0 * rng.uniform_int(3, 10));

        lc::Rmap bounds;
        bounds.set(0, 2);  // mul_slow
        bounds.set(1, 2);  // mul_fast
        bounds.set(2, 2);  // adder

        const lse::Eval_context ctx{
            bsbs, lib, target, lycos::pace::Controller_mode::list_schedule,
            target.asic.total_area / 64.0};
        const auto unpruned = solve(
            ctx, bounds, "exhaustive_bb",
            {.n_threads = 1, .use_cache = true, .use_pruning = false});
        const auto pruned = solve(
            ctx, bounds, "exhaustive_bb",
            {.n_threads = 1, .use_cache = true, .use_pruning = true});
        EXPECT_EQ(pruned.best.datapath, unpruned.best.datapath)
            << "trial " << trial;
        EXPECT_EQ(pruned.best.partition.time_hybrid_ns,
                  unpruned.best.partition.time_hybrid_ns);
        EXPECT_EQ(pruned.best.datapath_area, unpruned.best.datapath_area);
    }
}

// Incremental-DP observability: the pruned search reports checkpoint
// reuse, and the counters cover exactly the rows its DP sweeps ran.
TEST(Exhaustive, incremental_dp_reuses_rows)
{
    const auto lib = lycos::hw::make_default_library();
    lycos::util::Rng rng(11);
    lycos::apps::Random_app_params params;
    params.n_bsbs = 6;
    params.min_ops = 8;
    params.max_ops = 24;
    const auto bsbs = lycos::apps::random_bsbs(rng, params);
    const auto target = lycos::hw::make_default_target(6000.0);
    const lse::Eval_context ctx{
        bsbs, lib, target, lycos::pace::Controller_mode::list_schedule,
        target.asic.total_area / 256.0};

    lc::Rmap bounds;
    bounds.set(0, 2);
    bounds.set(1, 2);
    bounds.set(2, 2);

    const auto reference = solve(
        ctx, bounds, "exhaustive_bb",
        {.n_threads = 1, .use_cache = true, .use_pruning = false});
    const auto pruned = solve(
        ctx, bounds, "exhaustive_bb",
        {.n_threads = 1, .use_cache = true, .use_pruning = true});
    EXPECT_EQ(pruned.best.datapath, reference.best.datapath);
    EXPECT_EQ(pruned.best.partition.time_hybrid_ns,
              reference.best.partition.time_hybrid_ns);
    EXPECT_GT(pruned.dp_rows_swept, 0);
    EXPECT_GT(pruned.dp_rows_reused, 0);
    // The unpruned walk runs exactly one full DP per evaluated point
    // (no screening), so its counters account for n_bsbs rows each.
    EXPECT_EQ(reference.dp_rows_swept + reference.dp_rows_reused,
              reference.n_evaluated *
                  static_cast<long long>(bsbs.size()));
}

// A bounded cache evicts instead of growing without limit, and the
// best tuple is bit-identical to the unbounded search.
TEST(Exhaustive, bounded_cache_matches_and_evicts)
{
    const auto lib = lycos::hw::make_default_library();
    lycos::util::Rng rng(13);
    lycos::apps::Random_app_params params;
    params.n_bsbs = 5;
    params.min_ops = 8;
    params.max_ops = 20;
    const auto bsbs = lycos::apps::random_bsbs(rng, params);
    const auto target = lycos::hw::make_default_target(5000.0);
    const lse::Eval_context ctx{
        bsbs, lib, target, lycos::pace::Controller_mode::list_schedule,
        target.asic.total_area / 128.0};

    lc::Rmap bounds;
    bounds.set(0, 2);
    bounds.set(1, 2);
    bounds.set(2, 1);

    const auto unbounded = solve(
        ctx, bounds, "exhaustive_bb",
        {.n_threads = 1, .use_cache = true, .use_pruning = false});
    for (const std::size_t cap : {2u, 8u}) {
        for (const bool pruning : {false, true}) {
            const auto capped = solve(
                ctx, bounds, "exhaustive_bb",
                {.n_threads = 1, .use_cache = true, .use_pruning = pruning,
                 .cache_capacity = cap});
            EXPECT_EQ(capped.best.datapath, unbounded.best.datapath)
                << "cap " << cap << " pruning " << pruning;
            EXPECT_EQ(capped.best.partition.time_hybrid_ns,
                      unbounded.best.partition.time_hybrid_ns);
            EXPECT_EQ(capped.best.datapath_area,
                      unbounded.best.datapath_area);
            if (!pruning && cap == 2)
                EXPECT_GT(capped.cache_stats.evictions, 0);
        }
    }
}

// Eval_cache unit behavior under a capacity: entries stay bounded by
// two generations, evicted entries recompute to the same values, and
// find_one never schedules.
TEST(EvalCache, segmented_eviction_is_bounded_and_consistent)
{
    const auto lib = small_library();
    const auto target = lh::make_default_target(3000.0);
    const auto bsbs = small_app();
    const lse::Eval_context ctx{bsbs, lib, target,
                                lycos::pace::Controller_mode::optimistic_eca,
                                1.0};
    const std::size_t cap = 4;
    lse::Eval_cache capped(ctx, cap);
    lse::Eval_cache fresh(ctx);
    EXPECT_EQ(capped.capacity(), cap);

    std::vector<int> counts(lib.size(), 0);
    // find_one on an unseen projection: nothing computed, no miss.
    EXPECT_EQ(capped.find_one(0, counts), nullptr);
    EXPECT_EQ(capped.stats().misses, 0);

    for (int c0 = 0; c0 <= 4; ++c0) {
        for (int c1 = 0; c1 <= 4; ++c1) {
            counts[0] = c0;
            counts[1] = c1;
            for (std::size_t b = 0; b < bsbs.size(); ++b) {
                const auto got = capped.cost_one(b, counts);
                const auto want = fresh.cost_one(b, counts);
                EXPECT_EQ(got.t_hw, want.t_hw);
                EXPECT_EQ(got.ctrl_area, want.ctrl_area);
                // Now memoized: find_one sees it.
                EXPECT_NE(capped.find_one(b, counts), nullptr);
            }
            EXPECT_LE(capped.entries(), 2 * cap);
        }
    }
    EXPECT_GT(capped.stats().evictions, 0);

    // Re-querying an evicted projection schedules again — and lands on
    // the same cost the unbounded cache still remembers.
    counts[0] = 0;
    counts[1] = 0;
    const auto miss_before = capped.stats().misses;
    const auto recomputed = capped.cost_one(0, counts);
    const auto remembered = fresh.cost_one(0, counts);
    EXPECT_GT(capped.stats().misses, miss_before);
    EXPECT_EQ(recomputed.t_hw, remembered.t_hw);
    EXPECT_EQ(recomputed.ctrl_area, remembered.ctrl_area);
}

TEST(HillClimb, parallel_matches_sequential_for_any_thread_count)
{
    const auto lib = lh::make_default_library();
    lycos::util::Rng app_rng(77);
    lycos::apps::Random_app_params params;
    params.n_bsbs = 4;
    params.min_ops = 6;
    params.max_ops = 20;
    const auto bsbs = lycos::apps::random_bsbs(app_rng, params);
    const auto target = lh::make_default_target(4000.0);
    const lse::Eval_context ctx{
        bsbs, lib, target, lycos::pace::Controller_mode::list_schedule,
        target.asic.total_area / 64.0};

    lc::Rmap bounds;
    bounds.set(0, 2);
    bounds.set(1, 2);
    bounds.set(2, 1);

    const auto sequential =
        solve(ctx, bounds, "hill_climb", climb(8, 256, 5, 1));

    for (int n_threads : {2, 8}) {
        const auto parallel =
            solve(ctx, bounds, "hill_climb", climb(8, 256, 5, n_threads));
        EXPECT_EQ(parallel.best.datapath, sequential.best.datapath)
            << n_threads << " threads";
        EXPECT_EQ(parallel.best.partition.time_hybrid_ns,
                  sequential.best.partition.time_hybrid_ns);
        EXPECT_EQ(parallel.best.datapath_area,
                  sequential.best.datapath_area);
        // The climb trajectory is thread-count-independent, so the
        // *considered* neighbour count is too; how many of them the
        // proxy screen skipped (n_pruned) vs exactly screened
        // (n_evaluated) depends on each worker's cache state, exactly
        // like the exhaustive walker's proxy determinations.
        EXPECT_EQ(parallel.n_evaluated + parallel.n_pruned,
                  sequential.n_evaluated + sequential.n_pruned);
    }

    // Proxy screening is an optimization, not a search change: with
    // the screen off the climb must land on the identical best tuple
    // (and skip nothing).
    const auto no_proxy =
        solve(ctx, bounds, "hill_climb", climb(8, 256, 5, 1, false));
    EXPECT_EQ(no_proxy.best.datapath, sequential.best.datapath);
    EXPECT_EQ(no_proxy.best.partition.time_hybrid_ns,
              sequential.best.partition.time_hybrid_ns);
    EXPECT_EQ(no_proxy.n_pruned, 0);
    EXPECT_EQ(no_proxy.n_evaluated,
              sequential.n_evaluated + sequential.n_pruned);
}

TEST(Evaluate, oversized_datapath_reports_all_software)
{
    const auto lib = small_library();
    const auto target = lh::make_default_target(400.0);
    const auto bsbs = small_app();
    const lse::Eval_context ctx{bsbs, lib, target,
                                lycos::pace::Controller_mode::optimistic_eca,
                                1.0};
    lc::Rmap too_big;
    too_big.set(1, 2);  // 1000 > 400
    const auto ev = lse::evaluate_allocation(ctx, too_big);
    EXPECT_FALSE(ev.fits);
    EXPECT_DOUBLE_EQ(ev.speedup_pct(), 0.0);
    EXPECT_EQ(ev.partition.n_in_hw, 0);
}

TEST(Evaluate, size_fraction_definition)
{
    const auto lib = small_library();
    const auto target = lh::make_default_target(5000.0);
    const auto bsbs = small_app();
    const lse::Eval_context ctx{bsbs, lib, target,
                                lycos::pace::Controller_mode::optimistic_eca,
                                1.0};
    lc::Rmap a;
    a.set(0, 1);
    a.set(1, 1);
    const auto ev = lse::evaluate_allocation(ctx, a);
    ASSERT_TRUE(ev.fits);
    if (ev.partition.n_in_hw > 0) {
        const double expected =
            ev.datapath_area /
            (ev.datapath_area + ev.partition.ctrl_area_used);
        EXPECT_DOUBLE_EQ(ev.size_fraction(), expected);
    }
}

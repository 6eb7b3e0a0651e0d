// Tests for the lycos::solver session API: the strategy registry, the
// warm-vs-cold equivalence contract (a reused Session must reproduce a
// fresh Session's results bit for bit for any thread count),
// shared-invariants vs per-worker-recompute equivalence, and the
// multi_asic_bb determinism contract (best pair independent of
// chunking, equal to a brute-force pair scan).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <string>
#include <string_view>
#include <utility>

#include "apps/apps.hpp"
#include "apps/random_app.hpp"
#include "core/allocator.hpp"
#include "core/analysis.hpp"
#include "core/restrictions.hpp"
#include "hw/target.hpp"
#include "pace/multi_asic.hpp"
#include "search/alloc_space.hpp"
#include "search/eval_cache.hpp"
#include "solver/solver.hpp"
#include "util/rng.hpp"

namespace lc = lycos::core;
namespace lh = lycos::hw;
namespace lb = lycos::bsb;
namespace lse = lycos::search;
namespace lso = lycos::solver;
namespace lp = lycos::pace;
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

void expect_same_tuple(const lse::Evaluation& a, const lse::Evaluation& b,
                       const char* what)
{
    EXPECT_EQ(a.datapath, b.datapath) << what;
    EXPECT_EQ(a.partition.time_hybrid_ns, b.partition.time_hybrid_ns)
        << what;
    EXPECT_EQ(a.datapath_area, b.datapath_area) << what;
}

lso::Problem random_problem(lycos::util::Rng& rng,
                            const lh::Hw_library& lib,
                            std::vector<lb::Bsb>& bsbs_store,
                            lh::Target& target_store, lc::Rmap& bounds_store)
{
    lycos::apps::Random_app_params params;
    params.n_bsbs = rng.uniform_int(2, 5);
    params.min_ops = 4;
    params.max_ops = 16;
    bsbs_store = lycos::apps::random_bsbs(rng, params);
    target_store =
        lh::make_default_target(500.0 * rng.uniform_int(3, 12));

    bounds_store = {};
    const int n_dims = rng.uniform_int(2, 4);
    for (int d = 0; d < n_dims; ++d)
        bounds_store.set(
            rng.uniform_int(0, static_cast<int>(lib.size()) - 1),
            rng.uniform_int(1, 2));

    lso::Problem p;
    p.bsbs = bsbs_store;
    p.lib = &lib;
    p.target = target_store;
    p.restrictions = bounds_store;
    p.area_quantum = target_store.asic.total_area / 64.0;
    return p;
}

}  // namespace

TEST(Registry, names_and_lookup)
{
    const auto all = lso::strategies();
    ASSERT_EQ(all.size(), 3u);
    EXPECT_EQ(all[0]->name(), "exhaustive_bb");
    EXPECT_EQ(all[1]->name(), "hill_climb");
    EXPECT_EQ(all[2]->name(), "multi_asic_bb");
    for (const auto* s : all) {
        EXPECT_EQ(lso::find_strategy(s->name()), s);
        EXPECT_FALSE(s->description().empty());
    }
    EXPECT_EQ(lso::find_strategy("simulated_annealing"), nullptr);
}

TEST(Session, validates_problem_and_strategy_names)
{
    const auto lib = small_library();
    const auto target = lh::make_default_target(3000.0);
    const auto bsbs = small_app();

    lso::Problem p;
    p.bsbs = bsbs;
    p.lib = nullptr;
    p.target = target;
    EXPECT_THROW(lso::Session{p}, std::invalid_argument);

    p.lib = &lib;
    lso::Session session(p);
    EXPECT_THROW(session.solve("no_such_strategy"), std::invalid_argument);

    // Mismatched extras are a caller bug, not a silent default.
    lso::Solve_options wrong;
    wrong.extras = lso::Multi_asic_extras{};
    EXPECT_THROW(session.solve("hill_climb", wrong), std::invalid_argument);
    wrong.extras = lso::Hill_climb_extras{};
    EXPECT_THROW(session.solve("exhaustive_bb", wrong),
                 std::invalid_argument);
}

TEST(Session, auto_pick_follows_exhaustive_limit)
{
    const auto lib = small_library();
    const auto target = lh::make_default_target(3000.0);
    const auto bsbs = small_app();
    lso::Problem p;
    p.bsbs = bsbs;
    p.lib = &lib;
    p.target = target;
    p.restrictions.set(0, 2);
    p.restrictions.set(1, 3);
    p.area_quantum = 1.0;

    lso::Session session(p);
    EXPECT_EQ(session.space_size(), 12);
    EXPECT_EQ(session.solve().strategy, "exhaustive_bb");
    session.exhaustive_limit = 0;
    EXPECT_EQ(session.solve().strategy, "hill_climb");
}

TEST(Session, rescore_runs_on_warm_cache)
{
    const auto lib = small_library();
    const auto target = lh::make_default_target(3000.0);
    const auto bsbs = small_app();
    lso::Problem p;
    p.bsbs = bsbs;
    p.lib = &lib;
    p.target = target;
    p.restrictions.set(0, 2);
    p.restrictions.set(1, 3);
    p.area_quantum = target.asic.total_area / 16.0;

    lso::Session session(p);
    const auto r = session.solve("exhaustive_bb", {});
    EXPECT_GT(r.cache_stats.hits + r.cache_stats.misses, 0);

    // The fine re-score hits the warm session cache: no new schedules.
    const auto misses_before = session.cache().stats().misses;
    const auto rescored = session.rescore(r.best.datapath);
    EXPECT_EQ(session.cache().stats().misses, misses_before);

    // And it equals a from-scratch fine evaluation bit for bit.
    lse::Eval_context fine = session.context();
    fine.area_quantum = 0.0;
    const auto uncached = lse::evaluate_allocation(fine, r.best.datapath);
    EXPECT_EQ(rescored.partition.time_hybrid_ns,
              uncached.partition.time_hybrid_ns);
    EXPECT_EQ(rescored.datapath_area, uncached.datapath_area);
}

// A reused Session carries a warm cache and warm DP checkpoints from
// its earlier solves; a fresh one starts cold.  Both must land on the
// identical best tuple for any thread count.
TEST(Session, warm_and_cold_solves_agree_any_thread_count)
{
    lycos::util::Rng rng(91);
    const auto lib = lh::make_default_library();
    for (int trial = 0; trial < 4; ++trial) {
        std::vector<lb::Bsb> bsbs;
        lh::Target target;
        lc::Rmap bounds;
        const auto p = random_problem(rng, lib, bsbs, target, bounds);

        lso::Session warm(p);
        for (int n_threads : {1, 2, 5}) {
            lso::Solve_options exh;
            exh.n_threads = n_threads;
            lso::Solve_options hill = exh;
            hill.extras = lso::Hill_climb_extras{
                .n_restarts = 6, .max_steps = 32, .seed = 7};
            for (const auto& [strategy, options] :
                 {std::pair{"exhaustive_bb", exh},
                  std::pair{"hill_climb", hill}}) {
                lso::Session cold(p);
                const auto a = warm.solve(strategy, options);
                const auto b = cold.solve(strategy, options);
                expect_same_tuple(a.best, b.best, strategy);
                EXPECT_EQ(a.space_size, b.space_size);
                // Which points are scored or pruned depends on cache
                // warmth; the considered total is search-determined
                // for the climb (its trajectory is fixed).
                if (std::string_view(strategy) == "hill_climb") {
                    EXPECT_EQ(a.n_evaluated + a.n_pruned,
                              b.n_evaluated + b.n_pruned);
                }
            }
        }
    }
}

// Session-owned shared invariants vs each worker recomputing them:
// the memoized per-BSB costs — and therefore whole searches — must be
// bit-identical.
TEST(Invariants, shared_and_private_caches_agree_bitwise)
{
    const auto lib = lh::make_default_library();
    lycos::util::Rng rng(31);
    lycos::apps::Random_app_params params;
    params.n_bsbs = 5;
    params.min_ops = 6;
    params.max_ops = 24;
    const auto bsbs = lycos::apps::random_bsbs(rng, params);
    const auto target = lh::make_default_target(6000.0);
    const lse::Eval_context ctx{bsbs, lib, target,
                                lp::Controller_mode::list_schedule, 1.0};

    const auto shared =
        std::make_shared<const lse::Eval_invariants>(ctx);
    lse::Eval_cache with_shared(ctx, 0, shared);
    lse::Eval_cache without(ctx);
    EXPECT_EQ(with_shared.invariants().get(), shared.get());
    EXPECT_NE(without.invariants().get(), shared.get());

    std::vector<int> counts(lib.size(), 0);
    for (int c0 = 0; c0 <= 2; ++c0)
        for (int c1 = 0; c1 <= 2; ++c1) {
            counts[0] = c0;
            counts[1] = c1;
            for (std::size_t b = 0; b < bsbs.size(); ++b) {
                const auto& a = with_shared.cost_one(b, counts);
                const auto& e = without.cost_one(b, counts);
                EXPECT_EQ(a.t_hw, e.t_hw);
                EXPECT_EQ(a.ctrl_area, e.ctrl_area);
                EXPECT_EQ(a.t_sw, e.t_sw);
                EXPECT_EQ(a.comm, e.comm);
                EXPECT_EQ(a.save_prev, e.save_prev);
            }
        }

}

// multi_asic_bb determinism + correctness: the best pair tuple is
// independent of thread count / chunking / pruning, and matches a
// brute-force scan over every fitting allocation pair.
TEST(MultiAsicBb, deterministic_and_matches_brute_force)
{
    const auto lib = small_library();
    const auto target = lh::make_default_target(2000.0);
    const auto bsbs = small_app();

    lso::Problem p;
    p.bsbs = bsbs;
    p.lib = &lib;
    p.target = target;
    p.restrictions.set(0, 2);
    p.restrictions.set(1, 2);
    p.area_quantum = 1.0;

    lso::Session session(p);
    const auto reference = session.solve(
        "multi_asic_bb", {.n_threads = 1, .use_pruning = false});
    ASSERT_TRUE(reference.multi.active);
    EXPECT_EQ(reference.n_evaluated, reference.space_size);
    EXPECT_EQ(reference.n_pruned, 0);
    EXPECT_EQ(reference.multi.pairs_skipped, 0);
    EXPECT_EQ(reference.multi.rows_visited, reference.multi.axis_points[0]);

    for (int n_threads : {1, 2, 5}) {
        for (bool use_pruning : {false, true}) {
            for (bool use_row_bound : {false, true}) {
                lso::Solve_options o;
                o.n_threads = n_threads;
                o.use_pruning = use_pruning;
                o.extras =
                    lso::Multi_asic_extras{.use_row_bound = use_row_bound};
                const auto r = session.solve("multi_asic_bb", o);
                EXPECT_EQ(r.multi.datapaths, reference.multi.datapaths)
                    << n_threads << " threads, pruning " << use_pruning
                    << ", row bound " << use_row_bound;
                EXPECT_EQ(r.multi.partition.time_hybrid_ns,
                          reference.multi.partition.time_hybrid_ns);
                EXPECT_EQ(r.multi.partition.placement,
                          reference.multi.partition.placement);
                EXPECT_EQ(r.multi.datapath_area,
                          reference.multi.datapath_area);
                if (use_pruning)
                    EXPECT_EQ(r.n_evaluated + r.n_pruned, r.space_size);
            }
        }
    }

    // Brute force: every pair of fitting allocations, row-major, with
    // uncached cost models — the search's memoized costs must lead to
    // the identical best pair.
    const double half = target.asic.total_area / 2.0;
    std::vector<lc::Rmap> points;
    const lse::Alloc_space space(lib, p.restrictions);
    space.for_each(half, [&](const lc::Rmap& a) {
        points.push_back(a);
        return true;
    });
    ASSERT_EQ(static_cast<long long>(points.size()) *
                  static_cast<long long>(points.size()),
              reference.space_size);

    bool have = false;
    double best_time = 0.0;
    double best_area = 0.0;
    std::array<lc::Rmap, 2> best_pair;
    for (const auto& a0 : points) {
        for (const auto& a1 : points) {
            const auto costs = lp::build_multi_cost_model(
                bsbs, lib, target, a0, a1, p.ctrl_mode);
            lp::Multi_pace_options mo;
            mo.ctrl_area_budgets = {half - a0.area(lib),
                                    half - a1.area(lib)};
            mo.area_quantum = p.area_quantum;
            const auto r = lp::multi_pace_partition(costs, mo);
            const double area_sum = a0.area(lib) + a1.area(lib);
            if (!have || r.time_hybrid_ns < best_time ||
                (r.time_hybrid_ns == best_time && area_sum < best_area)) {
                best_time = r.time_hybrid_ns;
                best_area = area_sum;
                best_pair = {a0, a1};
                have = true;
            }
        }
    }
    EXPECT_EQ(reference.multi.datapaths, best_pair);
    EXPECT_EQ(reference.multi.partition.time_hybrid_ns, best_time);
}

// The pair_limit is a *soft* guard now: a pair space beyond it walks
// exactly the first pair_limit pairs (a0-major order) for any thread
// count and reports the remainder as pairs_skipped — the best pair is
// the brute-force best of that prefix, and nothing throws.
TEST(MultiAsicBb, pair_limit_truncates_deterministically)
{
    const auto lib = small_library();
    const auto target = lh::make_default_target(2000.0);
    const auto bsbs = small_app();

    lso::Problem p;
    p.bsbs = bsbs;
    p.lib = &lib;
    p.target = target;
    p.restrictions.set(0, 2);
    p.restrictions.set(1, 2);
    p.area_quantum = 1.0;

    lso::Session session(p);
    const auto full = session.solve("multi_asic_bb", {.n_threads = 1});
    ASSERT_GT(full.space_size, 4);
    const long long f1 = full.multi.axis_points[1];

    // A limit cutting mid-row: the walked prefix is pairs [0, limit).
    const long long limit = f1 + f1 / 2 + 1;
    lso::Solve_options opts;
    opts.n_threads = 1;
    opts.extras = lso::Multi_asic_extras{.pair_limit = limit};
    const auto prefix = session.solve("multi_asic_bb", opts);
    EXPECT_EQ(prefix.multi.pairs_skipped, full.space_size - limit);
    EXPECT_EQ(prefix.n_evaluated + prefix.n_pruned, limit);
    EXPECT_EQ(prefix.space_size, full.space_size);

    // Brute force over exactly that prefix.
    const double half = target.asic.total_area / 2.0;
    std::vector<lc::Rmap> points;
    const lse::Alloc_space space(lib, p.restrictions);
    space.for_each(half, [&](const lc::Rmap& a) {
        points.push_back(a);
        return true;
    });
    bool have = false;
    double best_time = 0.0;
    double best_area = 0.0;
    std::array<lc::Rmap, 2> best_pair;
    for (long long idx = 0; idx < limit; ++idx) {
        const auto& a0 = points[static_cast<std::size_t>(idx / f1)];
        const auto& a1 = points[static_cast<std::size_t>(idx % f1)];
        const auto costs = lp::build_multi_cost_model(
            bsbs, lib, target, a0, a1, p.ctrl_mode);
        lp::Multi_pace_options mo;
        mo.ctrl_area_budgets = {half - a0.area(lib), half - a1.area(lib)};
        mo.area_quantum = p.area_quantum;
        const auto r = lp::multi_pace_partition(costs, mo);
        const double area_sum = a0.area(lib) + a1.area(lib);
        if (!have || r.time_hybrid_ns < best_time ||
            (r.time_hybrid_ns == best_time && area_sum < best_area)) {
            best_time = r.time_hybrid_ns;
            best_area = area_sum;
            best_pair = {a0, a1};
            have = true;
        }
    }
    EXPECT_EQ(prefix.multi.datapaths, best_pair);
    EXPECT_EQ(prefix.multi.partition.time_hybrid_ns, best_time);

    // Determinism of the truncated walk across thread counts.
    for (int n_threads : {2, 5}) {
        lso::Solve_options o;
        o.n_threads = n_threads;
        o.extras = lso::Multi_asic_extras{.pair_limit = limit};
        const auto r = session.solve("multi_asic_bb", o);
        EXPECT_EQ(r.multi.datapaths, prefix.multi.datapaths) << n_threads;
        EXPECT_EQ(r.multi.partition.time_hybrid_ns,
                  prefix.multi.partition.time_hybrid_ns);
        EXPECT_EQ(r.multi.pairs_skipped, prefix.multi.pairs_skipped);
    }
}

// Exact ties across workers.  At an even split both ASICs share one
// axis, so (x, y) and (y, x) are the same design on swapped labels and
// tie on (time, combined area).  Rows are claimed dynamically and the
// workers share one time-to-beat, so the tied pairs land on different
// workers in a schedule-dependent order; the reduce must still return
// the pair the one-thread enumeration-order scan keeps, and every row
// must be walked exactly once.
TEST(MultiAsicBb, swapped_pair_ties_resolve_to_the_one_thread_pair)
{
    const auto lib = small_library();
    const auto target = lh::make_default_target(3000.0);
    // One multiply-bound and one add-bound hot block: the best design
    // puts the multipliers on one ASIC and the adders on the other.
    // Four cold mixed blocks lengthen each row's DPs, so the workers
    // run side by side and the tied rows land on different workers.
    std::vector<lb::Bsb> bsbs(6);
    for (int i = 0; i < 4; ++i) {
        bsbs[0].graph.add_op(Op_kind::mul);
        bsbs[1].graph.add_op(Op_kind::add);
    }
    bsbs[0].profile = 100.0;
    bsbs[1].profile = 100.0;
    for (std::size_t k = 2; k < bsbs.size(); ++k) {
        bsbs[k].graph.add_op(Op_kind::add);
        bsbs[k].graph.add_op(Op_kind::mul);
        bsbs[k].profile = 1.0;
    }

    lso::Problem p;
    p.bsbs = bsbs;
    p.lib = &lib;
    p.target = target;
    p.restrictions.set(0, 4);
    p.restrictions.set(1, 2);
    p.area_quantum = 1.0;

    lso::Session session(p);
    const auto reference = session.solve(
        "multi_asic_bb", {.n_threads = 1, .use_pruning = false});
    ASSERT_TRUE(reference.have_best);
    const auto& pair = reference.multi.datapaths;
    ASSERT_NE(pair[0], pair[1]);

    // The swapped pair really is an exact tie, and the reference is
    // the lower-indexed of the two.
    const double half = target.asic.total_area / 2.0;
    const auto costs = lp::build_multi_cost_model(bsbs, lib, target, pair[1],
                                                  pair[0], p.ctrl_mode);
    lp::Multi_pace_options mo;
    mo.ctrl_area_budgets = {half - pair[1].area(lib), half - pair[0].area(lib)};
    mo.area_quantum = p.area_quantum;
    ASSERT_EQ(lp::multi_pace_partition(costs, mo).time_hybrid_ns,
              reference.multi.partition.time_hybrid_ns);
    std::vector<lc::Rmap> points;
    const lse::Alloc_space space(lib, p.restrictions);
    space.for_each(half, [&](const lc::Rmap& a) {
        points.push_back(a);
        return true;
    });
    const auto index_of = [&](const lc::Rmap& a) {
        return std::find(points.begin(), points.end(), a) - points.begin();
    };
    ASSERT_LT(index_of(pair[0]), index_of(pair[1]));

    for (const int n_threads : {2, 3, 4, 8}) {
        for (const bool use_pruning : {false, true}) {
            for (const bool use_row_bound : {false, true}) {
                lso::Solve_options o;
                o.n_threads = n_threads;
                o.use_pruning = use_pruning;
                o.extras =
                    lso::Multi_asic_extras{.use_row_bound = use_row_bound};
                for (int rep = 0; rep < 20; ++rep) {
                    const auto r = session.solve("multi_asic_bb", o);
                    const std::string what =
                        std::to_string(n_threads) + " threads, pruning " +
                        std::to_string(use_pruning) + ", row bound " +
                        std::to_string(use_row_bound) + ", rep " +
                        std::to_string(rep);
                    EXPECT_EQ(r.multi.datapaths, pair) << what;
                    EXPECT_EQ(r.multi.partition.placement,
                              reference.multi.partition.placement)
                        << what;
                    EXPECT_EQ(r.multi.partition.time_hybrid_ns,
                              reference.multi.partition.time_hybrid_ns)
                        << what;
                    EXPECT_EQ(r.n_evaluated + r.n_pruned, r.space_size)
                        << what;
                    EXPECT_EQ(r.multi.rows_visited,
                              reference.multi.rows_visited)
                        << what;
                }
            }
        }
    }
}

// The mirror walk starts row i at its diagonal (i, i): a pair with
// the same allocation on both ASICs has no mirror and must be walked.
// Two identical hot blocks whose controllers fit one per ASIC make
// that diagonal pair the unique best design.
TEST(MultiAsicBb, diagonal_best_pair_survives_the_mirror_walk)
{
    const auto lib = small_library();
    std::vector<lb::Bsb> bsbs(2);
    for (auto& b : bsbs) {
        for (int i = 0; i < 4; ++i)
            b.graph.add_op(Op_kind::mul);
        b.graph.add_op(Op_kind::add);
        b.profile = 100.0;
    }
    lso::Problem p;
    p.bsbs = bsbs;
    p.lib = &lib;
    p.target = lh::make_default_target(3000.0);
    p.restrictions.set(0, 2);
    p.restrictions.set(1, 2);
    p.area_quantum = 1.0;

    lso::Session session(p);
    const auto reference = session.solve(
        "multi_asic_bb", {.n_threads = 1, .use_pruning = false});
    ASSERT_TRUE(reference.have_best);
    ASSERT_EQ(reference.multi.datapaths[0], reference.multi.datapaths[1]);
    ASSERT_EQ(reference.multi.partition.n_in_hw, 2);

    for (int n_threads : {1, 2, 4}) {
        const auto r =
            session.solve("multi_asic_bb", {.n_threads = n_threads});
        EXPECT_EQ(r.multi.datapaths, reference.multi.datapaths) << n_threads;
        EXPECT_EQ(r.multi.partition.time_hybrid_ns,
                  reference.multi.partition.time_hybrid_ns)
            << n_threads;
        EXPECT_EQ(r.n_evaluated + r.n_pruned, r.space_size) << n_threads;
    }
}

// The per-a0-row bound must actually kill rows in its home regime — a
// large primary ASIC plus a starved secondary, where a best-case-
// asic1-only completion is weak and rows with unhelpful a0
// allocations are provably dead — while returning exactly the pair
// the flat walk finds, for any thread count.
TEST(MultiAsicBb, row_bound_kills_rows_and_preserves_the_best_pair)
{
    const auto lib = lh::make_default_library();
    auto app = lycos::apps::make_man();
    const auto target = lh::make_default_target(app.asic_area);
    const auto infos = lc::analyze(app.bsbs, lib, target.gates);
    const auto raw = lc::compute_restrictions(infos, lib);
    lc::Rmap bounds;
    for (const auto& [id, b] : raw.entries())
        bounds.set(id, std::min(b, 1));  // keep the pair space small

    lso::Problem p;
    p.bsbs = app.bsbs;
    p.lib = &lib;
    p.target = target;
    p.restrictions = bounds;
    p.area_quantum = app.asic_area / 256.0;
    p.asic_areas = {app.asic_area, 300.0};

    lso::Session session(p);
    lso::Solve_options flat;
    flat.n_threads = 1;
    flat.extras = lso::Multi_asic_extras{.use_row_bound = false};
    const auto reference = session.solve("multi_asic_bb", flat);
    ASSERT_GT(reference.multi.partition.n_in_hw, 0);

    for (int n_threads : {1, 3}) {
        const auto r =
            session.solve("multi_asic_bb", {.n_threads = n_threads});
        EXPECT_GT(r.multi.rows_pruned, 0) << n_threads;
        EXPECT_EQ(r.multi.datapaths, reference.multi.datapaths);
        EXPECT_EQ(r.multi.partition.time_hybrid_ns,
                  reference.multi.partition.time_hybrid_ns);
        EXPECT_EQ(r.multi.partition.placement,
                  reference.multi.partition.placement);
        EXPECT_EQ(r.n_evaluated + r.n_pruned, r.space_size);
        EXPECT_GT(r.multi.dp_states_swept, 0);
        EXPECT_LT(r.multi.dp_states_swept, r.multi.dp_cells_dense);
    }
}

TEST(MultiAsicBb, respects_budgets)
{
    const auto lib = small_library();
    const auto target = lh::make_default_target(2000.0);
    const auto bsbs = small_app();

    lso::Problem p;
    p.bsbs = bsbs;
    p.lib = &lib;
    p.target = target;
    p.restrictions.set(0, 2);
    p.restrictions.set(1, 2);
    p.area_quantum = 1.0;

    // Asymmetric budgets: ASIC1 gets no silicon, so its axis holds
    // only the empty allocation and the best pair leaves it empty.
    lso::Problem lop = p;
    lop.asic_areas = {target.asic.total_area, 0.0};
    lso::Session lopsided(lop);
    const auto r = lopsided.solve("multi_asic_bb", {});
    ASSERT_TRUE(r.multi.active);
    EXPECT_EQ(r.multi.axis_points[1], 1);
    EXPECT_TRUE(r.multi.datapaths[1].empty());
    EXPECT_LE(r.multi.datapath_area[0], target.asic.total_area);
    EXPECT_LE(r.multi.partition.ctrl_area_used[0] +
                  r.multi.datapath_area[0],
              target.asic.total_area + 1e-9);
}

// ------------------------------------------- the axis cost block on straight
//
// straight, the smallest Table 1 app, at its full restrictions: a real
// pair space where the per-solve axis cost block carries every walked
// point.  At 65/35 the asic1 axis is a strict subsequence of the
// asic0 one, so the block's per-axis index vectors are exercised.
// The DP grid is coarser than the benchmark's (1/64 of the area, not
// 1/512) so the unpruned reference walks stay cheap under sanitizers.

namespace {

class Straight {
public:
    Straight()
        : lib_(lh::make_default_library()),
          app_(lycos::apps::make_straight()),
          target_(lh::make_default_target(app_.asic_area)),
          restrictions_(lc::compute_restrictions(
              lc::analyze(app_.bsbs, lib_, target_.gates), lib_))
    {
    }

    /// {0, 0} is the even split.
    lso::Problem problem(std::array<double, 2> split) const
    {
        lso::Problem p;
        p.bsbs = app_.bsbs;
        p.lib = &lib_;
        p.target = target_;
        p.restrictions = restrictions_;
        p.ctrl_mode = lp::Controller_mode::list_schedule;
        p.area_quantum = app_.asic_area / 64.0;
        p.asic_areas = {split[0] * app_.asic_area, split[1] * app_.asic_area};
        return p;
    }

private:
    lh::Hw_library lib_;
    lycos::apps::App app_;
    lh::Target target_;
    lc::Rmap restrictions_;
};

/// The flat reference walk: one thread, no pruning, no row bound.
lso::Solve_options flat_reference_options(long long pair_limit = 0)
{
    lso::Solve_options o;
    o.n_threads = 1;
    o.use_pruning = false;
    o.extras = lso::Multi_asic_extras{.pair_limit = pair_limit,
                                      .use_row_bound = false};
    return o;
}

void expect_same_pair(const lso::Solve_result& r,
                      const lso::Solve_result& reference,
                      const std::string& what)
{
    ASSERT_TRUE(r.have_best) << what;
    EXPECT_EQ(r.multi.datapaths, reference.multi.datapaths) << what;
    EXPECT_EQ(r.multi.datapath_area, reference.multi.datapath_area) << what;
    EXPECT_EQ(r.multi.partition.time_hybrid_ns,
              reference.multi.partition.time_hybrid_ns)
        << what;
    EXPECT_EQ(r.multi.partition.placement, reference.multi.partition.placement)
        << what;
    EXPECT_EQ(r.multi.pairs_skipped, reference.multi.pairs_skipped) << what;
}

}  // namespace

TEST(MultiAsicBb, straight_asymmetric_split_matches_flat_reference)
{
    const Straight straight;
    lso::Session session(straight.problem({0.65, 0.35}));
    const auto reference =
        session.solve("multi_asic_bb", flat_reference_options());
    ASSERT_TRUE(reference.have_best);
    ASSERT_GT(reference.multi.axis_points[0], reference.multi.axis_points[1]);
    EXPECT_EQ(reference.n_evaluated, reference.space_size);

    for (int n_threads : {1, 2, 4}) {
        for (bool use_pruning : {false, true}) {
            for (bool use_cache : {false, true}) {
                lso::Solve_options o;
                o.n_threads = n_threads;
                o.use_pruning = use_pruning;
                o.use_cache = use_cache;
                const auto r = session.solve("multi_asic_bb", o);
                expect_same_pair(r, reference,
                                 std::to_string(n_threads) + " threads, " +
                                     "pruning " + std::to_string(use_pruning) +
                                     ", cache " + std::to_string(use_cache));
                EXPECT_EQ(r.n_evaluated + r.n_pruned, r.space_size);
            }
        }
    }
}

TEST(MultiAsicBb, straight_partial_row_prefix_matches_flat_reference)
{
    const Straight straight;
    lso::Session session(straight.problem({0.65, 0.35}));
    const long long f1 =
        session.solve("multi_asic_bb", flat_reference_options(1))
            .multi.axis_points[1];
    ASSERT_GT(f1, 2);

    // Below f1: one partial row, and only part of the asic1 axis is
    // reachable — the block and the row relaxation cover that prefix.
    // Past f1: a full row plus a partial one, split across workers.
    for (const long long limit : {f1 / 2 + 1, f1 + f1 / 3}) {
        const auto reference =
            session.solve("multi_asic_bb", flat_reference_options(limit));
        ASSERT_EQ(reference.n_evaluated, limit);
        for (int n_threads : {1, 2, 4}) {
            for (bool use_pruning : {false, true}) {
                for (bool use_cache : {false, true}) {
                    lso::Solve_options o;
                    o.n_threads = n_threads;
                    o.use_pruning = use_pruning;
                    o.use_cache = use_cache;
                    o.extras = lso::Multi_asic_extras{.pair_limit = limit};
                    const auto r = session.solve("multi_asic_bb", o);
                    expect_same_pair(
                        r, reference,
                        "limit " + std::to_string(limit) + ", " +
                            std::to_string(n_threads) + " threads, pruning " +
                            std::to_string(use_pruning) + ", cache " +
                            std::to_string(use_cache));
                    EXPECT_EQ(r.n_evaluated + r.n_pruned, limit);
                }
            }
        }
    }
}

// At the even split both ASICs share one axis, the pruned walk scores
// only the j >= i half of the pair space, and the separable row bound
// fires.  Every combination must return the one-thread unpruned flat
// walk's pair and account for every pair (the mirror half in
// n_pruned) — over the whole space, under a pair_limit whose last row
// ends before or after its diagonal, and over two window leases.
TEST(MultiAsicBb, straight_even_split_matches_flat_reference)
{
    const Straight straight;
    lso::Session session(straight.problem({0.0, 0.0}));
    const auto reference =
        session.solve("multi_asic_bb", flat_reference_options());
    ASSERT_TRUE(reference.have_best);
    const long long f1 = reference.multi.axis_points[1];
    ASSERT_EQ(reference.multi.axis_points[0], f1);
    EXPECT_EQ(reference.n_evaluated, reference.space_size);

    for (int n_threads : {1, 2, 4}) {
        for (bool use_pruning : {false, true}) {
            for (bool use_row_bound : {false, true}) {
                // The row bound only runs under pruning.
                if (!use_pruning && use_row_bound)
                    continue;
                lso::Solve_options o;
                o.n_threads = n_threads;
                o.use_pruning = use_pruning;
                o.extras =
                    lso::Multi_asic_extras{.use_row_bound = use_row_bound};
                const auto r = session.solve("multi_asic_bb", o);
                const std::string what =
                    std::to_string(n_threads) + " threads, pruning " +
                    std::to_string(use_pruning) + ", row bound " +
                    std::to_string(use_row_bound);
                expect_same_pair(r, reference, what);
                EXPECT_EQ(r.n_evaluated + r.n_pruned, r.space_size) << what;
                if (use_pruning && use_row_bound)
                    EXPECT_GT(r.multi.rows_pruned, 0) << what;
            }
        }
    }

    // The last walked row is row 5: a limit ending at column 2 stops
    // before its diagonal (the row walks no pair), one ending at
    // column 9 after it.
    ASSERT_GT(f1, 10);
    for (const long long limit : {5 * f1 + 2, 5 * f1 + 9}) {
        const auto prefix =
            session.solve("multi_asic_bb", flat_reference_options(limit));
        ASSERT_EQ(prefix.n_evaluated, limit);
        for (int n_threads : {1, 2, 4}) {
            lso::Solve_options o;
            o.n_threads = n_threads;
            o.extras = lso::Multi_asic_extras{.pair_limit = limit};
            const auto r = session.solve("multi_asic_bb", o);
            const std::string what = "limit " + std::to_string(limit) + ", " +
                                     std::to_string(n_threads) + " threads";
            expect_same_pair(r, prefix, what);
            EXPECT_EQ(r.n_evaluated + r.n_pruned, limit) << what;
        }
    }

    // Two leases: row i >= split walks its columns j >= i, and the
    // mirror of each pair it skips lies in one of the two windows.
    const long long split = f1 / 3;
    std::array<lso::Solve_result, 2> leases;
    const std::array<lycos::util::Chunk_range, 2> windows = {
        lycos::util::Chunk_range{0, split},
        lycos::util::Chunk_range{split, f1}};
    long long accounted = 0;
    for (std::size_t w = 0; w < 2; ++w) {
        lso::Solve_options o;
        o.n_threads = 2;
        o.window = windows[w];
        leases[w] = session.solve("multi_asic_bb", o);
        accounted += leases[w].n_evaluated + leases[w].n_pruned;
    }
    EXPECT_EQ(accounted, reference.space_size);
    // Fold in window order: a later window wins only when strictly
    // better, as the lower pair index takes an exact tie.
    const auto area_sum = [](const lso::Solve_result& r) {
        return r.multi.datapath_area[0] + r.multi.datapath_area[1];
    };
    const lso::Solve_result* folded = nullptr;
    for (const auto& lease : leases)
        if (lease.have_best &&
            (folded == nullptr ||
             lse::better_tuple(lease.multi.partition.time_hybrid_ns,
                               area_sum(lease),
                               folded->multi.partition.time_hybrid_ns,
                               area_sum(*folded))))
            folded = &lease;
    ASSERT_NE(folded, nullptr);
    expect_same_pair(*folded, reference, "folded leases");
}

namespace {

/// The separable primer's pair on the whole pair space, recomputed
/// from public pieces: the first a0 axis point with the largest S_0
/// (its optimistic single-ASIC saving), then the first column of its
/// row with the largest S_1.  It only aims the limits below at the
/// primer's row; their assertions hold for any limit.
struct Primer_pair {
    long long row = 0;
    long long col = 0;
    long long f1 = 0;
    bool mirror = false;  ///< even split: row i walks columns j >= i
};

Primer_pair find_primer_pair(lso::Session& session)
{
    const lso::Problem& p = session.problem();
    const auto& lib = *p.lib;
    const std::array<double, 2> budgets =
        p.asic_areas[0] != 0.0 || p.asic_areas[1] != 0.0
            ? p.asic_areas
            : std::array<double, 2>{p.target.asic.total_area / 2.0,
                                    p.target.asic.total_area / 2.0};
    const auto single_saving = [&](const lc::Rmap& a, double budget) {
        const auto costs = session.cache().costs_for(a);
        std::vector<lp::Multi_bsb_cost> m(costs.size());
        for (std::size_t k = 0; k < costs.size(); ++k) {
            m[k].t_sw = costs[k].t_sw;
            m[k].hw[0] = costs[k];
            m[k].hw[1].t_hw = std::numeric_limits<double>::infinity();
            m[k].hw[1].ctrl_area = std::numeric_limits<double>::infinity();
        }
        lp::Multi_pace_options mo;
        mo.ctrl_area_budgets = {budget - a.area(lib), 0.0};
        mo.area_quantum = p.area_quantum;
        mo.optimistic_rounding = true;
        return lp::multi_pace_best_saving(m, mo);
    };
    std::array<std::vector<double>, 2> s;
    const lse::Alloc_space space(lib, p.restrictions);
    for (std::size_t a = 0; a < 2; ++a)
        space.for_each(budgets[a], [&](const lc::Rmap& alloc) {
            s[a].push_back(single_saving(alloc, budgets[a]));
            return true;
        });
    const auto first_max = [](const std::vector<double>& v, std::size_t from) {
        return static_cast<long long>(
            std::max_element(v.begin() + static_cast<std::ptrdiff_t>(from),
                             v.end()) -
            v.begin());
    };
    Primer_pair pair;
    pair.mirror = budgets[0] == budgets[1];
    pair.f1 = static_cast<long long>(s[1].size());
    pair.row = first_max(s[0], 0);
    pair.col = first_max(
        s[1], pair.mirror ? static_cast<std::size_t>(pair.row) : 0);
    return pair;
}

}  // namespace

// The walk is primed from the walked pair of largest separable bound,
// so priming must stay sound where the walk is cut short: under a
// pair_limit whose last row is partial, and inside a window lease.
// The limit ends inside the primer's own row, before the column the
// whole space would prime from where the split allows it, and the two
// leases split the prefix just before that row.  Every run primes
// from a pair it walks: a finite time-to-beat no better than its own
// best, and the best of the one-thread unpruned prefix walk.
TEST(MultiAsicBb, separable_primer_is_a_walked_pair)
{
    const Straight straight;
    for (const auto split :
         {std::array<double, 2>{0.0, 0.0}, std::array<double, 2>{0.65, 0.35}}) {
        lso::Session session(straight.problem(split));
        const Primer_pair primer = find_primer_pair(session);
        const long long j_begin = primer.mirror ? primer.row : 0;
        // A partial row that walks at least one pair and, when the
        // row's best column lies past its first, stops before it.
        const long long j_end =
            primer.col > j_begin
                ? (j_begin + 1 + primer.col) / 2
                : j_begin + (primer.f1 - j_begin + 1) / 2;
        ASSERT_LT(j_end, primer.f1);
        const long long limit = primer.row * primer.f1 + j_end;
        const auto reference =
            session.solve("multi_asic_bb", flat_reference_options(limit));
        ASSERT_TRUE(reference.have_best);

        const auto area_sum = [](const lso::Solve_result& r) {
            return r.multi.datapath_area[0] + r.multi.datapath_area[1];
        };
        const auto expect_primed = [](const lso::Solve_result& r,
                                      const std::string& what) {
            ASSERT_TRUE(r.have_best) << what;
            EXPECT_TRUE(std::isfinite(r.multi.prime_time_ns)) << what;
            EXPECT_GE(r.multi.prime_time_ns,
                      r.multi.partition.time_hybrid_ns)
                << what;
        };
        for (const int n_threads : {1, 2, 4}) {
            const std::string what = "split " + std::to_string(split[0]) +
                                     ", limit " + std::to_string(limit) +
                                     ", " + std::to_string(n_threads) +
                                     " threads";
            lso::Solve_options o;
            o.n_threads = n_threads;
            o.extras = lso::Multi_asic_extras{.pair_limit = limit};
            const auto prefix = session.solve("multi_asic_bb", o);
            expect_primed(prefix, what);
            expect_same_pair(prefix, reference, what);

            // Two leases over the prefix's rows, the second only the
            // partial primer row; folded in window order, a later
            // window winning only when strictly better.
            const lso::Solve_result* folded = nullptr;
            std::array<lso::Solve_result, 2> leases;
            const std::array<lycos::util::Chunk_range, 2> windows = {
                lycos::util::Chunk_range{0, primer.row},
                lycos::util::Chunk_range{primer.row, primer.row + 1}};
            for (std::size_t w = 0; w < 2; ++w) {
                o.window = windows[w];
                leases[w] = session.solve("multi_asic_bb", o);
                const auto& lease = leases[w];
                if (windows[w].size() == 0)
                    continue;
                const std::string lease_what =
                    what + ", lease " + std::to_string(w);
                expect_primed(lease, lease_what);
                if (lease.have_best &&
                    (folded == nullptr ||
                     lse::better_tuple(lease.multi.partition.time_hybrid_ns,
                                       area_sum(lease),
                                       folded->multi.partition.time_hybrid_ns,
                                       area_sum(*folded))))
                    folded = &lease;
            }
            ASSERT_NE(folded, nullptr) << what;
            expect_same_pair(*folded, reference, what + ", folded leases");
        }
    }
}

// The prep pass fetches every block row's costs once, split into
// static chunks whose caches are the session's (chunk 0) and private
// ones: over the whole space at the even split the block is the one
// shared axis, so the solve reports exactly one lookup per BSB per
// axis point, whatever the thread count.
TEST(MultiAsicBb, prep_pass_fetches_each_block_point_once)
{
    const Straight straight;
    const lso::Problem p = straight.problem({0.0, 0.0});
    for (const int n_threads : {1, 4}) {
        lso::Session session(p);
        const auto r =
            session.solve("multi_asic_bb", {.n_threads = n_threads});
        ASSERT_TRUE(r.have_best) << n_threads;
        EXPECT_EQ(r.cache_stats.hits + r.cache_stats.misses,
                  r.multi.axis_points[0] *
                      static_cast<long long>(p.bsbs.size()))
            << n_threads;
    }
}

// With use_cache = false no strategy may read or grow the session
// cache; a cached solve first gives it something to leave untouched.
TEST(Session, uncached_solves_leave_the_session_cache_untouched)
{
    const Straight straight;
    for (const auto* strategy : lso::strategies()) {
        const std::string name(strategy->name());
        lso::Session session(straight.problem({0.0, 0.0}));
        lso::Solve_options o;
        if (name == "hill_climb")
            o.extras = lso::Hill_climb_extras{.n_restarts = 4,
                                              .max_steps = 32};
        if (name == "multi_asic_bb")
            o.extras = lso::Multi_asic_extras{.pair_limit = 20000};
        const auto cached = session.solve(name, o);
        const auto& cache = session.cache();
        ASSERT_GT(cache.entries(), 0u) << name;
        EXPECT_GT(cached.cache_stats.hits + cached.cache_stats.misses, 0)
            << name;

        const auto before = cache.stats();
        const auto entries_before = cache.entries();
        o.use_cache = false;
        const auto uncached = session.solve(name, o);
        EXPECT_EQ(cache.stats().hits, before.hits) << name;
        EXPECT_EQ(cache.stats().misses, before.misses) << name;
        EXPECT_EQ(cache.stats().evictions, before.evictions) << name;
        EXPECT_EQ(cache.entries(), entries_before) << name;
        expect_same_tuple(uncached.best, cached.best, name.c_str());
        expect_same_pair(uncached, cached, name + ": uncached vs cached");
    }
}

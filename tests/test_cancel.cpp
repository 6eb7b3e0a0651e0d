// Tests for the cooperative-cancellation layer (util/cancel.hpp) and
// the anytime-solve contract it gives every solver strategy:
//
//  * Cancel_token unit behaviour: budgets, deadlines, external
//    cancellation, parent linking, and the deterministic injected cut.
//  * Fault-injection equivalence: a solve truncated at logical unit k
//    returns the SAME incumbent for 1, 2 and 8 threads — the explored
//    prefix is exactly [0, k) whatever the chunking — and a cut at or
//    past the end is bit-identical to the untripped solve, for all
//    three strategies.
//  * Live conditions (deadline_ms, max_evals, request_cancel) end the
//    solve with the matching Solve_result::status and an honest
//    incumbent.
//  * Problem::validate reports every defect at once and the Session
//    constructor throws the joined report.
#include <gtest/gtest.h>

#include <chrono>
#include <limits>
#include <new>
#include <string>
#include <thread>

#include "apps/apps.hpp"
#include "core/analysis.hpp"
#include "core/restrictions.hpp"
#include "hw/target.hpp"
#include "pace/multi_asic.hpp"
#include "solver/solver.hpp"
#include "util/cancel.hpp"

namespace lh = lycos::hw;
namespace lb = lycos::bsb;
namespace lso = lycos::solver;
namespace lu = lycos::util;
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

/// The 12-point problem the solver tests use: restrictions 2x adder,
/// 3x multiplier under a 3000-gate target.
lso::Problem small_problem(const lh::Hw_library& lib,
                           std::span<const lb::Bsb> bsbs)
{
    lso::Problem p;
    p.bsbs = bsbs;
    p.lib = &lib;
    p.target = lh::make_default_target(3000.0);
    p.restrictions.set(0, 2);
    p.restrictions.set(1, 3);
    p.area_quantum = p.target.asic.total_area / 64.0;
    return p;
}

lso::Solve_options cut_options(std::uint64_t cut, int n_threads)
{
    lso::Solve_options o;
    o.n_threads = n_threads;
    o.fault.trip_at = cut;
    return o;
}

/// The comparable incumbent fingerprint of a Solve_result, covering
/// both the single-ASIC and the pair search.
struct Fingerprint {
    std::string datapath;
    double time;
    double area;
    std::string pair0;
    std::string pair1;

    bool operator==(const Fingerprint&) const = default;
};

Fingerprint fingerprint(const lso::Solve_result& r,
                        const lh::Hw_library& lib)
{
    Fingerprint f;
    if (r.multi.active) {
        f.pair0 = r.multi.datapaths[0].to_string(lib);
        f.pair1 = r.multi.datapaths[1].to_string(lib);
        f.time = r.multi.partition.time_hybrid_ns;
        f.area = r.multi.datapath_area[0] + r.multi.datapath_area[1];
    }
    else {
        f.datapath = r.best.datapath.to_string(lib);
        f.time = r.best.partition.time_hybrid_ns;
        f.area = r.best.datapath_area;
    }
    return f;
}

constexpr const char* k_strategies[] = {"exhaustive_bb", "hill_climb",
                                        "multi_asic_bb"};

}  // namespace

// ---------------------------------------------------------------- token

TEST(CancelToken, unarmed_token_never_trips)
{
    lu::Cancel_token token;
    EXPECT_FALSE(token.tripped());
    EXPECT_FALSE(token.stop());
    EXPECT_TRUE(token.admit(0));
    EXPECT_TRUE(token.admit(~0ull - 1));
    token.charge_evals(1'000'000);
    token.charge_dp_cells(1'000'000);
    EXPECT_FALSE(token.tripped());
    EXPECT_EQ(token.status(), lu::Solve_status::complete);
}

TEST(CancelToken, request_cancel_trips_with_cancelled_status)
{
    lu::Cancel_token token;
    token.request_cancel();
    EXPECT_TRUE(token.tripped());
    EXPECT_TRUE(token.stop());
    EXPECT_FALSE(token.admit(0));
    EXPECT_EQ(token.status(), lu::Solve_status::cancelled);
}

TEST(CancelToken, first_trip_reason_wins)
{
    lu::Cancel_token token(0.0, 1, 0, {});
    token.charge_evals(2);  // budget trips first...
    token.request_cancel();  // ...a later cancel does not overwrite it
    EXPECT_EQ(token.status(), lu::Solve_status::budget);
}

TEST(CancelToken, deadline_trips_on_stop_poll)
{
    lu::Cancel_token token(0.5, 0, 0, {});
    // Not tripped until a poll actually observes the expired clock.
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    EXPECT_FALSE(token.tripped());
    EXPECT_TRUE(token.stop());
    EXPECT_TRUE(token.tripped());
    EXPECT_EQ(token.status(), lu::Solve_status::deadline);
}

TEST(CancelToken, eval_budget_trips_as_budget)
{
    lu::Cancel_token token(0.0, 5, 0, {});
    token.charge_evals(3);
    EXPECT_FALSE(token.tripped());
    token.charge_evals(3);  // 6 > 5
    EXPECT_TRUE(token.tripped());
    EXPECT_EQ(token.status(), lu::Solve_status::budget);
}

TEST(CancelToken, dp_cell_budget_trips_as_budget)
{
    lu::Cancel_token token(0.0, 0, 100, {});
    token.charge_dp_cells(100);
    EXPECT_FALSE(token.tripped());
    token.charge_dp_cells(1);
    EXPECT_TRUE(token.tripped());
    EXPECT_EQ(token.status(), lu::Solve_status::budget);
}

TEST(CancelToken, injected_cut_is_a_pure_predicate)
{
    lu::Fault_injector fault;
    fault.trip_at = 3;
    lu::Cancel_token token(0.0, 0, 0, fault);
    EXPECT_TRUE(token.admit(0));
    EXPECT_TRUE(token.admit(2));
    EXPECT_FALSE(token.admit(3));
    EXPECT_FALSE(token.admit(100));
    // The cut refuses units without tripping the live flag: units
    // below it stay admitted afterwards, on any thread.
    EXPECT_TRUE(token.admit(1));
    EXPECT_FALSE(token.tripped());
    EXPECT_EQ(token.status(), lu::Solve_status::complete);
}

TEST(CancelToken, injected_alloc_failure_throws)
{
    lu::Fault_injector fault;
    fault.alloc_failure_at = 2;
    lu::Cancel_token token(0.0, 0, 0, fault);
    EXPECT_TRUE(token.admit(1));
    EXPECT_THROW(token.admit(2), std::bad_alloc);
}

TEST(CancelToken, parent_trip_is_adopted)
{
    lu::Cancel_token parent;
    lu::Cancel_token child(0.0, 0, 0, {}, &parent);
    EXPECT_FALSE(child.tripped());
    parent.request_cancel();
    EXPECT_TRUE(child.tripped());
    EXPECT_EQ(child.status(), lu::Solve_status::cancelled);
}

TEST(CancelToken, copies_share_one_flag)
{
    lu::Cancel_token token;
    lu::Cancel_token copy = token;
    copy.request_cancel();
    EXPECT_TRUE(token.tripped());
}

TEST(FaultInjector, from_seed_is_reproducible_and_in_range)
{
    EXPECT_FALSE(lu::Fault_injector::from_seed(7, 0).armed());
    for (std::uint64_t seed = 0; seed < 32; ++seed) {
        const auto a = lu::Fault_injector::from_seed(seed, 100);
        const auto b = lu::Fault_injector::from_seed(seed, 100);
        EXPECT_TRUE(a.armed());
        EXPECT_EQ(a.trip_at, b.trip_at);
        EXPECT_LT(a.trip_at, 100u);
    }
}

TEST(FaultInjector, alloc_from_seed_arms_the_alloc_failure_half)
{
    EXPECT_FALSE(lu::Fault_injector::alloc_from_seed(7, 0).armed());
    for (std::uint64_t seed = 0; seed < 32; ++seed) {
        const auto a = lu::Fault_injector::alloc_from_seed(seed, 100);
        const auto b = lu::Fault_injector::alloc_from_seed(seed, 100);
        EXPECT_TRUE(a.armed());
        EXPECT_EQ(a.trip_at, lu::Fault_injector::k_no_unit);
        EXPECT_EQ(a.alloc_failure_at, b.alloc_failure_at);
        EXPECT_LT(a.alloc_failure_at, 100u);
    }
}

// ------------------------------------------------------ anytime solves

// The tentpole contract: a solve truncated at logical unit k explores
// exactly the prefix [0, k), so its incumbent is bit-identical for
// any thread count; at k >= the unit count it equals the untripped
// solve and reports `complete`.
TEST(AnytimeSolve, truncated_incumbents_are_thread_count_invariant)
{
    const auto lib = small_library();
    const auto bsbs = small_app();
    lso::Session session(small_problem(lib, bsbs));
    // Logical units: 12 leaves (exhaustive), 12 default restarts
    // (hill_climb), <= 12 a0 rows (multi_asic_bb) — 14 cuts cover
    // every poll site of every strategy, plus past-the-end.
    constexpr std::uint64_t k_max_cut = 14;

    for (const char* strategy : k_strategies) {
        const auto baseline = session.solve(strategy, {});
        ASSERT_EQ(baseline.status, lu::Solve_status::complete) << strategy;

        for (std::uint64_t cut = 0; cut <= k_max_cut; ++cut) {
            const auto r1 = session.solve(strategy, cut_options(cut, 1));
            const auto r2 = session.solve(strategy, cut_options(cut, 2));
            const auto r8 = session.solve(strategy, cut_options(cut, 8));

            const auto f1 = fingerprint(r1, lib);
            EXPECT_EQ(f1, fingerprint(r2, lib))
                << strategy << " cut=" << cut << ": 1 vs 2 threads";
            EXPECT_EQ(f1, fingerprint(r8, lib))
                << strategy << " cut=" << cut << ": 1 vs 8 threads";
            EXPECT_EQ(r1.status, r2.status) << strategy << " cut=" << cut;

            if (cut >= k_max_cut) {
                // Past the end: nothing was refused — bit-identical
                // to the untripped solve, reported complete.
                EXPECT_EQ(f1, fingerprint(baseline, lib)) << strategy;
                EXPECT_EQ(r1.status, lu::Solve_status::complete)
                    << strategy;
                EXPECT_EQ(r1.rows_abandoned, 0) << strategy;
            }
            else if (cut == 0) {
                // Everything refused: still a clean anytime result.
                EXPECT_EQ(r1.status, lu::Solve_status::cancelled)
                    << strategy;
            }
            if (r1.status == lu::Solve_status::complete)
                EXPECT_EQ(f1, fingerprint(baseline, lib))
                    << strategy << " cut=" << cut;
            else
                EXPECT_GT(r1.rows_abandoned + r1.chunks_abandoned, 0)
                    << strategy << " cut=" << cut;
        }
    }
}

TEST(AnytimeSolve, seeded_fault_plans_stay_thread_count_invariant)
{
    const auto lib = small_library();
    const auto bsbs = small_app();
    lso::Session session(small_problem(lib, bsbs));
    for (const char* strategy : k_strategies) {
        for (std::uint64_t seed = 0; seed < 6; ++seed) {
            lso::Solve_options o1;
            o1.fault = lu::Fault_injector::from_seed(seed, 12);
            lso::Solve_options o8 = o1;
            o1.n_threads = 1;
            o8.n_threads = 8;
            EXPECT_EQ(fingerprint(session.solve(strategy, o1), lib),
                      fingerprint(session.solve(strategy, o8), lib))
                << strategy << " seed=" << seed;
        }
    }
}

TEST(AnytimeSolve, expired_deadline_reports_deadline_status)
{
    const auto lib = small_library();
    const auto bsbs = small_app();
    lso::Session session(small_problem(lib, bsbs));
    for (const char* strategy : k_strategies) {
        lso::Solve_options options;
        options.n_threads = 2;
        options.deadline_ms = 1e-6;  // expired by the first poll
        const auto r = session.solve(strategy, options);
        EXPECT_EQ(r.status, lu::Solve_status::deadline) << strategy;
        EXPECT_GT(r.rows_abandoned + r.chunks_abandoned, 0) << strategy;
    }
}

// multi_asic_bb fetches every walked axis point's costs serially
// before its workers start — on a real app the largest share of a
// cold solve.  The fill polls the token once per point, so an expired
// deadline returns at once: no incumbent, every row abandoned, no
// cost fetched, on every thread count.
TEST(AnytimeSolve, multi_asic_expired_deadline_stops_the_cost_fill)
{
    const auto lib = lh::make_default_library();
    const auto app = lycos::apps::make_straight();
    lso::Problem p;
    p.bsbs = app.bsbs;
    p.lib = &lib;
    p.target = lh::make_default_target(app.asic_area);
    p.restrictions = lycos::core::compute_restrictions(
        lycos::core::analyze(app.bsbs, lib, p.target.gates), lib);
    p.area_quantum = app.asic_area / 512.0;

    for (const int n_threads : {1, 4}) {
        lso::Session session(p);
        lso::Solve_options options;
        options.n_threads = n_threads;
        options.deadline_ms = 1e-6;  // expired by the first poll
        const auto r = session.solve("multi_asic_bb", options);
        EXPECT_EQ(r.status, lu::Solve_status::deadline) << n_threads;
        EXPECT_FALSE(r.have_best) << n_threads;
        EXPECT_EQ(r.n_evaluated + r.n_pruned, 0) << n_threads;
        EXPECT_EQ(r.multi.rows_visited, 0) << n_threads;
        EXPECT_EQ(r.rows_abandoned, r.multi.axis_points[0]) << n_threads;
        EXPECT_EQ(session.cache().stats().hits +
                      session.cache().stats().misses,
                  0)
            << n_threads;

        // Without the deadline the same session fetches and walks.
        options.deadline_ms = 0.0;
        options.extras = lso::Multi_asic_extras{.pair_limit = 2000};
        const auto walked = session.solve("multi_asic_bb", options);
        EXPECT_EQ(walked.status, lu::Solve_status::complete);
        EXPECT_TRUE(walked.have_best);
        EXPECT_GT(walked.cache_stats.misses, 0);
    }
}

// multi_asic_bb workers claim a0 rows from one shared counter, so a
// row is walked by whichever worker takes it next.  Every row must
// still be accounted for: an injected cut at row k walks exactly rows
// [0, k) and abandons the rest, and after a live trip the rows no
// worker claimed count as abandoned too — on every thread count.
TEST(AnytimeSolve, multi_asic_row_accounting_under_dynamic_claims)
{
    const auto lib = small_library();
    const auto bsbs = small_app();
    lso::Session session(small_problem(lib, bsbs));
    const auto baseline = session.solve("multi_asic_bb", {});
    const long long n_rows = baseline.multi.axis_points[0];
    ASSERT_GT(n_rows, 4);

    for (const int n_threads : {1, 2, 4, 8}) {
        for (long long k = 0; k <= n_rows; ++k) {
            const auto cut = static_cast<std::uint64_t>(k);
            const auto one =
                session.solve("multi_asic_bb", cut_options(cut, 1));
            const auto r =
                session.solve("multi_asic_bb", cut_options(cut, n_threads));
            EXPECT_EQ(fingerprint(r, lib), fingerprint(one, lib))
                << "cut=" << k << " threads=" << n_threads;
            EXPECT_EQ(r.rows_abandoned, n_rows - k)
                << "cut=" << k << " threads=" << n_threads;
            EXPECT_EQ(r.multi.rows_visited, k)
                << "cut=" << k << " threads=" << n_threads;
        }

        lso::Solve_options options;
        options.n_threads = n_threads;
        options.max_evals = 3;
        const auto r = session.solve("multi_asic_bb", options);
        EXPECT_EQ(r.status, lu::Solve_status::budget) << n_threads;
        EXPECT_GT(r.rows_abandoned, 0) << n_threads;
        EXPECT_GE(r.multi.rows_visited + r.rows_abandoned, n_rows)
            << n_threads;
    }
}

// A DP-cell budget that runs out inside a screening sweep: the sweep
// returns -inf, which is an abandoned pair, not a screen kill.  On one
// thread, with no primed incumbent under a token, the walk screens
// and fully partitions pair (0, 0) and then screens (0, 1); a budget
// of exactly pair (0, 0)'s two sweeps trips on the first row of that
// screen.  The aborted pair must not count as evaluated.
TEST(AnytimeSolve, multi_asic_aborted_screen_is_not_a_scored_pair)
{
    const auto lib = small_library();
    const auto bsbs = small_app();
    const auto problem = small_problem(lib, bsbs);
    lso::Session session(problem);

    // Pair (0, 0) is the empty allocation on both ASICs.
    const double half = problem.target.asic.total_area / 2.0;
    const auto costs = lycos::pace::build_multi_cost_model(
        bsbs, lib, problem.target, {}, {}, problem.ctrl_mode);
    lycos::pace::Multi_pace_options mo;
    mo.ctrl_area_budgets = {half, half};
    mo.area_quantum = problem.area_quantum;
    lycos::pace::Multi_pace_workspace ws;
    lycos::pace::multi_pace_best_saving(costs, mo, &ws);
    long long first_pair_cells = ws.last_cells_swept();
    lycos::pace::multi_pace_partition(costs, mo, &ws);
    first_pair_cells += ws.last_cells_swept();

    for (const int n_threads : {1, 2, 4}) {
        lso::Solve_options options;
        options.n_threads = n_threads;
        options.max_dp_cells = static_cast<std::uint64_t>(first_pair_cells);
        const auto r = session.solve("multi_asic_bb", options);
        EXPECT_EQ(r.status, lu::Solve_status::budget) << n_threads;
        EXPECT_GE(r.rows_abandoned, 1) << n_threads;
        EXPECT_LT(r.n_evaluated + r.n_pruned, r.space_size) << n_threads;
        if (n_threads == 1) {
            EXPECT_EQ(r.n_evaluated, 1);
            EXPECT_EQ(r.n_pruned, 0);
            EXPECT_TRUE(r.have_best);
        }
    }
}

// The saving floor's other exit: a screen whose sweep the floor
// empties returns a finite lowest(), not the tripped-token -inf, so
// the pair was scored and killed — it counts as evaluated and abandons
// nothing.  Under an untripped token every pair is accounted for, the
// status stays complete, and the incumbent is the unpruned walk's.
TEST(AnytimeSolve, multi_asic_floor_emptied_screen_is_a_scored_pair)
{
    const auto lib = small_library();
    const auto bsbs = small_app();
    lso::Session session(small_problem(lib, bsbs));
    lso::Solve_options flat;
    flat.use_pruning = false;
    const auto reference = session.solve("multi_asic_bb", flat);
    EXPECT_EQ(reference.multi.dp_states_dropped, 0);

    for (const int n_threads : {1, 2, 4}) {
        lu::Cancel_token token;
        lso::Solve_options options;
        options.n_threads = n_threads;
        const auto r = session.solve("multi_asic_bb", options, token);
        EXPECT_EQ(r.status, lu::Solve_status::complete) << n_threads;
        EXPECT_EQ(r.rows_abandoned, 0) << n_threads;
        EXPECT_EQ(r.chunks_abandoned, 0) << n_threads;
        EXPECT_EQ(r.n_evaluated + r.n_pruned, r.space_size) << n_threads;
        EXPECT_GT(r.multi.dp_states_dropped, 0) << n_threads;
        EXPECT_EQ(fingerprint(r, lib), fingerprint(reference, lib))
            << n_threads;
    }
}

TEST(AnytimeSolve, eval_budget_reports_budget_status)
{
    const auto lib = small_library();
    const auto bsbs = small_app();
    lso::Session session(small_problem(lib, bsbs));
    for (const char* strategy : k_strategies) {
        lso::Solve_options options;
        options.n_threads = 1;
        options.max_evals = 2;
        const auto r = session.solve(strategy, options);
        EXPECT_EQ(r.status, lu::Solve_status::budget) << strategy;
    }
}

TEST(AnytimeSolve, dp_cell_budget_reports_budget_status)
{
    const auto lib = small_library();
    const auto bsbs = small_app();
    lso::Session session(small_problem(lib, bsbs));
    for (const char* strategy : k_strategies) {
        lso::Solve_options options;
        options.n_threads = 1;
        options.max_dp_cells = 4;
        const auto r = session.solve(strategy, options);
        EXPECT_EQ(r.status, lu::Solve_status::budget) << strategy;
    }
}

TEST(AnytimeSolve, external_token_cancels_every_strategy)
{
    const auto lib = small_library();
    const auto bsbs = small_app();
    lso::Session session(small_problem(lib, bsbs));
    for (const char* strategy : k_strategies) {
        lu::Cancel_token token;
        token.request_cancel();
        const auto r = session.solve(strategy, {}, token);
        EXPECT_EQ(r.status, lu::Solve_status::cancelled) << strategy;
        EXPECT_GT(r.rows_abandoned + r.chunks_abandoned, 0) << strategy;
    }
}

TEST(AnytimeSolve, untripped_external_token_changes_nothing)
{
    const auto lib = small_library();
    const auto bsbs = small_app();
    lso::Session session(small_problem(lib, bsbs));
    for (const char* strategy : k_strategies) {
        const auto baseline = session.solve(strategy, {});
        lu::Cancel_token token;
        const auto r = session.solve(strategy, {}, token);
        EXPECT_EQ(r.status, lu::Solve_status::complete) << strategy;
        EXPECT_EQ(fingerprint(r, lib), fingerprint(baseline, lib))
            << strategy;
    }
}

TEST(AnytimeSolve, injected_alloc_failure_propagates_deterministically)
{
    const auto lib = small_library();
    const auto bsbs = small_app();
    lso::Session session(small_problem(lib, bsbs));
    for (const char* strategy : k_strategies) {
        for (int n_threads : {1, 4}) {
            lso::Solve_options options;
            options.n_threads = n_threads;
            options.fault.alloc_failure_at = 1;
            EXPECT_THROW(session.solve(strategy, options), std::bad_alloc)
                << strategy << " threads=" << n_threads;
        }
    }
}

// The pair search dispatches one admit() per a0 row: an injected
// allocation failure at ANY row index must surface as std::bad_alloc
// on every thread count, and a unit past every row must change
// nothing.  Which indices are rows (vs. past-the-end) is a property
// of the problem, not the chunking — so the thrown/completed outcome
// must agree across thread counts too.
TEST(AnytimeSolve, multi_asic_alloc_failure_covers_every_row)
{
    const auto lib = small_library();
    const auto bsbs = small_app();
    lso::Session session(small_problem(lib, bsbs));
    const auto baseline = session.solve("multi_asic_bb", {});
    ASSERT_EQ(baseline.status, lu::Solve_status::complete);

    int n_throwing_units = 0;
    for (std::uint64_t unit = 0; unit < 12; ++unit) {
        bool threw_at_one_thread = false;
        for (const int n_threads : {1, 2, 8}) {
            lso::Solve_options options;
            options.n_threads = n_threads;
            options.fault.alloc_failure_at = unit;
            bool threw = false;
            try {
                const auto r = session.solve("multi_asic_bb", options);
                // Not a row index: the solve must be untouched.
                EXPECT_EQ(fingerprint(r, lib), fingerprint(baseline, lib))
                    << "unit=" << unit << " threads=" << n_threads;
                EXPECT_EQ(r.status, lu::Solve_status::complete);
            }
            catch (const std::bad_alloc&) {
                threw = true;
            }
            if (n_threads == 1) {
                threw_at_one_thread = threw;
                n_throwing_units += threw ? 1 : 0;
            }
            else {
                EXPECT_EQ(threw, threw_at_one_thread)
                    << "unit=" << unit << " threads=" << n_threads
                    << ": alloc-failure outcome depends on chunking";
            }
        }
    }
    // The plan actually exercised the row dispatch, not just the
    // past-the-end path.
    EXPECT_GT(n_throwing_units, 0);

    // Seeded plans compose with the row dispatch the same way.
    for (std::uint64_t seed = 0; seed < 4; ++seed) {
        lso::Solve_options options;
        options.n_threads = 2;
        options.fault = lu::Fault_injector::alloc_from_seed(seed, 4);
        EXPECT_THROW(session.solve("multi_asic_bb", options),
                     std::bad_alloc)
            << "seed=" << seed;
    }
}

// --------------------------------------------------------- validation

TEST(ProblemValidate, well_formed_problem_has_no_defects)
{
    const auto lib = small_library();
    const auto bsbs = small_app();
    EXPECT_TRUE(small_problem(lib, bsbs).validate().empty());
}

TEST(ProblemValidate, reports_every_defect_at_once)
{
    lso::Problem p;  // null lib AND empty bsbs...
    p.target = lh::make_default_target(3000.0);
    p.target.asic.total_area = -1.0;     // ...AND negative area
    p.area_quantum = -0.5;               // ...AND negative quantum
    p.asic_areas = {-10.0, 100.0};       // ...AND negative budget
    const auto defects = p.validate();
    ASSERT_EQ(defects.size(), 5u);
    auto has = [&](const std::string& field) {
        for (const auto& d : defects)
            if (d.field == field)
                return true;
        return false;
    };
    EXPECT_TRUE(has("lib"));
    EXPECT_TRUE(has("bsbs"));
    EXPECT_TRUE(has("target"));
    EXPECT_TRUE(has("area_quantum"));
    EXPECT_TRUE(has("asic_areas"));
}

TEST(ProblemValidate, flags_restrictions_outside_the_library)
{
    const auto lib = small_library();
    const auto bsbs = small_app();
    auto p = small_problem(lib, bsbs);
    p.restrictions.set(static_cast<int>(lib.size()) + 3, 1);
    const auto defects = p.validate();
    ASSERT_EQ(defects.size(), 1u);
    EXPECT_EQ(defects[0].field, "restrictions");
}

TEST(ProblemValidate, rejects_non_finite_profiles_and_metrics)
{
    const auto lib = small_library();
    auto bsbs = small_app();
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();

    {  // NaN BSB execution profile, named by index and name
        auto p = small_problem(lib, bsbs);
        bsbs[1].name = "poisoned";
        bsbs[1].profile = nan;
        const auto defects = p.validate();
        ASSERT_EQ(defects.size(), 1u);
        EXPECT_EQ(defects[0].field, "bsbs");
        EXPECT_NE(defects[0].message.find("poisoned"), std::string::npos);
        bsbs[1].profile = 2.0;
    }
    {  // infinite ASIC area and NaN clocks/bus: one defect each
        auto p = small_problem(lib, bsbs);
        p.target.asic.total_area = inf;
        p.target.cpu.clock_mhz = nan;
        p.target.asic.clock_mhz = 0.0;
        p.target.bus.ns_per_word = -inf;
        EXPECT_EQ(p.validate().size(), 4u);
    }
    {  // NaN controller gate areas: one defect for the whole set
        auto p = small_problem(lib, bsbs);
        p.target.gates.reg = nan;
        p.target.gates.inv = -1.0;
        const auto defects = p.validate();
        ASSERT_EQ(defects.size(), 1u);
        EXPECT_EQ(defects[0].field, "target");
    }
    {  // non-finite quanta and budgets
        auto p = small_problem(lib, bsbs);
        p.area_quantum = nan;
        p.dp_table_budget = inf;
        p.asic_areas = {nan, 100.0};
        EXPECT_EQ(p.validate().size(), 3u);
    }
}

TEST(ProblemValidate, library_cannot_carry_a_nan_area)
{
    // `!(area > 0)` in Hw_library::add is NaN-safe (every comparison
    // with NaN is false, so the negation throws) — which is why
    // validate()'s lib re-check is pure defence in depth: no library
    // built through the public API can reach it poisoned.
    lh::Hw_library lib;
    lib.add({"adder", {Op_kind::add}, 100.0, 1});
    EXPECT_THROW(lib.add({"rotter", {Op_kind::mul},
                          std::numeric_limits<double>::quiet_NaN(), 2}),
                 std::invalid_argument);
    EXPECT_THROW(lib.add({"sinker", {Op_kind::mul},
                          -std::numeric_limits<double>::infinity(), 2}),
                 std::invalid_argument);
}

TEST(ProblemValidate, session_throws_one_joined_report)
{
    lso::Problem p;
    p.target = lh::make_default_target(3000.0);
    p.dp_table_budget = -1.0;
    try {
        lso::Session session(p);
        FAIL() << "expected std::invalid_argument";
    }
    catch (const std::invalid_argument& e) {
        const std::string what = e.what();
        // One throw, every defect named.
        EXPECT_NE(what.find("lib"), std::string::npos);
        EXPECT_NE(what.find("bsbs"), std::string::npos);
        EXPECT_NE(what.find("dp_table_budget"), std::string::npos);
    }
}

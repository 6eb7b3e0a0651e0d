// Tests for pace: the cost model, the dynamic program and its
// equivalence with exhaustive enumeration.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "apps/random_app.hpp"
#include "core/rmap.hpp"
#include "hw/target.hpp"
#include "pace/cost_model.hpp"
#include "pace/pace.hpp"
#include "support/brute_force.hpp"
#include "util/rng.hpp"

namespace lp = lycos::pace;
namespace lc = lycos::core;
namespace lh = lycos::hw;
namespace lb = lycos::bsb;
using lh::Op_kind;

namespace {

lp::Bsb_cost make_cost(double t_sw, double t_hw, double comm, double save,
                       double area)
{
    lp::Bsb_cost c;
    c.t_sw = t_sw;
    c.t_hw = t_hw;
    c.comm = comm;
    c.save_prev = save;
    c.ctrl_area = area;
    return c;
}

}  // namespace

TEST(Pace, empty_input)
{
    const auto r = lp::pace_partition({}, {.ctrl_area_budget = 100.0});
    EXPECT_TRUE(r.in_hw.empty());
    EXPECT_DOUBLE_EQ(r.speedup_pct, 0.0);
}

TEST(Pace, zero_budget_keeps_everything_in_software)
{
    std::vector<lp::Bsb_cost> costs = {
        make_cost(1000, 100, 10, 0, 50),
        make_cost(2000, 100, 10, 0, 50),
    };
    const auto r = lp::pace_partition(costs, {.ctrl_area_budget = 0.0});
    EXPECT_FALSE(r.in_hw[0]);
    EXPECT_FALSE(r.in_hw[1]);
    EXPECT_DOUBLE_EQ(r.time_hybrid_ns, 3000.0);
    EXPECT_DOUBLE_EQ(r.speedup_pct, 0.0);
}

TEST(Pace, moves_profitable_bsb)
{
    std::vector<lp::Bsb_cost> costs = {
        make_cost(1000, 100, 50, 0, 40),
    };
    const auto r =
        lp::pace_partition(costs, {.ctrl_area_budget = 100.0});
    EXPECT_TRUE(r.in_hw[0]);
    EXPECT_DOUBLE_EQ(r.time_hybrid_ns, 150.0);
    EXPECT_NEAR(r.speedup_pct, (1000.0 / 150.0 - 1.0) * 100.0, 1e-9);
}

TEST(Pace, skips_unprofitable_bsb)
{
    // Hardware plus communication slower than software.
    std::vector<lp::Bsb_cost> costs = {
        make_cost(100, 90, 50, 0, 10),
    };
    const auto r = lp::pace_partition(costs, {.ctrl_area_budget = 100.0});
    EXPECT_FALSE(r.in_hw[0]);
}

TEST(Pace, respects_area_budget_knapsack)
{
    // Two candidates, budget admits only one; the better gain wins.
    std::vector<lp::Bsb_cost> costs = {
        make_cost(1000, 100, 0, 0, 60),   // gain 900
        make_cost(3000, 100, 0, 0, 60),   // gain 2900
    };
    const auto r = lp::pace_partition(costs, {.ctrl_area_budget = 60.0,
                                              .area_quantum = 1.0});
    EXPECT_FALSE(r.in_hw[0]);
    EXPECT_TRUE(r.in_hw[1]);
    EXPECT_DOUBLE_EQ(r.ctrl_area_used, 60.0);
}

TEST(Pace, infeasible_hw_stays_in_software)
{
    constexpr double inf = std::numeric_limits<double>::infinity();
    std::vector<lp::Bsb_cost> costs = {
        make_cost(5000, inf, 0, 0, inf),
        make_cost(1000, 100, 0, 0, 10),
    };
    const auto r = lp::pace_partition(costs, {.ctrl_area_budget = 100.0});
    EXPECT_FALSE(r.in_hw[0]);
    EXPECT_TRUE(r.in_hw[1]);
}

TEST(Pace, adjacency_saving_pulls_neighbour_in)
{
    // BSB 1 alone is slightly unprofitable (gain -10) but saves 100 of
    // bus time when its predecessor is in hardware too.
    std::vector<lp::Bsb_cost> costs = {
        make_cost(1000, 100, 0, 0, 10),     // gain 900
        make_cost(100, 60, 50, 100, 10),    // gain -10, save 100
    };
    const auto r = lp::pace_partition(costs, {.ctrl_area_budget = 100.0,
                                              .area_quantum = 1.0});
    EXPECT_TRUE(r.in_hw[0]);
    EXPECT_TRUE(r.in_hw[1]);
    // Hybrid: 100 + (60 + 50 - 100 saved) = 110.
    EXPECT_DOUBLE_EQ(r.time_hybrid_ns, 110.0);
}

TEST(Pace, adjacency_saving_not_applied_across_gap)
{
    std::vector<lp::Bsb_cost> costs = {
        make_cost(1000, 100, 0, 0, 10),
        make_cost(100, 200, 0, 0, 10),      // never profitable
        make_cost(100, 60, 50, 100, 10),    // save only if BSB1 in HW
    };
    const auto r = lp::pace_partition(costs, {.ctrl_area_budget = 100.0,
                                              .area_quantum = 1.0});
    EXPECT_TRUE(r.in_hw[0]);
    EXPECT_FALSE(r.in_hw[1]);
    EXPECT_FALSE(r.in_hw[2]);  // without the saving it is a loss
}

TEST(Pace, evaluate_partition_round_trip)
{
    std::vector<lp::Bsb_cost> costs = {
        make_cost(1000, 100, 10, 0, 50),
        make_cost(500, 100, 10, 20, 50),
    };
    const std::vector<bool> both = {true, true};
    const auto r = lp::evaluate_partition(costs, both);
    EXPECT_DOUBLE_EQ(r.time_all_sw_ns, 1500.0);
    EXPECT_DOUBLE_EQ(r.time_hybrid_ns, 110.0 + 110.0 - 20.0);
    EXPECT_EQ(r.n_in_hw, 2);
    EXPECT_DOUBLE_EQ(r.ctrl_area_used, 100.0);
    EXPECT_DOUBLE_EQ(r.hw_fraction(), 1.0);
    EXPECT_THROW(lp::evaluate_partition(costs, std::vector<bool>(3)),
                 std::invalid_argument);
}

TEST(Pace, negative_budget_throws)
{
    EXPECT_THROW(lp::pace_partition({}, {.ctrl_area_budget = -5.0}),
                 std::invalid_argument);
}

TEST(Pace, non_finite_budget_and_bad_width_throw)
{
    constexpr double inf = std::numeric_limits<double>::infinity();
    EXPECT_THROW(lp::pace_partition({}, {.ctrl_area_budget = inf}),
                 std::invalid_argument);
    EXPECT_THROW(lp::pace_partition({}, {.ctrl_area_budget = 10.0,
                                         .max_dp_width = 1}),
                 std::invalid_argument);
}

TEST(Pace, workspace_reuse_is_bit_identical)
{
    // Alternate two differently-sized problems through one workspace;
    // every call must match a fresh-buffer run exactly.
    std::vector<lp::Bsb_cost> big;
    lycos::util::Rng rng(11);
    for (int i = 0; i < 12; ++i)
        big.push_back(make_cost(rng.uniform_real(100, 4000),
                                rng.uniform_real(50, 2000),
                                rng.uniform_real(0, 100),
                                i > 0 ? rng.uniform_real(0, 50) : 0,
                                rng.uniform_int(1, 70)));
    std::vector<lp::Bsb_cost> small = {
        make_cost(1000, 100, 50, 0, 40),
        make_cost(100, 60, 50, 100, 10),
    };

    lp::Pace_workspace ws;
    for (int round = 0; round < 3; ++round) {
        for (const auto* costs : {&big, &small}) {
            const lp::Pace_options opts{.ctrl_area_budget = 150.0,
                                        .area_quantum = 1.0};
            const auto fresh = lp::pace_partition(*costs, opts);
            const auto reused = lp::pace_partition(*costs, opts, &ws);
            EXPECT_EQ(fresh.in_hw, reused.in_hw);
            EXPECT_EQ(fresh.time_hybrid_ns, reused.time_hybrid_ns);
            EXPECT_EQ(fresh.ctrl_area_used, reused.ctrl_area_used);
        }
    }
}

TEST(Pace, pathological_quantum_is_requantized_not_allocated)
{
    // budget/quantum of 10^13 would mean a ~terabyte DP table; the
    // width cap re-quantizes instead and documents the quantum used.
    std::vector<lp::Bsb_cost> costs = {
        make_cost(1000, 100, 0, 0, 40),
        make_cost(3000, 100, 0, 0, 60),
    };
    const auto r = lp::pace_partition(
        costs, {.ctrl_area_budget = 1e7, .area_quantum = 1e-6});
    EXPECT_GT(r.area_quantum_used, 1e-6);
    EXPECT_LE(r.ctrl_area_used, 1e7 + 1e-9);
    EXPECT_TRUE(r.in_hw[0]);
    EXPECT_TRUE(r.in_hw[1]);

    // A small explicit cap re-quantizes too: width stays <= cap while
    // the result still respects the budget.
    const auto tight = lp::pace_partition(
        costs, {.ctrl_area_budget = 100.0, .area_quantum = 1.0,
                .max_dp_width = 16});
    EXPECT_DOUBLE_EQ(tight.area_quantum_used, 100.0 / 15.0);
    EXPECT_LE(tight.ctrl_area_used, 100.0 + 1e-9);
}

// The tentpole contract: a checkpointing workspace fed neighbouring
// cost vectors (shared prefixes, mutated suffixes) returns the exact
// partition a cold run computes, bit for bit, across random suffix
// mutations, budget changes and table-budget widening.
TEST(Pace, incremental_matches_cold_on_neighbouring_costs)
{
    lycos::util::Rng rng(21);
    const int n = 14;
    std::vector<lp::Bsb_cost> costs;
    for (int i = 0; i < n; ++i)
        costs.push_back(make_cost(rng.uniform_real(100, 5000),
                                  rng.uniform_real(50, 3000),
                                  rng.uniform_real(0, 200),
                                  i > 0 ? rng.uniform_real(0, 100) : 0,
                                  rng.uniform_int(1, 60)));

    lp::Pace_workspace ws;
    for (int round = 0; round < 40; ++round) {
        // Mutate a random suffix — the search-tree locality pattern.
        const int s = rng.uniform_int(0, n - 1);
        for (int i = s; i < n; ++i) {
            costs[static_cast<std::size_t>(i)].t_hw =
                rng.uniform_real(50, 3000);
            costs[static_cast<std::size_t>(i)].ctrl_area =
                rng.uniform_int(1, 60);
        }
        // The fixed table budget keeps the DP width stable across the
        // varying leftover budgets — exactly how the search pins it —
        // so the checkpoint stays resumable from round to round.
        lp::Pace_options opts{
            .ctrl_area_budget =
                static_cast<double>(rng.uniform_int(20, 300)),
            .area_quantum = 1.0,
            .table_area_budget = 300.0};

        const double inc_saving = lp::pace_best_saving(costs, opts, &ws);
        const double cold_saving = lp::pace_best_saving(costs, opts);
        EXPECT_EQ(inc_saving, cold_saving) << "round " << round;

        const auto inc = lp::pace_partition(costs, opts, &ws);
        const auto cold = lp::pace_partition(costs, opts);
        EXPECT_EQ(inc.in_hw, cold.in_hw) << "round " << round;
        EXPECT_EQ(inc.time_hybrid_ns, cold.time_hybrid_ns);
        EXPECT_EQ(inc.ctrl_area_used, cold.ctrl_area_used);
    }
    EXPECT_GT(ws.rows_reused(), 0);
}

// A fixed table budget only widens the DP table; the answer still
// maxes over the real budget, bit-identically to the narrow table.
TEST(Pace, table_budget_is_bit_identical)
{
    lycos::util::Rng rng(33);
    for (int trial = 0; trial < 20; ++trial) {
        const int n = rng.uniform_int(1, 12);
        std::vector<lp::Bsb_cost> costs;
        for (int i = 0; i < n; ++i)
            costs.push_back(make_cost(rng.uniform_real(100, 5000),
                                      rng.uniform_real(50, 3000),
                                      rng.uniform_real(0, 200),
                                      i > 0 ? rng.uniform_real(0, 100) : 0,
                                      rng.uniform_int(1, 60)));
        const double budget = rng.uniform_int(20, 200);
        const lp::Pace_options narrow{.ctrl_area_budget = budget,
                                      .area_quantum = 1.0};
        const lp::Pace_options wide{.ctrl_area_budget = budget,
                                    .area_quantum = 1.0,
                                    .table_area_budget = 500.0};
        const auto a = lp::pace_partition(costs, narrow);
        const auto b = lp::pace_partition(costs, wide);
        EXPECT_EQ(a.in_hw, b.in_hw) << "trial " << trial;
        EXPECT_EQ(a.time_hybrid_ns, b.time_hybrid_ns);
        EXPECT_EQ(lp::pace_best_saving(costs, narrow),
                  lp::pace_best_saving(costs, wide));
    }
}

// Checkpoint bookkeeping: full reuse on identical costs, resume at
// the first divergent row, and a full restart whenever the setup
// fingerprint (quantum / width) mismatches or the checkpoint is
// dropped — results stay correct in every case.
TEST(Pace, checkpoint_counters_and_mismatch_forces_restart)
{
    std::vector<lp::Bsb_cost> costs;
    for (int i = 0; i < 10; ++i)
        costs.push_back(
            make_cost(1000 + 10 * i, 100 + i, 5, i > 0 ? 2 : 0, 5 + i));
    const lp::Pace_options opts{.ctrl_area_budget = 60.0,
                                .area_quantum = 1.0};

    lp::Pace_workspace ws;
    const double v0 = lp::pace_best_saving(costs, opts, &ws);
    EXPECT_EQ(ws.rows_swept(), 10);
    EXPECT_EQ(ws.rows_reused(), 0);

    // Identical call: everything resumes from the checkpoint.
    EXPECT_EQ(lp::pace_best_saving(costs, opts, &ws), v0);
    EXPECT_EQ(ws.rows_swept(), 10);
    EXPECT_EQ(ws.rows_reused(), 10);

    // Divergence at row k: k rows reused, the rest swept.
    costs[6].t_hw += 1.0;
    lp::pace_best_saving(costs, opts, &ws);
    EXPECT_EQ(ws.rows_reused(), 16);
    EXPECT_EQ(ws.rows_swept(), 14);

    // Fingerprint mismatch (different quantum): full restart.
    lp::Pace_options finer = opts;
    finer.area_quantum = 0.5;
    const auto fine_ws = lp::pace_best_saving(costs, finer, &ws);
    EXPECT_EQ(ws.rows_reused(), 16);
    EXPECT_EQ(ws.rows_swept(), 24);
    EXPECT_EQ(fine_ws, lp::pace_best_saving(costs, finer));

    // Dropped checkpoint: full restart despite identical costs.
    ws.invalidate_checkpoint();
    lp::pace_best_saving(costs, finer, &ws);
    EXPECT_EQ(ws.rows_reused(), 16);
    EXPECT_EQ(ws.rows_swept(), 34);

    // A traced call cannot reuse rows the value-only sweeps cannot
    // vouch traceback for: the first partition restarts, the second
    // resumes fully.
    lp::Pace_workspace ws2;
    lp::pace_best_saving(costs, opts, &ws2);
    const auto p1 = lp::pace_partition(costs, opts, &ws2);
    EXPECT_EQ(ws2.rows_reused(), 0);
    const auto p2 = lp::pace_partition(costs, opts, &ws2);
    EXPECT_EQ(ws2.rows_reused(), 10);
    EXPECT_EQ(p1.in_hw, p2.in_hw);
    EXPECT_EQ(p1.time_hybrid_ns, p2.time_hybrid_ns);
}

// Re-quantization edge: a workspace carried across calls whose tiny
// quantum trips the max_dp_width guard must agree with cold runs.
TEST(Pace, incremental_requantization_matches_cold)
{
    std::vector<lp::Bsb_cost> costs = {
        make_cost(1000, 100, 0, 0, 40),
        make_cost(3000, 100, 0, 0, 60),
        make_cost(2000, 300, 10, 5, 30),
    };
    lp::Pace_workspace ws;
    for (int round = 0; round < 4; ++round) {
        costs[2].t_hw = 300.0 + 40.0 * round;
        const lp::Pace_options opts{.ctrl_area_budget = 100.0,
                                    .area_quantum = 1.0,
                                    .max_dp_width = 16};
        const auto inc = lp::pace_partition(costs, opts, &ws);
        const auto cold = lp::pace_partition(costs, opts);
        EXPECT_EQ(inc.in_hw, cold.in_hw) << "round " << round;
        EXPECT_EQ(inc.time_hybrid_ns, cold.time_hybrid_ns);
        EXPECT_DOUBLE_EQ(inc.area_quantum_used, 100.0 / 15.0);
    }
}

// Above the checkpoint-arena cap the workspace path falls back to the
// two-row scratch — and a traced fallback call must invalidate the
// trace record, or a later checkpointing call at the same width would
// resume over rows the big problem overwrote.
TEST(Pace, checkpoint_cap_falls_back_and_stays_correct)
{
    const lp::Pace_options opts{.ctrl_area_budget = 1000.0,
                                .area_quantum = 1.0};
    std::vector<lp::Bsb_cost> small;
    for (int i = 0; i < 4; ++i)
        small.push_back(make_cost(1000 + i, 100, 5, i > 0 ? 3 : 0, 200));

    lp::Pace_workspace ws;
    const auto first = lp::pace_partition(small, opts, &ws);
    const auto swept_small = ws.rows_swept();

    // 3500 rows at width 1001 exceeds the row arena cap: this traced
    // call runs uncheckpointed (counters freeze) and scribbles over
    // the traceback rows.
    std::vector<lp::Bsb_cost> big;
    lycos::util::Rng rng(5);
    for (int i = 0; i < 3500; ++i)
        big.push_back(make_cost(rng.uniform_real(100, 2000),
                                rng.uniform_real(50, 1000),
                                rng.uniform_real(0, 20),
                                i > 0 ? rng.uniform_real(0, 10) : 0,
                                rng.uniform_int(1, 400)));
    const auto huge = lp::pace_partition(big, opts, &ws);
    EXPECT_EQ(ws.rows_swept(), swept_small + 3500);  // all swept —
    EXPECT_EQ(ws.rows_reused(), 0);                  // nothing resumed
    const auto huge_cold = lp::pace_partition(big, opts);
    EXPECT_EQ(huge.in_hw, huge_cold.in_hw);
    EXPECT_EQ(huge.time_hybrid_ns, huge_cold.time_hybrid_ns);

    // Same small costs and width again: must match the original
    // partition even though the traceback rows were overwritten.
    const auto again = lp::pace_partition(small, opts, &ws);
    EXPECT_EQ(again.in_hw, first.in_hw);
    EXPECT_EQ(again.time_hybrid_ns, first.time_hybrid_ns);
}

TEST(Pace, max_gain_bounds_every_partition)
{
    lycos::util::Rng rng(3);
    for (int trial = 0; trial < 20; ++trial) {
        const int n = rng.uniform_int(1, 10);
        std::vector<lp::Bsb_cost> costs;
        for (int i = 0; i < n; ++i)
            costs.push_back(make_cost(rng.uniform_real(100, 5000),
                                      rng.uniform_real(50, 3000),
                                      rng.uniform_real(0, 200),
                                      i > 0 ? rng.uniform_real(0, 100) : 0,
                                      rng.uniform_int(1, 60)));
        const double budget = rng.uniform_int(20, 300);
        const auto dp = lp::pace_partition(
            costs, {.ctrl_area_budget = budget, .area_quantum = 1.0});
        const double saving = dp.time_all_sw_ns - dp.time_hybrid_ns;
        EXPECT_LE(saving, lp::max_gain(costs) + 1e-9)
            << "max_gain not admissible for trial " << trial;
    }
}

TEST(Pace, best_saving_matches_full_partition)
{
    lycos::util::Rng rng(9);
    lp::Pace_workspace ws;
    for (int trial = 0; trial < 20; ++trial) {
        const int n = rng.uniform_int(1, 12);
        std::vector<lp::Bsb_cost> costs;
        for (int i = 0; i < n; ++i)
            costs.push_back(make_cost(rng.uniform_real(100, 5000),
                                      rng.uniform_real(50, 3000),
                                      rng.uniform_real(0, 200),
                                      i > 0 ? rng.uniform_real(0, 100) : 0,
                                      rng.uniform_int(1, 60)));
        const lp::Pace_options opts{
            .ctrl_area_budget = static_cast<double>(rng.uniform_int(20, 300)),
            .area_quantum = 1.0};
        const auto full = lp::pace_partition(costs, opts);
        const double value = lp::pace_best_saving(costs, opts, &ws);
        EXPECT_NEAR(value, full.time_all_sw_ns - full.time_hybrid_ns, 1e-6)
            << "screening DP disagrees with the full DP, trial " << trial;
    }
}

// The key property: the DP matches exhaustive enumeration.
class PaceVsBrute : public ::testing::TestWithParam<int> {};

TEST_P(PaceVsBrute, dp_equals_brute_force)
{
    lycos::util::Rng rng(static_cast<std::uint64_t>(GetParam()) + 7);
    const int n = rng.uniform_int(1, 12);
    std::vector<lp::Bsb_cost> costs;
    for (int i = 0; i < n; ++i) {
        const double t_sw = rng.uniform_real(100.0, 5000.0);
        const double t_hw = rng.uniform_real(50.0, 3000.0);
        const double comm = rng.uniform_real(0.0, 200.0);
        const double save = i > 0 ? rng.uniform_real(0.0, comm) : 0.0;
        // Integer areas so quantum=1 makes the DP exact.
        const double area = rng.uniform_int(1, 80);
        costs.push_back(make_cost(t_sw, t_hw, comm, save, area));
    }
    const double budget = rng.uniform_int(20, 200);

    const auto dp = lp::pace_partition(
        costs, {.ctrl_area_budget = budget, .area_quantum = 1.0});
    const auto bf = lp::brute_force_partition(costs, budget);

    EXPECT_NEAR(dp.time_hybrid_ns, bf.time_hybrid_ns, 1e-6)
        << "DP and brute force disagree for seed " << GetParam();
    EXPECT_LE(dp.ctrl_area_used, budget + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PaceVsBrute, ::testing::Range(0, 30));

TEST(PaceBrute, too_many_bsbs_throws)
{
    std::vector<lp::Bsb_cost> costs(25, make_cost(1, 1, 0, 0, 1));
    EXPECT_THROW(lp::brute_force_partition(costs, 10.0),
                 std::invalid_argument);
}

// ------------------------------------------------------------------
// Cost model
// ------------------------------------------------------------------

TEST(CostModel, feasible_and_infeasible_entries)
{
    const auto lib = lh::make_default_library();
    const auto target = lh::make_default_target(10000.0);

    std::vector<lb::Bsb> bsbs;
    lb::Bsb b1;
    b1.graph.add_op(Op_kind::add);
    b1.graph.add_live_in("x");
    b1.graph.add_live_out("y");
    b1.profile = 10.0;
    bsbs.push_back(std::move(b1));
    lb::Bsb b2;
    b2.graph.add_op(Op_kind::mul);
    b2.profile = 2.0;
    bsbs.push_back(std::move(b2));

    lc::Rmap alloc;
    alloc.add(*lib.find("adder"));  // adder only: b2 infeasible

    const auto costs = lp::build_cost_model(
        bsbs, lib, target, alloc, lp::Controller_mode::optimistic_eca);
    ASSERT_EQ(costs.size(), 2u);
    EXPECT_GT(costs[0].t_sw, 0.0);
    EXPECT_FALSE(std::isinf(costs[0].t_hw));
    // one add at 1 cycle * 10 runs
    EXPECT_DOUBLE_EQ(costs[0].t_hw, target.asic.cycle_ns() * 10.0);
    // two live values * bus word * 10 runs
    EXPECT_DOUBLE_EQ(costs[0].comm, 2 * target.bus.ns_per_word * 10.0);
    EXPECT_TRUE(std::isinf(costs[1].t_hw));
    EXPECT_TRUE(std::isinf(costs[1].ctrl_area));
}

TEST(CostModel, controller_modes_differ_under_scarcity)
{
    const auto lib = lh::make_default_library();
    const auto target = lh::make_default_target(10000.0);

    std::vector<lb::Bsb> bsbs;
    lb::Bsb b;
    for (int i = 0; i < 6; ++i)
        b.graph.add_op(Op_kind::add);  // 6 parallel adds
    b.profile = 1.0;
    bsbs.push_back(std::move(b));

    lc::Rmap one_adder;
    one_adder.add(*lib.find("adder"));

    const auto optimistic = lp::build_cost_model(
        bsbs, lib, target, one_adder, lp::Controller_mode::optimistic_eca);
    const auto real = lp::build_cost_model(
        bsbs, lib, target, one_adder, lp::Controller_mode::list_schedule);
    // ASAP length is 1 (all parallel) but one adder serializes to 6
    // states: the real controller is strictly larger (§5.1).
    EXPECT_LT(optimistic[0].ctrl_area, real[0].ctrl_area);
}

TEST(CostModel, all_sw_time_is_sum)
{
    std::vector<lp::Bsb_cost> costs = {
        make_cost(100, 1, 0, 0, 1),
        make_cost(250, 1, 0, 0, 1),
    };
    EXPECT_DOUBLE_EQ(lp::all_sw_time_ns(costs), 350.0);
}

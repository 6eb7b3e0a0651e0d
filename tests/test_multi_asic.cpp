// Tests for the two-ASIC extension: the generalized DP against a 3^L
// brute force, budget handling, same-ASIC adjacency, and the two-ASIC
// allocator's invariants.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "apps/apps.hpp"
#include "core/analysis.hpp"
#include "core/multi_allocator.hpp"
#include "core/restrictions.hpp"
#include "hw/target.hpp"
#include "pace/cost_model.hpp"
#include "pace/multi_asic.hpp"
#include "search/alloc_space.hpp"
#include "support/multi_pace_reference.hpp"
#include "util/rng.hpp"

namespace lp = lycos::pace;
namespace lc = lycos::core;
namespace lh = lycos::hw;
namespace lb = lycos::bsb;
using lh::Op_kind;
using lp::Placement;

namespace {

lp::Multi_bsb_cost make_cost(double t_sw, double hw0, double hw1,
                             double area0, double area1, double save0 = 0.0,
                             double save1 = 0.0)
{
    lp::Multi_bsb_cost c;
    c.t_sw = t_sw;
    c.hw[0].t_sw = t_sw;
    c.hw[1].t_sw = t_sw;
    c.hw[0].t_hw = hw0;
    c.hw[1].t_hw = hw1;
    c.hw[0].ctrl_area = area0;
    c.hw[1].ctrl_area = area1;
    c.hw[0].save_prev = save0;
    c.hw[1].save_prev = save1;
    return c;
}

/// Exact optimum by trying all 3^n placements.
lp::Multi_pace_result brute_force(std::span<const lp::Multi_bsb_cost> costs,
                                  std::array<double, 2> budgets)
{
    const std::size_t n = costs.size();
    std::vector<Placement> placement(n, Placement::software);
    lp::Multi_pace_result best =
        lp::evaluate_multi_partition(costs, placement);

    std::vector<int> digits(n, 0);
    const auto total = static_cast<long long>(std::pow(3.0, n));
    for (long long m = 1; m < total; ++m) {
        long long v = m;
        for (std::size_t i = 0; i < n; ++i) {
            digits[i] = static_cast<int>(v % 3);
            v /= 3;
        }
        std::array<double, 2> used{0.0, 0.0};
        bool feasible = true;
        for (std::size_t i = 0; i < n && feasible; ++i) {
            placement[i] = static_cast<Placement>(digits[i] - 1);
            if (digits[i] > 0) {
                const auto& c = costs[i].hw[static_cast<std::size_t>(
                    digits[i] - 1)];
                if (std::isinf(c.t_hw) || std::isinf(c.ctrl_area))
                    feasible = false;
                else
                    used[static_cast<std::size_t>(digits[i] - 1)] +=
                        c.ctrl_area;
            }
        }
        if (!feasible || used[0] > budgets[0] || used[1] > budgets[1])
            continue;
        const auto r = lp::evaluate_multi_partition(costs, placement);
        if (r.time_hybrid_ns < best.time_hybrid_ns)
            best = r;
    }
    return best;
}

}  // namespace

TEST(MultiPace, empty_and_negative_budget)
{
    EXPECT_THROW(
        lp::multi_pace_partition({}, {.ctrl_area_budgets = {-1.0, 0.0}}),
        std::invalid_argument);
    const auto r =
        lp::multi_pace_partition({}, {.ctrl_area_budgets = {10.0, 10.0}});
    EXPECT_TRUE(r.placement.empty());
}

TEST(MultiPace, splits_across_asics_when_one_is_full)
{
    // Two profitable BSBs, each controller fills one whole ASIC.
    std::vector<lp::Multi_bsb_cost> costs = {
        make_cost(1000, 100, 100, 50, 50),
        make_cost(1000, 100, 100, 50, 50),
    };
    const auto r = lp::multi_pace_partition(
        costs, {.ctrl_area_budgets = {50.0, 50.0}, .area_quantum = 1.0});
    EXPECT_EQ(r.n_in_hw, 2);
    EXPECT_NE(r.placement[0], r.placement[1]);
    EXPECT_NE(r.placement[0], Placement::software);
}

TEST(MultiPace, prefers_the_faster_asic)
{
    // ASIC1 executes the BSB twice as fast (richer data-path).
    std::vector<lp::Multi_bsb_cost> costs = {
        make_cost(1000, 400, 200, 10, 10),
    };
    const auto r = lp::multi_pace_partition(
        costs, {.ctrl_area_budgets = {100.0, 100.0}, .area_quantum = 1.0});
    EXPECT_EQ(r.placement[0], Placement::asic1);
}

TEST(MultiPace, adjacency_saving_only_on_same_asic)
{
    // BSB1 saves 150 if it sits next to BSB0 on the same ASIC; placing
    // them on different ASICs forfeits the saving.  Budgets force the
    // DP to weigh this.
    std::vector<lp::Multi_bsb_cost> costs = {
        make_cost(1000, 100, 100, 40, 40),
        make_cost(500, 300, 300, 40, 40, 150.0, 150.0),
    };
    // Both fit on ASIC0 together: saving applies.
    const auto both = lp::multi_pace_partition(
        costs, {.ctrl_area_budgets = {80.0, 0.0}, .area_quantum = 1.0});
    EXPECT_EQ(both.placement[0], Placement::asic0);
    EXPECT_EQ(both.placement[1], Placement::asic0);
    // 100 + (300 - 150) = 250 hybrid
    EXPECT_DOUBLE_EQ(both.time_hybrid_ns, 250.0);

    // Budgets force a split: the saving is lost, so BSB1's hardware
    // gain (500 - 300 = 200 without saving) still wins but costs more.
    const auto split = lp::multi_pace_partition(
        costs, {.ctrl_area_budgets = {40.0, 40.0}, .area_quantum = 1.0});
    EXPECT_NE(split.placement[0], split.placement[1]);
    EXPECT_DOUBLE_EQ(split.time_hybrid_ns, 400.0);  // 100 + 300
}

TEST(MultiPace, infeasible_on_one_asic_uses_the_other)
{
    constexpr double inf = std::numeric_limits<double>::infinity();
    std::vector<lp::Multi_bsb_cost> costs = {
        make_cost(1000, inf, 100, inf, 10),
    };
    const auto r = lp::multi_pace_partition(
        costs, {.ctrl_area_budgets = {100.0, 100.0}, .area_quantum = 1.0});
    EXPECT_EQ(r.placement[0], Placement::asic1);
}

TEST(MultiPace, evaluate_round_trip_and_size_mismatch)
{
    std::vector<lp::Multi_bsb_cost> costs = {
        make_cost(1000, 100, 200, 10, 20),
    };
    const auto r = lp::evaluate_multi_partition(
        costs, {Placement::asic1});
    EXPECT_DOUBLE_EQ(r.time_hybrid_ns, 200.0);
    EXPECT_DOUBLE_EQ(r.ctrl_area_used[1], 20.0);
    EXPECT_DOUBLE_EQ(r.ctrl_area_used[0], 0.0);
    EXPECT_THROW(lp::evaluate_multi_partition(costs, {}),
                 std::invalid_argument);
}

// The sparse contract: the Pareto-sparse DP with its per-state nibble
// traceback returns the identical placement and time the dense
// full-scan reference computes, across random costs (including
// infeasible entries), random budgets, explicit and auto quanta, and a
// workspace reused over differently-sized problems.  Values, tracebacks and
// area_quantum_used must all agree bit for bit.
namespace {

/// One random two-ASIC case of the sparse-vs-dense trials: 1-10 BSBs
/// with random costs (including infeasible entries and duplicated
/// BSBs), random budgets, and an auto quantum every third trial.
struct Multi_case {
    std::vector<lp::Multi_bsb_cost> costs;
    lp::Multi_pace_options opts;
};

Multi_case random_multi_case(lycos::util::Rng& rng, int trial)
{
    constexpr double inf = std::numeric_limits<double>::infinity();
    Multi_case out;
    auto& costs = out.costs;
    const int n = rng.uniform_int(1, 10);
    for (int i = 0; i < n; ++i) {
        auto c = make_cost(
            rng.uniform_real(100.0, 4000.0), rng.uniform_real(50.0, 2500.0),
            rng.uniform_real(50.0, 2500.0), rng.uniform_int(1, 40),
            rng.uniform_int(1, 40), i > 0 ? rng.uniform_real(0.0, 50.0) : 0.0,
            i > 0 ? rng.uniform_real(0.0, 50.0) : 0.0);
        if (rng.uniform_int(0, 9) == 0) {
            const std::size_t a =
                static_cast<std::size_t>(rng.uniform_int(0, 1));
            c.hw[a].t_hw = inf;
            c.hw[a].ctrl_area = inf;
        }
        // Duplicated controller areas and times provoke the value
        // ties / colinear states dominance must break exactly the
        // way the dense improving-write order does.
        if (i > 0 && rng.uniform_int(0, 3) == 0)
            c = costs.back();
        costs.push_back(c);
    }
    out.opts = {.ctrl_area_budgets = {static_cast<double>(
                                          rng.uniform_int(10, 90)),
                                      static_cast<double>(
                                          rng.uniform_int(10, 90))},
                .area_quantum = trial % 3 == 0 ? 0.0 : 1.0};
    return out;
}

}  // namespace

TEST(MultiPace, sparse_matches_dense_randomized)
{
    lycos::util::Rng rng(47);
    lp::Multi_pace_workspace ws;
    for (int trial = 0; trial < 60; ++trial) {
        const auto [costs, opts] = random_multi_case(rng, trial);

        const auto sparse = lp::multi_pace_partition(costs, opts, &ws);
        const auto dense = lp::multi_pace_partition_reference(costs, opts);
        EXPECT_EQ(sparse.placement, dense.placement) << "trial " << trial;
        EXPECT_EQ(sparse.time_hybrid_ns, dense.time_hybrid_ns);
        EXPECT_EQ(sparse.area_quantum_used, dense.area_quantum_used);
        EXPECT_LE(sparse.ctrl_area_used[0],
                  opts.ctrl_area_budgets[0] + 1e-9);
        EXPECT_LE(sparse.ctrl_area_used[1],
                  opts.ctrl_area_budgets[1] + 1e-9);
        // Sparse observability: the antichains can never store more
        // than the dense grid holds.
        EXPECT_GT(sparse.dp_states_stored, 0);
        EXPECT_LE(sparse.dp_cells_swept, sparse.dp_cells_dense);
        EXPECT_EQ(sparse.dp_cells_dense, dense.dp_cells_swept);

        // Value-only screening agrees with the full partition.
        const double saving = lp::multi_pace_best_saving(costs, opts, &ws);
        EXPECT_NEAR(saving, sparse.time_all_sw_ns - sparse.time_hybrid_ns,
                    1e-6)
            << "trial " << trial;

        // Optimistic rounding is admissible: the floor-rounded value
        // upper-bounds the ceil-rounded one at the same quantum.
        lp::Multi_pace_options relaxed = opts;
        relaxed.optimistic_rounding = true;
        EXPECT_GE(lp::multi_pace_best_saving(costs, relaxed, &ws) + 1e-9,
                  saving)
            << "trial " << trial;
    }
}

// The saving floor: over the same 60 trials, a floor at or below the
// optimum changes nothing — value and placement bit-identical to the
// floorless sweep and to the dense reference, one ulp either side of
// the optimum included — and a floor above it yields a value below
// the floor that is not the tripped-token -inf.  A floor no state can
// reach empties the sweep: lowest() and the all-software placement.
TEST(MultiPace, saving_floor_matches_untargeted_randomized)
{
    constexpr double inf = std::numeric_limits<double>::infinity();
    lycos::util::Rng rng(47);
    lp::Multi_pace_workspace ws;
    for (int trial = 0; trial < 60; ++trial) {
        const auto [costs, opts] = random_multi_case(rng, trial);
        const double opt = lp::multi_pace_best_saving(costs, opts, &ws);
        EXPECT_EQ(ws.last_states_dropped(), 0) << "trial " << trial;
        const auto plain = lp::multi_pace_partition(costs, opts, &ws);
        const auto dense = lp::multi_pace_partition_reference(costs, opts);
        ASSERT_EQ(plain.placement, dense.placement) << "trial " << trial;

        const double delta = 1.0;
        for (const double min_saving :
             {opt - delta, std::nextafter(opt, -inf), opt,
              std::nextafter(opt, inf), opt + delta, -inf}) {
            lp::Multi_pace_options floored = opts;
            floored.min_saving = min_saving;
            const double value =
                lp::multi_pace_best_saving(costs, floored, &ws);
            const auto part = lp::multi_pace_partition(costs, floored, &ws);
            if (opt >= min_saving) {
                EXPECT_EQ(value, opt) << "trial " << trial;
                EXPECT_EQ(part.placement, plain.placement)
                    << "trial " << trial;
                EXPECT_EQ(part.placement, dense.placement)
                    << "trial " << trial;
                EXPECT_EQ(part.time_hybrid_ns, plain.time_hybrid_ns);
                EXPECT_EQ(part.area_quantum_used, plain.area_quantum_used);
            }
            else {
                EXPECT_LT(value, min_saving) << "trial " << trial;
                EXPECT_NE(value, -inf) << "trial " << trial;
                // Whatever survives is a real placement: within the
                // budgets and no better than the optimum.
                EXPECT_GE(part.time_hybrid_ns + 1e-6, plain.time_hybrid_ns)
                    << "trial " << trial;
                EXPECT_LE(part.ctrl_area_used[0],
                          opts.ctrl_area_budgets[0] + 1e-9);
                EXPECT_LE(part.ctrl_area_used[1],
                          opts.ctrl_area_budgets[1] + 1e-9);
            }
            if (min_saving >= opt + delta)
                EXPECT_GT(ws.last_states_dropped(), 0) << "trial " << trial;
        }

        // Above every completion's bound: the first row empties the
        // sweep.
        lp::Multi_pace_options beyond = opts;
        beyond.min_saving = lp::multi_max_gain(costs) + 1e3;
        EXPECT_EQ(lp::multi_pace_best_saving(costs, beyond, &ws),
                  std::numeric_limits<double>::lowest())
            << "trial " << trial;
        EXPECT_GT(ws.last_states_dropped(), 0);
        const auto none = lp::multi_pace_partition(costs, beyond, &ws);
        EXPECT_EQ(none.placement,
                  std::vector<Placement>(costs.size(), Placement::software));
        EXPECT_EQ(none.time_hybrid_ns, none.time_all_sw_ns);
    }
}

// ------------------------------------------------------------------
// Dominance pruning (Multi_pace_state_set::prune)
// ------------------------------------------------------------------

namespace {

/// AoS convenience shim over the SoA prune: tests state their cases
/// as Multi_state lists, prune runs on the production Multi_state_soa
/// layout.
std::vector<lp::Multi_state> pruned(
    const std::vector<lp::Multi_state>& states, int a1_cap,
    double need = -std::numeric_limits<double>::infinity(),
    std::size_t* dropped = nullptr)
{
    lp::Multi_state_soa soa;
    for (const auto& s : states)
        soa.push_back(s.a0, s.a1, s.value, s.parent);
    lp::Multi_pace_state_set set;
    const std::size_t n_dropped = set.prune(soa, a1_cap, need);
    if (dropped != nullptr)
        *dropped = n_dropped;
    std::vector<lp::Multi_state> out;
    for (std::size_t i = 0; i < soa.size(); ++i)
        out.push_back(soa[i]);
    return out;
}

}  // namespace

// The pair walk screens with multi_max_gain over per-point terms
// precomputed once per axis point; that form must equal the
// combined-cost bound bit for bit — infeasible sides, losing
// hardware and negative adjacency included — and stay admissible.
TEST(MultiMaxGain, per_asic_terms_match_the_combined_bound)
{
    constexpr double inf = std::numeric_limits<double>::infinity();
    lycos::util::Rng rng(91);
    std::vector<double> g0;
    std::vector<double> g1;
    for (int trial = 0; trial < 200; ++trial) {
        const int n = rng.uniform_int(1, 8);
        std::vector<lp::Multi_bsb_cost> costs;
        std::array<std::vector<lp::Bsb_cost>, 2> split;
        for (int i = 0; i < n; ++i) {
            auto c = make_cost(rng.uniform_real(100.0, 3000.0),
                               rng.uniform_real(50.0, 4000.0),
                               rng.uniform_real(50.0, 4000.0),
                               rng.uniform_int(1, 40), rng.uniform_int(1, 40),
                               rng.uniform_real(-30.0, 50.0),
                               rng.uniform_real(-30.0, 50.0));
            for (auto& h : c.hw) {
                h.comm = rng.uniform_real(0.0, 200.0);
                if (rng.uniform_int(0, 5) == 0) {
                    h.t_hw = inf;
                    h.ctrl_area = inf;
                }
            }
            costs.push_back(c);
            split[0].push_back(c.hw[0]);
            split[1].push_back(c.hw[1]);
        }
        lp::multi_gain_terms(split[0], g0);
        lp::multi_gain_terms(split[1], g1);
        const double combined = lp::multi_max_gain(costs);
        EXPECT_EQ(lp::multi_max_gain(g0, g1), combined) << "trial " << trial;

        const auto best = brute_force(costs, {1e9, 1e9});
        EXPECT_LE(best.time_all_sw_ns - best.time_hybrid_ns,
                  combined + 1e-9 * best.time_all_sw_ns)
            << "trial " << trial;
    }
}

TEST(MultiStateSet, keeps_incomparable_drops_dominated)
{
    // (2,9) is dominated by (1,4): less area on both axes, more value.
    // (9,1) survives: no state has <= area on both axes with >= value.
    const auto kept = pruned(
        {{1, 4, 10.0, 0}, {2, 9, 8.0, 0}, {9, 1, 5.0, 0}}, 16);
    ASSERT_EQ(kept.size(), 2u);
    EXPECT_EQ(kept[0].a0, 1);
    EXPECT_EQ(kept[0].a1, 4);
    EXPECT_EQ(kept[1].a0, 9);
    EXPECT_EQ(kept[1].a1, 1);
}

TEST(MultiStateSet, value_ties_keep_the_smaller_area_state)
{
    // Equal values on comparable coordinates: only the cheaper state
    // survives (this is what makes the sparse final scan land on the
    // dense reference's first-maximum state).
    const auto kept =
        pruned({{1, 1, 7.0, 0}, {1, 3, 7.0, 0}, {2, 1, 7.0, 0}}, 8);
    ASSERT_EQ(kept.size(), 1u);
    EXPECT_EQ(kept[0].a0, 1);
    EXPECT_EQ(kept[0].a1, 1);
}

TEST(MultiStateSet, colinear_staircase_survives_whole)
{
    // A proper staircase — value strictly rising with area along both
    // axes traded against each other — is an antichain: nothing may
    // be dropped, order preserved.
    const std::vector<lp::Multi_state> stairs = {
        {0, 6, 1.0, 0}, {1, 4, 2.0, 0}, {2, 2, 3.0, 0}, {3, 0, 4.0, 0}};
    EXPECT_EQ(pruned(stairs, 8).size(), stairs.size());

    // Same coordinates along one axis (colinear): higher a1 must buy
    // strictly more value to survive.
    const auto kept = pruned(
        {{2, 1, 5.0, 0}, {2, 3, 5.0, 0}, {2, 5, 6.0, 0}, {2, 7, 4.0, 0}},
        8);
    ASSERT_EQ(kept.size(), 2u);
    EXPECT_EQ(kept[0].a1, 1);
    EXPECT_EQ(kept[1].a1, 5);
}

TEST(MultiStateSet, prune_is_complete_against_quadratic_reference)
{
    // Randomized completeness: the kept set must be exactly the
    // states no other state dominates, per the O(n^2) definition,
    // filtered by the floor `need` (-inf keeps every one).
    constexpr double inf = std::numeric_limits<double>::infinity();
    lycos::util::Rng rng(99);
    for (int trial = 0; trial < 50; ++trial) {
        const int cap = 12;
        std::vector<lp::Multi_state> states;
        for (int a0 = 0; a0 <= cap; ++a0)
            for (int a1 = 0; a1 <= cap; ++a1)
                if (rng.uniform_int(0, 3) == 0)
                    states.push_back(
                        {a0, a1,
                         static_cast<double>(rng.uniform_int(0, 6)), 0});
        std::vector<lp::Multi_state> undominated;
        for (const auto& s : states) {
            bool dominated = false;
            for (const auto& t : states)
                if ((t.a0 != s.a0 || t.a1 != s.a1) && t.a0 <= s.a0 &&
                    t.a1 <= s.a1 && t.value >= s.value)
                    dominated = true;
            if (!dominated)
                undominated.push_back(s);
        }
        for (const double need : {-inf, 0.0, 2.5, 3.0, 6.0, 7.0}) {
            std::vector<lp::Multi_state> expect;
            for (const auto& s : undominated)
                if (s.value >= need)
                    expect.push_back(s);
            std::size_t below = 0;
            for (const auto& s : states)
                below += s.value < need ? 1 : 0;
            std::size_t dropped = 0;
            const auto kept = pruned(states, cap, need, &dropped);
            EXPECT_EQ(dropped, below) << "trial " << trial;
            ASSERT_EQ(kept.size(), expect.size())
                << "trial " << trial << " need " << need;
            for (std::size_t i = 0; i < kept.size(); ++i) {
                EXPECT_EQ(kept[i].a0, expect[i].a0);
                EXPECT_EQ(kept[i].a1, expect[i].a1);
                EXPECT_EQ(kept[i].value, expect[i].value);
            }
        }
    }
}

TEST(MultiPace, auto_quantum_unified_with_single_asic_default)
{
    // Auto quantum = max budget / 4096 (at least one gate), same as
    // Pace_options — not the /256 the two-ASIC path once used — and
    // it is reported in the result.
    std::vector<lp::Multi_bsb_cost> costs = {
        make_cost(1000, 100, 100, 50, 50),
    };
    const auto small = lp::multi_pace_partition(
        costs, {.ctrl_area_budgets = {100.0, 60.0}});
    EXPECT_DOUBLE_EQ(small.area_quantum_used, 1.0);  // 100/4096 < 1 gate

    const auto large = lp::multi_pace_partition(
        costs, {.ctrl_area_budgets = {81920.0, 100.0}});
    EXPECT_DOUBLE_EQ(large.area_quantum_used, 81920.0 / 4096.0);
}

TEST(MultiPace, pathological_quantum_is_requantized_not_allocated)
{
    // budget/quantum of 10^13 per axis would mean an astronomical
    // (a0, a1) grid; the max_dp_cells guard re-quantizes instead and
    // reports the quantum used, and the result still respects the
    // budgets.
    std::vector<lp::Multi_bsb_cost> costs = {
        make_cost(1000, 100, 150, 40, 40),
        make_cost(3000, 100, 120, 60, 60),
    };
    const lp::Multi_pace_options opts{
        .ctrl_area_budgets = {1e7, 1e7}, .area_quantum = 1e-6};
    const auto r = lp::multi_pace_partition(costs, opts);
    EXPECT_GT(r.area_quantum_used, 1e-6);
    const double w0 = std::floor(1e7 / r.area_quantum_used) + 1.0;
    EXPECT_LE(w0 * w0, static_cast<double>(opts.max_dp_cells) * 1.01);
    EXPECT_LE(r.ctrl_area_used[0], 1e7 + 1e-9);
    EXPECT_LE(r.ctrl_area_used[1], 1e7 + 1e-9);
    EXPECT_EQ(r.n_in_hw, 2);
}

TEST(MultiPace, compact_traceback_is_at_least_4x_smaller)
{
    // Nibble packing alone halves each of the two dense byte arrays;
    // storing only the sparse rows' states shrinks it further.
    lycos::util::Rng rng(7);
    std::vector<lp::Multi_bsb_cost> costs;
    for (int i = 0; i < 12; ++i)
        costs.push_back(make_cost(
            rng.uniform_real(100.0, 4000.0), rng.uniform_real(50.0, 2500.0),
            rng.uniform_real(50.0, 2500.0), rng.uniform_int(1, 40),
            rng.uniform_int(1, 40), 0.0, 0.0));
    const auto r = lp::multi_pace_partition(
        costs, {.ctrl_area_budgets = {200.0, 200.0}, .area_quantum = 1.0});
    EXPECT_GT(r.traceback_bytes, 0u);
    EXPECT_GE(r.traceback_bytes_dense, 4 * r.traceback_bytes);
    EXPECT_GT(r.dp_cells_swept, 0);
    EXPECT_LE(r.dp_cells_swept, r.dp_cells_dense);
}

class MultiPaceVsBrute : public ::testing::TestWithParam<int> {};

TEST_P(MultiPaceVsBrute, dp_equals_brute_force)
{
    lycos::util::Rng rng(static_cast<std::uint64_t>(GetParam()) + 31);
    const int n = rng.uniform_int(1, 7);
    std::vector<lp::Multi_bsb_cost> costs;
    for (int i = 0; i < n; ++i) {
        const double t_sw = rng.uniform_real(100.0, 4000.0);
        const double save = i > 0 ? rng.uniform_real(0.0, 50.0) : 0.0;
        costs.push_back(make_cost(
            t_sw, rng.uniform_real(50.0, 2500.0),
            rng.uniform_real(50.0, 2500.0), rng.uniform_int(1, 40),
            rng.uniform_int(1, 40), save, save));
    }
    const std::array<double, 2> budgets = {
        static_cast<double>(rng.uniform_int(10, 90)),
        static_cast<double>(rng.uniform_int(10, 90))};

    const auto dp = lp::multi_pace_partition(
        costs, {.ctrl_area_budgets = budgets, .area_quantum = 1.0});
    const auto bf = brute_force(costs, budgets);
    EXPECT_NEAR(dp.time_hybrid_ns, bf.time_hybrid_ns, 1e-6)
        << "seed " << GetParam();
    EXPECT_LE(dp.ctrl_area_used[0], budgets[0] + 1e-9);
    EXPECT_LE(dp.ctrl_area_used[1], budgets[1] + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MultiPaceVsBrute, ::testing::Range(0, 20));

// ------------------------------------------------------------------
// Two-ASIC allocator
// ------------------------------------------------------------------

TEST(TwoAsicAllocator, placements_are_covered_and_budgets_respected)
{
    const auto app = lycos::apps::make_hal();
    const auto lib = lh::make_default_library();
    const auto target = lh::make_default_target(app.asic_area);
    const auto infos = lc::analyze(app.bsbs, lib, target.gates);

    const auto r = lc::allocate_two_asics(
        infos, lib,
        {.budgets = {app.asic_area / 2.0, app.asic_area / 2.0}});

    EXPECT_GE(r.remaining[0], 0.0);
    EXPECT_GE(r.remaining[1], 0.0);
    for (std::size_t i = 0; i < app.bsbs.size(); ++i) {
        const int placed = r.pseudo_placement[i];
        if (placed >= 0)
            EXPECT_TRUE(
                r.allocations[static_cast<std::size_t>(placed)].covers(
                    app.bsbs[i].graph.used_ops(), lib))
                << "BSB " << i;
    }
    // Restrictions hold per ASIC.
    for (const auto& alloc : r.allocations)
        for (const auto& [res, count] : alloc.entries())
            EXPECT_LE(count, r.restrictions(res));
}

TEST(TwoAsicAllocator, negative_budget_throws)
{
    const auto lib = lh::make_default_library();
    EXPECT_THROW(lc::allocate_two_asics(
                     std::vector<lc::Bsb_info>{}, lib,
                     {.budgets = {-1.0, 10.0}}),
                 std::invalid_argument);
}

TEST(TwoAsicAllocator, zero_budgets_allocate_nothing)
{
    const auto app = lycos::apps::make_hal();
    const auto lib = lh::make_default_library();
    const auto target = lh::make_default_target(app.asic_area);
    const auto infos = lc::analyze(app.bsbs, lib, target.gates);
    const auto r =
        lc::allocate_two_asics(infos, lib, {.budgets = {0.0, 0.0}});
    EXPECT_TRUE(r.allocations[0].empty());
    EXPECT_TRUE(r.allocations[1].empty());
}

TEST(TwoAsicAllocator, end_to_end_two_asic_speedup)
{
    // Allocate two half-size ASICs for man and partition with the
    // generalized DP: the flow must produce a real speed-up.
    const auto app = lycos::apps::make_man();
    const auto lib = lh::make_default_library();
    const auto target = lh::make_default_target(app.asic_area);
    const auto infos = lc::analyze(app.bsbs, lib, target.gates);

    const std::array<double, 2> budgets = {app.asic_area / 2.0,
                                           app.asic_area / 2.0};
    const auto alloc = lc::allocate_two_asics(infos, lib, {.budgets = budgets});

    const auto costs = lp::build_multi_cost_model(
        app.bsbs, lib, target, alloc.allocations[0], alloc.allocations[1],
        lp::Controller_mode::list_schedule);
    const auto r = lp::multi_pace_partition(
        costs, {.ctrl_area_budgets = {budgets[0] - alloc.datapath_area[0],
                                      budgets[1] - alloc.datapath_area[1]}});
    EXPECT_GT(r.speedup_pct, 0.0);
    EXPECT_GT(r.n_in_hw, 0);
}

// ------------------------------------- per-point bounds and mirror pairs
//
// The two-ASIC search (solver/multi_asic_bb) bounds a pair (p0, p1) by
// S_0(p0) + S_1(p1), each the best saving of one point's costs alone
// on its ASIC, and at an even split scores only one of (p0, p1) and
// (p1, p0).  These tests pin both facts on the DP itself, over every
// pair of straight's allocation space (area quantum 1/64 of the ASIC,
// so the sweeps stay cheap) and over a tie-heavy synthetic app.

namespace {

/// Every allocation within `restrictions` whose data-path fits
/// `budget`, in enumeration order, with its area and per-BSB costs.
struct Axis {
    std::vector<double> area;
    std::vector<std::vector<lp::Bsb_cost>> costs;
};

Axis enumerate_axis(std::span<const lb::Bsb> bsbs, const lh::Hw_library& lib,
                    const lh::Target& target, const lc::Rmap& restrictions,
                    double budget)
{
    Axis axis;
    const lycos::search::Alloc_space space(lib, restrictions);
    space.for_each(budget, [&](const lc::Rmap& a) {
        axis.area.push_back(a.area(lib));
        axis.costs.push_back(lp::build_cost_model(
            bsbs, lib, target, a, lp::Controller_mode::list_schedule));
        return true;
    });
    return axis;
}

std::vector<lp::Multi_bsb_cost> combine(std::span<const lp::Bsb_cost> c0,
                                        std::span<const lp::Bsb_cost> c1)
{
    std::vector<lp::Multi_bsb_cost> out(c0.size());
    for (std::size_t k = 0; k < c0.size(); ++k) {
        out[k].t_sw = c0[k].t_sw;
        out[k].hw = {c0[k], c1[k]};
    }
    return out;
}

/// S(p): the optimistically rounded best saving of `c` on one ASIC
/// with `ctrl_budget` of controller area, the other ASIC infeasible.
double single_asic_saving(std::span<const lp::Bsb_cost> c, double ctrl_budget,
                          double quantum)
{
    constexpr double inf = std::numeric_limits<double>::infinity();
    lp::Bsb_cost infeasible;
    infeasible.t_hw = inf;
    infeasible.ctrl_area = inf;
    std::vector<lp::Bsb_cost> none(c.size(), infeasible);
    lp::Multi_pace_options mo;
    mo.ctrl_area_budgets = {ctrl_budget, 0.0};
    mo.area_quantum = quantum;
    mo.optimistic_rounding = true;
    return lp::multi_pace_best_saving(combine(c, none), mo);
}

struct Straight_space {
    lh::Hw_library lib = lh::make_default_library();
    lycos::apps::App app = lycos::apps::make_straight();
    lh::Target target = lh::make_default_target(app.asic_area);
    lc::Rmap restrictions = lc::compute_restrictions(
        lc::analyze(app.bsbs, lib, target.gates), lib);
    double quantum = app.asic_area / 64.0;
};

/// Every pair's DP on swapped labels: the same value and the same
/// partition time, bit for bit.
void expect_mirror_identical(std::span<const lb::Bsb> bsbs,
                             const lh::Hw_library& lib,
                             const lh::Target& target,
                             const lc::Rmap& restrictions, double budget,
                             double quantum)
{
    const auto axis =
        enumerate_axis(bsbs, lib, target, restrictions, budget);
    const std::size_t n = axis.area.size();
    ASSERT_GT(n, 1u);
    lp::Multi_pace_workspace ws;
    long long checked = 0;
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = i + 1; j < n; ++j) {
            lp::Multi_pace_options mo;
            mo.area_quantum = quantum;
            mo.ctrl_area_budgets = {budget - axis.area[i],
                                    budget - axis.area[j]};
            const auto ij = combine(axis.costs[i], axis.costs[j]);
            const double v_ij = lp::multi_pace_best_saving(ij, mo, &ws);
            const double t_ij =
                lp::multi_pace_partition(ij, mo, &ws).time_hybrid_ns;
            mo.ctrl_area_budgets = {budget - axis.area[j],
                                    budget - axis.area[i]};
            const auto ji = combine(axis.costs[j], axis.costs[i]);
            const double v_ji = lp::multi_pace_best_saving(ji, mo, &ws);
            const double t_ji =
                lp::multi_pace_partition(ji, mo, &ws).time_hybrid_ns;
            ASSERT_EQ(v_ij, v_ji) << "pair " << i << ", " << j;
            ASSERT_EQ(t_ij, t_ji) << "pair " << i << ", " << j;
            ++checked;
        }
    }
    EXPECT_EQ(checked, static_cast<long long>(n * (n - 1) / 2));
}

}  // namespace

TEST(SeparableBound, pair_saving_never_exceeds_the_per_point_optima)
{
    const Straight_space s;
    for (const auto split : {std::array<double, 2>{0.5, 0.5},
                             std::array<double, 2>{0.65, 0.35}}) {
        const std::array<double, 2> budgets = {split[0] * s.app.asic_area,
                                               split[1] * s.app.asic_area};
        std::array<Axis, 2> axis;
        std::array<std::vector<double>, 2> bound;
        for (std::size_t a = 0; a < 2; ++a) {
            axis[a] = enumerate_axis(s.app.bsbs, s.lib, s.target,
                                     s.restrictions, budgets[a]);
            for (std::size_t p = 0; p < axis[a].area.size(); ++p)
                bound[a].push_back(single_asic_saving(
                    axis[a].costs[p], budgets[a] - axis[a].area[p],
                    s.quantum));
        }
        ASSERT_GT(axis[1].area.size(), 1u);
        const double all_sw = lp::all_sw_time_ns(axis[0].costs[0]);
        const double tol = 1e-12 * all_sw;

        lp::Multi_pace_workspace ws;
        long long tight = 0;
        for (std::size_t i = 0; i < axis[0].area.size(); ++i) {
            for (std::size_t j = 0; j < axis[1].area.size(); ++j) {
                lp::Multi_pace_options mo;
                mo.area_quantum = s.quantum;
                mo.ctrl_area_budgets = {budgets[0] - axis[0].area[i],
                                        budgets[1] - axis[1].area[j]};
                const double saving = lp::multi_pace_best_saving(
                    combine(axis[0].costs[i], axis[1].costs[j]), mo, &ws);
                const double bound_ij = bound[0][i] + bound[1][j];
                ASSERT_LE(saving, bound_ij + tol)
                    << "split " << split[0] << ", pair " << i << ", " << j;
                tight += saving >= bound_ij - tol ? 1 : 0;
            }
        }
        // Not vacuous: some pairs reach their bound exactly (one
        // ASIC idle, or two disjoint halves).
        EXPECT_GT(tight, 0) << "split " << split[0];
    }
}

TEST(MirrorPairs, straight_swapped_pairs_are_bit_identical)
{
    const Straight_space s;
    expect_mirror_identical(s.app.bsbs, s.lib, s.target, s.restrictions,
                            s.app.asic_area / 2.0, s.quantum);
}

TEST(MirrorPairs, tie_heavy_swapped_pairs_are_bit_identical)
{
    // The synthetic app of the solver's swapped-pair tie test: one
    // multiply-bound and one add-bound hot block and four cold mixed
    // ones, so the best design splits them across the two ASICs and
    // many pairs tie.
    lh::Hw_library lib;
    lib.add({"adder", {Op_kind::add}, 100.0, 1});
    lib.add({"multiplier", {Op_kind::mul}, 500.0, 2});
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
    const auto target = lh::make_default_target(3000.0);
    lc::Rmap restrictions;
    restrictions.set(0, 4);
    restrictions.set(1, 2);
    expect_mirror_identical(bsbs, lib, target, restrictions,
                            target.asic.total_area / 2.0, 1.0);
}

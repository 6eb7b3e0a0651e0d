// Cross-module property sweeps: invariants that must hold on *any*
// application, checked over seeded random instances.
#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "apps/random_app.hpp"
#include "core/allocator.hpp"
#include "core/furo.hpp"
#include "core/restrictions.hpp"
#include "hw/target.hpp"
#include "pace/cost_model.hpp"
#include "pace/pace.hpp"
#include "search/evaluate.hpp"
#include "sched/list_scheduler.hpp"
#include "sched/parallelism.hpp"
#include "support/brute_force.hpp"
#include "util/rng.hpp"

namespace la = lycos::apps;
namespace lc = lycos::core;
namespace lh = lycos::hw;
namespace lp = lycos::pace;
namespace ls = lycos::sched;
namespace lse = lycos::search;

namespace {

struct Instance {
    lh::Hw_library lib = lh::make_default_library();
    lh::Target target = lh::make_default_target(15000.0);
    std::vector<lycos::bsb::Bsb> bsbs;

    explicit Instance(int seed)
    {
        lycos::util::Rng rng(static_cast<std::uint64_t>(seed) * 7919 + 13);
        la::Random_app_params params;
        params.n_bsbs = rng.uniform_int(2, 12);
        params.min_ops = 2;
        params.max_ops = 28;
        bsbs = la::random_bsbs(rng, params);
    }
};

}  // namespace

class Properties : public ::testing::TestWithParam<int> {};

TEST_P(Properties, schedule_frames_are_consistent)
{
    const Instance inst(GetParam());
    const auto lat = ls::latency_table_from(inst.lib);
    for (const auto& b : inst.bsbs) {
        const auto info = ls::compute_time_frames(b.graph, lat);
        for (std::size_t v = 0; v < b.graph.size(); ++v) {
            const auto& f = info.frames[v];
            // ALAP never before ASAP; mobility at least 1.
            EXPECT_LE(f.asap, f.alap);
            EXPECT_GE(f.mobility(), 1);
            // Ops fit in the schedule.
            const auto kind = b.graph.op(static_cast<int>(v)).kind;
            EXPECT_LE(f.alap + lat[kind] - 1, info.length);
            EXPECT_GE(f.asap, 1);
            // Dependency separation in both ASAP and ALAP.
            for (auto s : b.graph.succs(static_cast<int>(v))) {
                const auto& sf = info.frames[static_cast<std::size_t>(s)];
                EXPECT_GE(sf.asap, f.asap + lat[kind]);
                EXPECT_GE(sf.alap, f.alap + lat[kind]);
            }
        }
    }
}

TEST_P(Properties, furo_is_nonnegative_and_only_for_present_kinds)
{
    const Instance inst(GetParam());
    const auto lat = ls::latency_table_from(inst.lib);
    for (const auto& b : inst.bsbs) {
        const auto info = ls::compute_time_frames(b.graph, lat);
        const auto furo = lc::compute_furo(
            b.graph, info, b.graph.transitive_successors(), b.profile);
        for (auto k : lh::all_op_kinds()) {
            EXPECT_GE(furo[k], 0.0);
            if (b.graph.count(k) < 2) {
                EXPECT_DOUBLE_EQ(furo[k], 0.0)
                    << "kind with <2 ops cannot compete";
            }
        }
    }
}

TEST_P(Properties, list_schedule_between_asap_and_serial)
{
    const Instance inst(GetParam());
    const auto lat = ls::latency_table_from(inst.lib);
    std::vector<int> one_each(inst.lib.size(), 1);
    for (const auto& b : inst.bsbs) {
        const auto sched = ls::list_schedule(b.graph, inst.lib, one_each);
        ASSERT_TRUE(sched.feasible);
        const auto info = ls::compute_time_frames(b.graph, lat);
        // Never faster than ASAP.
        EXPECT_GE(sched.length, info.length);
        // Never slower than full serialization on the bound units.
        long long serial = 0;
        for (std::size_t v = 0; v < b.graph.size(); ++v)
            serial += inst.lib[sched.resource[v]].latency_cycles;
        EXPECT_LE(sched.length, serial);
    }
}

TEST_P(Properties, restrictions_cover_every_used_kind)
{
    const Instance inst(GetParam());
    const auto infos = lc::analyze(inst.bsbs, inst.lib, inst.target.gates);
    const auto bounds = lc::compute_restrictions(infos, inst.lib);
    for (const auto& b : inst.bsbs) {
        for (auto k : lh::all_op_kinds()) {
            if (b.graph.count(k) == 0)
                continue;
            // Some resource capable of k must have a positive bound.
            int available = 0;
            for (const auto& [res, bound] : bounds.entries())
                if (inst.lib[res].ops.contains(k))
                    available += bound;
            EXPECT_GT(available, 0) << lh::to_string(k);
        }
    }
}

TEST_P(Properties, pace_never_loses_to_all_software)
{
    const Instance inst(GetParam());
    lycos::util::Rng rng(static_cast<std::uint64_t>(GetParam()) + 500);
    lc::Rmap alloc;
    for (std::size_t r = 0; r < inst.lib.size(); ++r)
        if (rng.chance(0.7))
            alloc.set(static_cast<lh::Resource_id>(r), rng.uniform_int(1, 2));

    const auto costs =
        lp::build_cost_model(inst.bsbs, inst.lib, inst.target, alloc,
                             lp::Controller_mode::list_schedule);
    const auto r = lp::pace_partition(
        costs, {.ctrl_area_budget = rng.uniform_real(0.0, 5000.0)});
    // The all-software partition is always available to the DP.
    EXPECT_LE(r.time_hybrid_ns, r.time_all_sw_ns + 1e-9);
    EXPECT_GE(r.speedup_pct, -1e-9);
}

TEST_P(Properties, pace_result_reevaluates_to_itself)
{
    const Instance inst(GetParam());
    lc::Rmap alloc;
    for (std::size_t r = 0; r < inst.lib.size(); ++r)
        alloc.set(static_cast<lh::Resource_id>(r), 1);
    const auto costs =
        lp::build_cost_model(inst.bsbs, inst.lib, inst.target, alloc,
                             lp::Controller_mode::optimistic_eca);
    const auto r =
        lp::pace_partition(costs, {.ctrl_area_budget = 3000.0});
    const auto again = lp::evaluate_partition(costs, r.in_hw);
    EXPECT_DOUBLE_EQ(r.time_hybrid_ns, again.time_hybrid_ns);
    EXPECT_DOUBLE_EQ(r.ctrl_area_used, again.ctrl_area_used);
    EXPECT_EQ(r.n_in_hw, again.n_in_hw);
}

TEST_P(Properties, coarse_quantization_is_conservative)
{
    // A coarser quantum may only *lose* quality (it over-counts areas),
    // never pack more than the budget.
    const Instance inst(GetParam());
    if (inst.bsbs.size() > 14)
        GTEST_SKIP() << "brute force too large";
    lc::Rmap alloc;
    for (std::size_t r = 0; r < inst.lib.size(); ++r)
        alloc.set(static_cast<lh::Resource_id>(r), 1);
    const auto costs =
        lp::build_cost_model(inst.bsbs, inst.lib, inst.target, alloc,
                             lp::Controller_mode::optimistic_eca);
    const double budget = 2500.0;
    const auto exact = lp::brute_force_partition(costs, budget);
    for (double quantum : {1.0, 16.0, 128.0}) {
        const auto dp = lp::pace_partition(
            costs, {.ctrl_area_budget = budget, .area_quantum = quantum});
        EXPECT_GE(dp.time_hybrid_ns, exact.time_hybrid_ns - 1e-6)
            << "DP beat the exact optimum at quantum " << quantum;
        EXPECT_LE(dp.ctrl_area_used, budget + 1e-9);
    }
}

TEST_P(Properties, allocator_invariants_hold)
{
    const Instance inst(GetParam());
    lycos::util::Rng rng(static_cast<std::uint64_t>(GetParam()) + 900);
    const double budget = rng.uniform_real(0.0, 20000.0);
    const lc::Allocator alloc(inst.lib, inst.target);
    const auto r = alloc.run(inst.bsbs, {.area_budget = budget});

    EXPECT_GE(r.remaining_area, 0.0);
    EXPECT_NEAR(budget - r.remaining_area,
                r.datapath_area + r.pseudo_controller_area, 1e-6);
    for (const auto& [res, count] : r.allocation.entries()) {
        EXPECT_GT(count, 0);
        EXPECT_LE(count, r.restrictions(res));
    }
    // The datapath area is consistent with the entries.
    double area = 0.0;
    for (const auto& [res, count] : r.allocation.entries())
        area += inst.lib[res].area * count;
    EXPECT_NEAR(area, r.datapath_area, 1e-9);
}

TEST_P(Properties, evaluation_fits_flag_matches_budget)
{
    const Instance inst(GetParam());
    lycos::util::Rng rng(static_cast<std::uint64_t>(GetParam()) + 321);
    lc::Rmap alloc;
    for (std::size_t r = 0; r < inst.lib.size(); ++r)
        if (rng.chance(0.5))
            alloc.set(static_cast<lh::Resource_id>(r), rng.uniform_int(1, 3));

    const lse::Eval_context ctx{inst.bsbs, inst.lib, inst.target,
                                lp::Controller_mode::optimistic_eca, 0.0};
    const auto ev = lse::evaluate_allocation(ctx, alloc);
    EXPECT_EQ(ev.fits,
              alloc.area(inst.lib) <= inst.target.asic.total_area);
    if (!ev.fits) {
        EXPECT_EQ(ev.partition.n_in_hw, 0);
    }
    EXPECT_GE(ev.size_fraction(), 0.0);
    EXPECT_LE(ev.size_fraction(), 1.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, Properties, ::testing::Range(0, 24));

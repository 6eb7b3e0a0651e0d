// The event-driven list scheduler must be a drop-in replacement for
// the cycle-stepping oracle (tests/support): identical feasibility,
// length, start steps and resource binding on every input.  The search
// determinism contract (docs/performance.md) relies on this.
//
// Also pins the memoized evaluation path: evaluate_allocation with an
// Eval_cache must agree bit-for-bit with the uncached pipeline across
// the full allocation space of a small library.
#include <gtest/gtest.h>

#include "apps/random_app.hpp"
#include "hw/resource.hpp"
#include "hw/target.hpp"
#include "search/alloc_space.hpp"
#include "search/eval_cache.hpp"
#include "search/evaluate.hpp"
#include "sched/list_scheduler.hpp"
#include "support/list_schedule_naive.hpp"
#include "util/rng.hpp"

namespace ls = lycos::sched;
namespace ld = lycos::dfg;
namespace lh = lycos::hw;
namespace lc = lycos::core;
namespace lse = lycos::search;
using lh::Op_kind;

namespace {

void expect_same_schedule(const ls::List_schedule& a,
                          const ls::List_schedule& b)
{
    ASSERT_EQ(a.feasible, b.feasible);
    EXPECT_EQ(a.length, b.length);
    ASSERT_EQ(a.start.size(), b.start.size());
    for (std::size_t i = 0; i < a.start.size(); ++i) {
        EXPECT_EQ(a.start[i], b.start[i]) << "op " << i;
        EXPECT_EQ(a.resource[i], b.resource[i]) << "op " << i;
    }
}

}  // namespace

TEST(SchedEquivalence, empty_and_infeasible)
{
    lh::Hw_library lib;
    lib.add({"adder", {Op_kind::add}, 10.0, 1});
    lib.add({"multiplier", {Op_kind::mul}, 100.0, 2});

    const std::vector<int> none = {0, 0};
    expect_same_schedule(ls::list_schedule(ld::Dfg{}, lib, none),
                         ls::list_schedule_naive(ld::Dfg{}, lib, none));

    ld::Dfg g;
    g.add_op(Op_kind::mul);
    const std::vector<int> adders_only = {3, 0};
    expect_same_schedule(ls::list_schedule(g, lib, adders_only),
                         ls::list_schedule_naive(g, lib, adders_only));
    EXPECT_FALSE(ls::list_schedule(g, lib, adders_only).feasible);
}

// Random DFGs under random scarce/ample allocations: the two
// implementations agree exactly (not just on length — on the binding).
class SchedEquivalenceRandom : public ::testing::TestWithParam<int> {};

TEST_P(SchedEquivalenceRandom, identical_schedules)
{
    lycos::util::Rng rng(static_cast<std::uint64_t>(GetParam()) + 42);
    const auto lib = lh::make_default_library();

    lycos::apps::Random_app_params params;
    params.min_ops = 3;
    params.max_ops = 48;
    const auto g = lycos::apps::random_dfg(
        rng, rng.uniform_int(params.min_ops, params.max_ops), params);

    for (int trial = 0; trial < 4; ++trial) {
        std::vector<int> counts(lib.size(), 0);
        for (auto& c : counts)
            c = rng.uniform_int(0, 3);
        expect_same_schedule(ls::list_schedule(g, lib, counts),
                             ls::list_schedule_naive(g, lib, counts));
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SchedEquivalenceRandom,
                         ::testing::Range(0, 24));

// ------------------------------------------------------------------
// Cached vs uncached evaluation
// ------------------------------------------------------------------

TEST(EvalCacheEquivalence, bit_identical_over_full_space)
{
    lh::Hw_library lib;
    lib.add({"adder", {Op_kind::add}, 100.0, 1});
    lib.add({"multiplier", {Op_kind::mul}, 500.0, 2});
    lib.add({"alu", {Op_kind::add, Op_kind::sub}, 180.0, 1});
    // No BSB divides, so the projection must collapse the divider axis
    // and every second point of the space hits the cache.
    lib.add({"divider", {Op_kind::div}, 800.0, 4});
    const auto target = lh::make_default_target(3000.0);

    lycos::util::Rng rng(2026);
    lycos::apps::Random_app_params params;
    params.n_bsbs = 5;
    params.min_ops = 3;
    params.max_ops = 12;
    params.kinds = {Op_kind::add, Op_kind::sub, Op_kind::mul};
    const auto bsbs = lycos::apps::random_bsbs(rng, params);

    for (auto mode : {lycos::pace::Controller_mode::optimistic_eca,
                      lycos::pace::Controller_mode::list_schedule}) {
        const lse::Eval_context ctx{bsbs, lib, target, mode, 1.0};
        lse::Eval_cache cache(ctx);

        lc::Rmap bounds;
        bounds.set(0, 2);
        bounds.set(1, 2);
        bounds.set(2, 1);
        bounds.set(3, 1);
        const lse::Alloc_space space(lib, bounds);
        for (long long i = 0; i < space.size(); ++i) {
            const auto a = space.nth(i);
            const auto plain = lse::evaluate_allocation(ctx, a);
            const auto cached = lse::evaluate_allocation(ctx, a, &cache);
            EXPECT_EQ(plain.datapath, cached.datapath);
            EXPECT_EQ(plain.datapath_area, cached.datapath_area);
            EXPECT_EQ(plain.fits, cached.fits);
            EXPECT_EQ(plain.partition.time_hybrid_ns,
                      cached.partition.time_hybrid_ns);
            EXPECT_EQ(plain.partition.time_all_sw_ns,
                      cached.partition.time_all_sw_ns);
            EXPECT_EQ(plain.partition.speedup_pct,
                      cached.partition.speedup_pct);
            EXPECT_EQ(plain.partition.ctrl_area_used,
                      cached.partition.ctrl_area_used);
            EXPECT_EQ(plain.partition.in_hw, cached.partition.in_hw);
        }
        EXPECT_GT(cache.stats().hits, 0);
        EXPECT_GT(cache.stats().misses, 0);
    }
}

// The cache key projects away resource types a BSB cannot use, so two
// allocations differing only in an irrelevant type share an entry.
TEST(EvalCacheEquivalence, irrelevant_resources_share_entries)
{
    lh::Hw_library lib;
    lib.add({"adder", {Op_kind::add}, 100.0, 1});
    lib.add({"multiplier", {Op_kind::mul}, 500.0, 2});
    const auto target = lh::make_default_target(5000.0);

    std::vector<lycos::bsb::Bsb> bsbs(1);
    bsbs[0].graph.add_op(Op_kind::add);
    bsbs[0].graph.add_op(Op_kind::add);
    bsbs[0].profile = 10.0;

    const lse::Eval_context ctx{
        bsbs, lib, target, lycos::pace::Controller_mode::optimistic_eca, 1.0};
    lse::Eval_cache cache(ctx);

    lc::Rmap adder_only;
    adder_only.set(0, 1);
    lc::Rmap with_mult = adder_only;
    with_mult.set(1, 3);  // multiplier count is irrelevant to an add-only BSB

    (void)lse::evaluate_allocation(ctx, adder_only, &cache);
    const auto misses_after_first = cache.stats().misses;
    (void)lse::evaluate_allocation(ctx, with_mult, &cache);
    EXPECT_EQ(cache.stats().misses, misses_after_first);
    EXPECT_GT(cache.stats().hits, 0);
}

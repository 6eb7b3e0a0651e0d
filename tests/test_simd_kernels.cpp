// Randomized scalar-vs-SIMD equivalence for the dispatched kernel
// layer (util/simd.hpp) and for everything built on top of it.  The
// contract under test is *bit*-identity, not numerical closeness: the
// AVX2 kernels apply the identical IEEE add and the identical
// max-with-tie-to-second-operand per lane that the scalar kernels
// spell out, so values, parent bytes, tracebacks and placements must
// match exactly at every ISA level.
//
// On a build or CPU without AVX2 (LYCOS_DISABLE_SIMD, non-x86),
// best_isa() == scalar and force_isa clamps, so every comparison here
// degenerates to scalar-vs-scalar and the suite passes trivially —
// the scalar-only configuration stays first-class in CI.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <vector>

#include "pace/multi_asic.hpp"
#include "pace/pace.hpp"
#include "support/multi_pace_reference.hpp"
#include "util/arena.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"
#include "util/thread_pool.hpp"

namespace lp = lycos::pace;
namespace ls = lycos::util::simd;

namespace {

constexpr double k_inf = std::numeric_limits<double>::infinity();

bool bit_equal(double a, double b)
{
    return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// Run `fn` with dispatch forced to `isa` (clamped to best_isa()),
/// restoring the best level afterwards even on assertion failure.
template <class Fn>
auto with_isa(ls::Isa isa, Fn&& fn)
{
    struct Restore {
        ~Restore() { ls::force_isa(ls::best_isa()); }
    } restore;
    ls::force_isa(isa);
    return fn();
}

/// Random per-BSB costs in the bench generator's ranges.  `tie_heavy`
/// quantizes every field to coarse steps so hardware gains collide
/// exactly across BSBs and DP cells — the regime where a wrong
/// max-tie order in a vector kernel would flip parents and values.
std::vector<lp::Bsb_cost> random_costs(lycos::util::Rng& rng, int n,
                                       bool tie_heavy)
{
    std::vector<lp::Bsb_cost> costs(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
        auto& c = costs[static_cast<std::size_t>(i)];
        if (tie_heavy) {
            c.t_sw = 100.0 * rng.uniform_int(1, 8);
            c.t_hw = 50.0 * rng.uniform_int(1, 6);
            c.comm = 25.0 * rng.uniform_int(0, 3);
            c.save_prev = i > 0 && c.comm > 0.0
                              ? 25.0 * rng.uniform_int(0, static_cast<int>(
                                                              c.comm / 25.0))
                              : 0.0;
            c.ctrl_area = rng.uniform_int(1, 6) * 10.0;
        } else {
            c.t_sw = rng.uniform_real(100.0, 5000.0);
            c.t_hw = rng.uniform_real(50.0, 2000.0);
            c.comm = rng.uniform_real(0.0, 100.0);
            c.save_prev = i > 0 ? rng.uniform_real(0.0, c.comm) : 0.0;
            c.ctrl_area = rng.uniform_int(1, 60);
        }
    }
    return costs;
}

std::vector<lp::Multi_bsb_cost> random_multi_costs(lycos::util::Rng& rng,
                                                   int n, bool tie_heavy)
{
    auto c0 = random_costs(rng, n, tie_heavy);
    auto c1 = random_costs(rng, n, tie_heavy);
    std::vector<lp::Multi_bsb_cost> costs(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
        auto& m = costs[static_cast<std::size_t>(i)];
        m.t_sw = c0[static_cast<std::size_t>(i)].t_sw;
        m.hw[0] = c0[static_cast<std::size_t>(i)];
        m.hw[1] = c1[static_cast<std::size_t>(i)];
        m.hw[1].t_sw = m.t_sw;
    }
    return costs;
}

void expect_same_result(const lp::Pace_result& a, const lp::Pace_result& b)
{
    EXPECT_EQ(a.in_hw, b.in_hw);
    EXPECT_TRUE(bit_equal(a.time_hybrid_ns, b.time_hybrid_ns));
    EXPECT_TRUE(bit_equal(a.ctrl_area_used, b.ctrl_area_used));
    EXPECT_EQ(a.n_in_hw, b.n_in_hw);
}

void expect_same_multi(const lp::Multi_pace_result& a,
                       const lp::Multi_pace_result& b)
{
    EXPECT_EQ(a.placement, b.placement);
    EXPECT_TRUE(bit_equal(a.time_hybrid_ns, b.time_hybrid_ns));
    EXPECT_TRUE(bit_equal(a.ctrl_area_used[0], b.ctrl_area_used[0]));
    EXPECT_TRUE(bit_equal(a.ctrl_area_used[1], b.ctrl_area_used[1]));
    EXPECT_EQ(a.n_in_hw, b.n_in_hw);
}

// --- direct kernel-table equivalence --------------------------------

/// A (area, side)-pair row of 2n doubles: mostly finite values with
/// exact ties planted between and within pairs, plus -inf holes (the
/// unreachable-state marker the real rows are full of).
std::vector<double> random_row(lycos::util::Rng& rng, std::size_t n)
{
    std::vector<double> row(2 * n);
    for (auto& v : row) {
        if (rng.chance(0.2))
            v = -k_inf;
        else
            v = 10.0 * rng.uniform_int(0, 40);  // coarse grid => exact ties
    }
    return row;
}

TEST(Simd_kernels, pace_row_sw_matches_scalar_at_every_length)
{
    const ls::Kernels& sc = ls::kernels(ls::Isa::scalar);
    const ls::Kernels& vec = ls::kernels(ls::Isa::avx2);
    lycos::util::Rng rng(101);
    for (std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{2},
                          std::size_t{3}, std::size_t{4}, std::size_t{5},
                          std::size_t{7}, std::size_t{8}, std::size_t{13},
                          std::size_t{16}, std::size_t{17}, std::size_t{64},
                          std::size_t{65}}) {
        for (int trial = 0; trial < 8; ++trial) {
            const auto cur = random_row(rng, n);
            std::vector<double> a(2 * n, 12345.0);
            std::vector<double> b(2 * n, 12345.0);
            sc.pace_row_sw(cur.data(), a.data(), n);
            vec.pace_row_sw(cur.data(), b.data(), n);
            for (std::size_t i = 0; i < 2 * n; ++i)
                ASSERT_TRUE(bit_equal(a[i], b[i]))
                    << "n=" << n << " slot " << i;
        }
    }
}

TEST(Simd_kernels, pace_row_hw_matches_scalar_and_preserves_even_slots)
{
    const ls::Kernels& sc = ls::kernels(ls::Isa::scalar);
    const ls::Kernels& vec = ls::kernels(ls::Isa::avx2);
    lycos::util::Rng rng(102);
    for (std::size_t n :
         {std::size_t{1}, std::size_t{2}, std::size_t{3}, std::size_t{5},
          std::size_t{8}, std::size_t{11}, std::size_t{16}, std::size_t{33}}) {
        for (int trial = 0; trial < 8; ++trial) {
            const auto cur = random_row(rng, n);
            const double gain = 10.0 * rng.uniform_int(-5, 20);
            const double gain_save = gain + 5.0 * rng.uniform_int(0, 4);
            auto a = random_row(rng, n);  // pre-existing destination
            auto b = a;
            sc.pace_row_hw(cur.data(), a.data(), n, gain, gain_save);
            vec.pace_row_hw(cur.data(), b.data(), n, gain, gain_save);
            for (std::size_t i = 0; i < 2 * n; ++i)
                ASSERT_TRUE(bit_equal(a[i], b[i]))
                    << "n=" << n << " slot " << i;
        }
    }
}

TEST(Simd_kernels, pace_row_parent_matches_scalar)
{
    const ls::Kernels& sc = ls::kernels(ls::Isa::scalar);
    const ls::Kernels& vec = ls::kernels(ls::Isa::avx2);
    lycos::util::Rng rng(103);
    for (std::size_t n :
         {std::size_t{1}, std::size_t{3}, std::size_t{4}, std::size_t{7},
          std::size_t{9}, std::size_t{16}, std::size_t{31}}) {
        for (int trial = 0; trial < 8; ++trial) {
            const auto cur = random_row(rng, n);
            const double add0 = 10.0 * rng.uniform_int(-3, 10);
            const double add1 = 10.0 * rng.uniform_int(-3, 10);
            std::vector<std::uint8_t> a(n, 0xCD);
            std::vector<std::uint8_t> b(n, 0xCD);
            sc.pace_row_parent(cur.data(), a.data(), n, add0, add1);
            vec.pace_row_parent(cur.data(), b.data(), n, add0, add1);
            EXPECT_EQ(a, b) << "n=" << n;
        }
    }
}

TEST(Simd_kernels, multi_shift_lane_matches_scalar_including_truncation)
{
    const ls::Kernels& sc = ls::kernels(ls::Isa::scalar);
    const ls::Kernels& vec = ls::kernels(ls::Isa::avx2);
    lycos::util::Rng rng(104);
    for (int trial = 0; trial < 200; ++trial) {
        const std::size_t n =
            static_cast<std::size_t>(rng.uniform_int(0, 40));
        // Sorted-unique (a0, a1) with a0 ascending, as the sweep
        // guarantees; values on a coarse grid.
        std::vector<std::int32_t> a0(n);
        std::vector<std::int32_t> a1(n);
        std::vector<double> value(n);
        std::int32_t run0 = 0;
        for (std::size_t i = 0; i < n; ++i) {
            run0 += rng.uniform_int(0, 3);
            a0[i] = run0;
            a1[i] = rng.uniform_int(0, 50);
            value[i] = 10.0 * rng.uniform_int(0, 100);
        }
        const auto da0 = static_cast<std::int32_t>(rng.uniform_int(0, 10));
        const auto da1 = static_cast<std::int32_t>(rng.uniform_int(0, 10));
        const double add = 10.0 * rng.uniform_int(-5, 20);
        // Tight caps on some trials so both the a0 truncation and the
        // a1 sentinel paths fire; generous caps on the rest.
        const auto cap0 = static_cast<std::int32_t>(
            rng.chance(0.5) ? rng.uniform_int(0, 30) : 1000);
        const auto cap1 = static_cast<std::int32_t>(
            rng.chance(0.5) ? rng.uniform_int(0, 30) : 1000);
        std::vector<std::uint64_t> ka(n, 0), kb(n, 0);
        std::vector<double> va(n, 0.0), vb(n, 0.0);
        const std::size_t wa =
            sc.multi_shift_lane(a0.data(), a1.data(), value.data(), n, da0,
                                da1, add, cap0, cap1, ka.data(), va.data());
        const std::size_t wb =
            vec.multi_shift_lane(a0.data(), a1.data(), value.data(), n, da0,
                                 da1, add, cap0, cap1, kb.data(), vb.data());
        ASSERT_EQ(wa, wb) << "trial " << trial;
        for (std::size_t i = 0; i < wa; ++i) {
            ASSERT_EQ(ka[i], kb[i]) << "trial " << trial << " entry " << i;
            ASSERT_TRUE(bit_equal(va[i], vb[i]))
                << "trial " << trial << " entry " << i;
        }
        // Spot-check the scalar semantics themselves: every valid key
        // is the shifted packed pair, sentinels exactly on a1 overflow.
        for (std::size_t i = 0; i < wa; ++i) {
            if (a1[i] + da1 > cap1) {
                EXPECT_EQ(ka[i], ls::k_invalid_key);
            } else {
                EXPECT_EQ(ka[i],
                          (static_cast<std::uint64_t>(a0[i] + da0) << 32) |
                              static_cast<std::uint32_t>(a1[i] + da1));
                EXPECT_TRUE(bit_equal(va[i], value[i] + add));
            }
        }
        if (wa < n)  // truncated: the first dropped entry overflows a0
            EXPECT_GT(a0[wa] + da0, cap0);
    }
}

TEST(Simd_kernels, max_reduce_matches_scalar)
{
    const ls::Kernels& sc = ls::kernels(ls::Isa::scalar);
    const ls::Kernels& vec = ls::kernels(ls::Isa::avx2);
    EXPECT_TRUE(bit_equal(sc.max_reduce(nullptr, 0), -k_inf));
    EXPECT_TRUE(bit_equal(vec.max_reduce(nullptr, 0), -k_inf));
    lycos::util::Rng rng(105);
    for (std::size_t n = 1; n <= 40; ++n) {
        for (int trial = 0; trial < 4; ++trial) {
            std::vector<double> v(n);
            for (auto& x : v)
                x = rng.chance(0.3) ? -k_inf
                                    : 10.0 * rng.uniform_int(-50, 50);
            EXPECT_TRUE(bit_equal(sc.max_reduce(v.data(), n),
                                  vec.max_reduce(v.data(), n)))
                << "n=" << n;
        }
    }
}

// --- end-to-end sweeps across forced ISA levels ---------------------

TEST(Simd_pace, best_saving_and_traceback_bit_identical_across_isa)
{
    lycos::util::Rng rng(7);
    for (int trial = 0; trial < 30; ++trial) {
        const int n = rng.uniform_int(1, 40);
        const bool ties = trial % 2 == 0;
        const auto costs = random_costs(rng, n, ties);
        lp::Pace_options opts;
        // Odd, non-multiple-of-lane table widths on most trials.
        opts.ctrl_area_budget = rng.uniform_int(30, 400);
        opts.area_quantum = ties ? 10.0 : 1.0;

        const double sv = with_isa(ls::Isa::scalar, [&] {
            return lp::pace_best_saving(costs, opts);
        });
        const double vv = with_isa(ls::Isa::avx2, [&] {
            return lp::pace_best_saving(costs, opts);
        });
        EXPECT_TRUE(bit_equal(sv, vv)) << "trial " << trial;

        const auto sr = with_isa(ls::Isa::scalar, [&] {
            return lp::pace_partition(costs, opts);
        });
        const auto vr = with_isa(ls::Isa::avx2, [&] {
            return lp::pace_partition(costs, opts);
        });
        expect_same_result(sr, vr);
        EXPECT_NEAR(sr.time_all_sw_ns - sr.time_hybrid_ns, sv, 1e-6)
            << "screen and full DP disagree beyond summation order";
    }
}

TEST(Simd_pace, checkpoint_resume_matches_cold_scalar_across_isa)
{
    lycos::util::Rng rng(11);
    const int n = 24;
    auto costs = random_costs(rng, n, /*tie_heavy=*/true);
    lp::Pace_options opts;
    opts.ctrl_area_budget = 190.0;  // width 20 at quantum 10: odd block tail
    opts.area_quantum = 10.0;

    lp::Pace_workspace ws_scalar;
    lp::Pace_workspace ws_simd;
    for (int step = 0; step < 12; ++step) {
        // Mutate a suffix so resume fires at varying rows: the last
        // BSB, a middle BSB, or no change at all (full reuse).
        if (step > 0) {
            const int at = step % 3 == 0 ? n - 1
                           : step % 3 == 1
                               ? rng.uniform_int(n / 2, n - 1)
                               : n;  // n == no mutation
            if (at < n) {
                costs[static_cast<std::size_t>(at)].t_hw =
                    50.0 * rng.uniform_int(1, 6);
                costs[static_cast<std::size_t>(at)].ctrl_area =
                    10.0 * rng.uniform_int(1, 6);
            }
        }
        const auto cold = with_isa(ls::Isa::scalar, [&] {
            return lp::pace_partition(costs, opts);  // no workspace
        });
        const auto warm_scalar = with_isa(ls::Isa::scalar, [&] {
            return lp::pace_partition(costs, opts, &ws_scalar);
        });
        const auto warm_simd = with_isa(ls::Isa::avx2, [&] {
            return lp::pace_partition(costs, opts, &ws_simd);
        });
        expect_same_result(cold, warm_scalar);
        expect_same_result(cold, warm_simd);

        const double cold_v = with_isa(ls::Isa::scalar, [&] {
            return lp::pace_best_saving(costs, opts);
        });
        const double warm_v = with_isa(ls::Isa::avx2, [&] {
            return lp::pace_best_saving(costs, opts, &ws_simd);
        });
        EXPECT_TRUE(bit_equal(cold_v, warm_v)) << "step " << step;
    }
    EXPECT_GT(ws_simd.rows_reused(), 0);
}

TEST(Simd_multi, sparse_sweep_bit_identical_across_isa)
{
    lycos::util::Rng rng(13);
    lycos::util::Arena arena_s;
    lycos::util::Arena arena_v;
    lp::Multi_pace_workspace ws_s(&arena_s);
    lp::Multi_pace_workspace ws_v(&arena_v);
    for (int trial = 0; trial < 20; ++trial) {
        const int n = rng.uniform_int(1, 28);
        const bool ties = trial % 2 == 0;
        const auto costs = random_multi_costs(rng, n, ties);
        lp::Multi_pace_options opts;
        opts.ctrl_area_budgets = {
            static_cast<double>(rng.uniform_int(40, 250)),
            static_cast<double>(rng.uniform_int(40, 250))};
        opts.area_quantum = ties ? 10.0 : 1.0;

        const double sv = with_isa(ls::Isa::scalar, [&] {
            return lp::multi_pace_best_saving(costs, opts, &ws_s);
        });
        const double vv = with_isa(ls::Isa::avx2, [&] {
            return lp::multi_pace_best_saving(costs, opts, &ws_v);
        });
        EXPECT_TRUE(bit_equal(sv, vv)) << "trial " << trial;

        const auto sr = with_isa(ls::Isa::scalar, [&] {
            return lp::multi_pace_partition(costs, opts, &ws_s);
        });
        const auto vr = with_isa(ls::Isa::avx2, [&] {
            return lp::multi_pace_partition(costs, opts, &ws_v);
        });
        expect_same_multi(sr, vr);

        // And both must still reproduce the dense reference exactly.
        const auto ref = lp::multi_pace_partition_reference(costs, opts);
        expect_same_multi(ref, vr);
    }
}

TEST(Simd_threads, partitions_identical_for_any_thread_count_and_isa)
{
    lycos::util::Rng rng(17);
    constexpr int k_jobs = 12;
    std::vector<std::vector<lp::Bsb_cost>> jobs;
    for (int j = 0; j < k_jobs; ++j)
        jobs.push_back(random_costs(rng, 20 + j, j % 2 == 0));
    lp::Pace_options opts;
    opts.ctrl_area_budget = 230.0;
    opts.area_quantum = 1.0;

    // Serial scalar reference.
    std::vector<lp::Pace_result> ref;
    with_isa(ls::Isa::scalar, [&] {
        for (const auto& c : jobs) ref.push_back(lp::pace_partition(c, opts));
        return 0;
    });

    for (std::size_t n_threads : {std::size_t{1}, std::size_t{2},
                                  std::size_t{4}}) {
        for (ls::Isa isa : {ls::Isa::scalar, ls::Isa::avx2}) {
            with_isa(isa, [&] {
                std::vector<lp::Pace_result> got(k_jobs);
                lycos::util::Thread_pool pool(n_threads);
                lycos::util::parallel_chunks(
                    pool, k_jobs, n_threads,
                    [&](std::size_t, long long lo, long long hi) {
                        // Per-worker arena-backed workspace, as the
                        // engines allocate them inside task bodies.
                        lycos::util::Arena arena;
                        lp::Pace_workspace ws(&arena);
                        for (long long j = lo; j < hi; ++j)
                            got[static_cast<std::size_t>(j)] =
                                lp::pace_partition(
                                    jobs[static_cast<std::size_t>(j)], opts,
                                    &ws);
                    });
                for (int j = 0; j < k_jobs; ++j)
                    expect_same_result(ref[static_cast<std::size_t>(j)],
                                       got[static_cast<std::size_t>(j)]);
                return 0;
            });
        }
    }
}

TEST(Simd_dispatch, force_isa_clamps_and_reports)
{
    // Whatever the build, forcing scalar must land on scalar...
    ls::force_isa(ls::Isa::scalar);
    EXPECT_EQ(ls::active_isa(), ls::Isa::scalar);
    // ...and forcing above best clamps to best.
    ls::force_isa(ls::Isa::avx2);
    EXPECT_EQ(ls::active_isa(), ls::best_isa());
    EXPECT_STREQ(ls::isa_name(ls::Isa::scalar), "scalar");
    EXPECT_STREQ(ls::isa_name(ls::Isa::avx2), "avx2");
}

}  // namespace

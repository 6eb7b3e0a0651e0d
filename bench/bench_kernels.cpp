// Scalar-vs-SIMD microbench for the dispatched kernel table
// (util/simd.hpp): times each kernel individually at several widths
// and prints min-of-N nanoseconds per element plus the speedup ratio.
// This is the developer-facing drill-down behind the two aggregate
// kernels.{pace,merge}_ok rows of bench_gates (which time the
// composite sweep/merge passes); run it after touching a kernel to see
// which one moved.
//
// Plain main (no google-benchmark dependency): each measurement is
// the minimum over `k_reps` timed batches of `k_inner` calls through
// the table's function pointers — the indirect call is exactly what
// the production sweeps pay, and it keeps the compiler from
// specializing either table's loop into the harness.
#include <cstdio>
#include <cstdint>
#include <limits>

#include "util/arena.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"
#include "util/timer.hpp"

namespace simd = lycos::util::simd;

namespace {

constexpr int k_reps = 9;
constexpr int k_inner = 200;

template <class Fn>
double min_secs(Fn&& fn)
{
    double best = std::numeric_limits<double>::infinity();
    for (int r = 0; r < k_reps; ++r) {
        lycos::util::Wall_timer t;
        for (int i = 0; i < k_inner; ++i)
            fn();
        best = std::min(best, t.seconds() / k_inner);
    }
    return best;
}

// Arena-backed (64-byte-aligned) buffers, like the production DP rows
// — a 16-byte-aligned std::vector makes every other 32-byte vector
// access split a cache line and skews the ratios run to run.
struct Row_inputs {
    double* cur;
    double* nxt;
    std::uint8_t* parent;
    std::int32_t* a0;
    std::int32_t* a1;
    double* value;
    std::uint64_t* key;
    double* val;
    std::int32_t cap0 = 0;
};

Row_inputs make_inputs(lycos::util::Arena& arena, std::size_t n)
{
    lycos::util::Rng rng(12345);
    const auto doubles = [&](std::size_t count) {
        return static_cast<double*>(arena.alloc(count * sizeof(double)));
    };
    Row_inputs in;
    in.cur = doubles(2 * n);
    in.nxt = doubles(2 * n);
    in.parent = static_cast<std::uint8_t*>(arena.alloc(n));
    for (std::size_t i = 0; i < 2 * n; ++i)
        in.cur[i] = rng.chance(0.15)
                        ? -std::numeric_limits<double>::infinity()
                        : rng.uniform_real(0.0, 1.0e6);
    in.a0 = static_cast<std::int32_t*>(arena.alloc(n * sizeof(std::int32_t)));
    in.a1 = static_cast<std::int32_t*>(arena.alloc(n * sizeof(std::int32_t)));
    in.value = doubles(n);
    in.key =
        static_cast<std::uint64_t*>(arena.alloc(n * sizeof(std::uint64_t)));
    in.val = doubles(n);
    std::int32_t run0 = 0;
    for (std::size_t i = 0; i < n; ++i) {
        run0 += rng.uniform_int(0, 2);
        in.a0[i] = run0;
        in.a1[i] = rng.uniform_int(0, 1 << 20);
        in.value[i] = rng.uniform_real(0.0, 1.0e6);
    }
    in.cap0 = run0 + 64;
    return in;
}

void report(const char* name, std::size_t n, double scalar, double vec)
{
    std::printf("  %-18s %8.2f %8.2f %7.2fx\n", name,
                scalar * 1e9 / static_cast<double>(n),
                vec * 1e9 / static_cast<double>(n),
                vec > 0.0 ? scalar / vec : 0.0);
}

}  // namespace

int main()
{
    const bool have_simd = simd::best_isa() != simd::Isa::scalar;
    std::printf("kernel dispatch: best ISA %s%s\n",
                simd::isa_name(simd::best_isa()),
                have_simd ? "" : " (scalar-only: both columns identical)");
    const simd::Kernels& sc = simd::kernels(simd::Isa::scalar);
    const simd::Kernels& vec = simd::kernels(simd::best_isa());

    for (std::size_t n : {std::size_t{256}, std::size_t{1024},
                          std::size_t{4096}, std::size_t{16384}}) {
        lycos::util::Arena arena;
        auto in = make_inputs(arena, n);
        const std::int32_t cap1 = (1 << 20) + 64;
        std::printf("width %zu (ns/elem, min of %d x %d):\n", n, k_reps,
                    k_inner);
        std::printf("  %-18s %8s %8s %8s\n", "kernel", "scalar",
                    simd::isa_name(simd::best_isa()), "speedup");
        report("pace_row_sw", n,
               min_secs([&] { sc.pace_row_sw(in.cur, in.nxt, n); }),
               min_secs([&] { vec.pace_row_sw(in.cur, in.nxt, n); }));
        report("pace_row_hw", n,
               min_secs([&] {
                   sc.pace_row_hw(in.cur, in.nxt, n, 123.5, 150.25);
               }),
               min_secs([&] {
                   vec.pace_row_hw(in.cur, in.nxt, n, 123.5, 150.25);
               }));
        report("pace_row_parent", n,
               min_secs([&] {
                   sc.pace_row_parent(in.cur, in.parent, n, 123.5, 150.25);
               }),
               min_secs([&] {
                   vec.pace_row_parent(in.cur, in.parent, n, 123.5, 150.25);
               }));
        report("multi_shift_lane", n,
               min_secs([&] {
                   sc.multi_shift_lane(in.a0, in.a1, in.value, n, 3, 5, 42.0,
                                       in.cap0, cap1, in.key, in.val);
               }),
               min_secs([&] {
                   vec.multi_shift_lane(in.a0, in.a1, in.value, n, 3, 5, 42.0,
                                        in.cap0, cap1, in.key, in.val);
               }));
        report("max_reduce", n,
               min_secs([&] {
                   volatile double sink = sc.max_reduce(in.value, n);
                   (void)sink;
               }),
               min_secs([&] {
                   volatile double sink = vec.max_reduce(in.value, n);
                   (void)sink;
               }));
    }
    return 0;
}

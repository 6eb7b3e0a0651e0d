// Old-vs-new allocation-search benchmark (the PR-over-PR speedup
// tracker behind BENCH_search.json).
//
// Runs the same search workload over one synthetic scenario four ways
// and reports allocation evaluations per second:
//   old           naive cycle-stepping scheduler, no memoization,
//                 no pruning, single thread — the original baseline,
//   new_single    event-driven scheduler + Eval_cache, no pruning,
//                 single thread — the PR 1 path,
//   new_pruned    branch-and-bound walker + Pace_workspace reuse +
//                 value-only DP screening, single thread — this PR,
//   new_parallel  the pruned search on all hardware threads.
// All variants must find the identical best allocation (the
// determinism contract); the result records that check and the
// explicit pruned-vs-unpruned cross-check CI fails on.
//
// The pruned variants skip provably-worse points, so their throughput
// is reported as *effective* evaluations per second: the unpruned
// workload (new_single's evaluation count) divided by the pruned wall
// time — i.e. how fast the same space gets searched.
//
// A separate instrumented pass over the space splits evaluation time
// into scheduling (memoized cost lookup) vs. the PACE DP, the two
// halves the tentpole optimizations target.
//
// Callable from `lycos_cli --bench-json <path>` and from the
// bench_scaling binary so CI can emit the JSON reproducibly.
#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <string>

namespace lycos::search {

/// Scenario shape: 16 BSBs at the top of the bench_scaling sweep
/// range (128 ops each), heterogeneous op mixes, searched with the
/// usual coarse area quantum.
struct Search_bench_config {
    int n_bsbs = 16;
    int ops_per_bsb = 128;
    double asic_area = 20000.0;
    int max_count_per_type = 2;  ///< restriction bound clamp (space size control)
    std::uint64_t seed = 42;
};

/// Perf-regression thresholds for the dispatched SIMD kernels
/// (BENCH_search.json "kernels" section): the min-of-N SIMD timing
/// must beat the min-of-N scalar timing by at least these ratios, or
/// write_bench_report fails the build.  Scalar-only configurations
/// (LYCOS_DISABLE_SIMD, non-AVX2 CPUs) pass trivially —
/// `simd_available` records which case the report describes.
inline constexpr double k_kernel_pace_min_speedup = 1.5;
inline constexpr double k_kernel_merge_min_speedup = 1.3;

/// Serving-layer latency gate (BENCH_search.json "serve" section):
/// p99 end-to-end latency of a request burst must stay under
/// `factor x` the calibrated per-request cost times the queue depth
/// per worker, with an absolute floor so fast machines cannot fail on
/// timer noise.  Deliberately generous — the gate exists to catch
/// catastrophic regressions (a serialized pool, a lost wakeup, a
/// per-request overhead blowup), not to pin the absolute latency.
inline constexpr double k_serve_p99_budget_factor = 4.0;
inline constexpr double k_serve_p99_floor_ms = 50.0;

/// Request-batching throughput gate (BENCH "serve_batch" section):
/// an interleaved two-family burst against a deliberately small
/// session pool (capacity 1, one worker) must run at least this much
/// faster with batching on than off.  Unbatched, the alternating
/// families evict each other's session on every request — every solve
/// is cold; batched, each family drains into one batch on one pinned
/// session and every member after the first resumes the shared
/// Eval_cache and the checkpointed DP rows.  The gate also requires
/// cross-request DP reuse to be observed (dp_rows_cross > 0) and the
/// batched answers to be bit-identical to the unbatched (fresh-
/// session) ones.
inline constexpr double k_serve_batch_min_speedup = 1.3;

/// Measured throughputs (evaluations per second) and speedups.
struct Search_bench_result {
    long long space_size = 0;
    long long n_evaluated = 0;  ///< of the unpruned variants
    long long n_evaluated_pruned = 0;  ///< fully/value-DP scored points
    long long n_pruned = 0;            ///< points skipped by the bound
    double secs_old = 0.0;
    double secs_new_single = 0.0;
    double secs_new_pruned = 0.0;
    double secs_new_parallel = 0.0;
    double evals_per_sec_old = 0.0;
    double evals_per_sec_new_single = 0.0;
    double evals_per_sec_new_pruned = 0.0;    ///< effective (see header)
    double evals_per_sec_new_parallel = 0.0;  ///< effective
    double speedup_single = 0.0;    ///< new_single vs old
    double speedup_pruned = 0.0;    ///< new_pruned vs old (effective)
    double speedup_pruned_vs_single = 0.0;  ///< new_pruned vs new_single
    double speedup_parallel = 0.0;  ///< new_parallel vs old (effective)
    double cache_hit_rate = 0.0;    ///< of the single-threaded cached run
    double cache_hit_rate_pruned = 0.0;
    double sched_seconds = 0.0;  ///< instrumented pass: memoized cost fetch
    double dp_seconds = 0.0;     ///< instrumented pass: PACE DP
    int n_threads = 1;           ///< used by the parallel run
    bool same_best = false;      ///< all variants agreed on the best
    bool pruned_matches_unpruned = false;  ///< explicit B&B cross-check

    /// Incremental-DP observability of the pruned run (the pruned
    /// search is the incremental path; pruned_matches_unpruned is the
    /// incremental-vs-cold cross-check CI gates on).
    long long dp_rows_reused = 0;
    long long dp_rows_swept = 0;

    /// Two-ASIC DP: the Pareto-sparse production path against the
    /// dense full-scan reference on a two-ASIC split of the same
    /// scenario.
    long long multi_n_bsbs = 0;
    double multi_secs_dense = 0.0;     ///< per dense partition call
    double multi_secs_sparse = 0.0;    ///< per sparse partition call
    double multi_speedup = 0.0;        ///< dense / sparse
    double multi_evals_per_sec = 0.0;  ///< sparse partitions per second
    double multi_sparse_occupancy = 0.0;    ///< sparse states / dense cells
    long long multi_sparse_states = 0;      ///< states stored (traceback)
    double multi_area_quantum = 0.0;
    std::size_t multi_traceback_bytes = 0;  ///< sparse encoding
    std::size_t multi_traceback_bytes_dense = 0;
    /// Sparse == dense on placement and time — the
    /// sparse_matches_dense gate CI fails on.
    bool multi_sparse_matches_dense = false;

    /// Solver section: the same scenario driven through the
    /// solver::Session API, one entry per registered strategy.
    double solver_exh_seconds = 0.0;
    double solver_exh_evals_per_sec = 0.0;  ///< effective (unpruned workload)
    double solver_hill_seconds = 0.0;
    long long solver_hill_evaluated = 0;    ///< screened candidates scored
    double solver_hill_evals_per_sec = 0.0;

    /// multi_asic_bb: the pair-tree branch-and-bound — pair space,
    /// scored/pruned pairs, row-bound kills, throughput, and the
    /// determinism cross-check (best pair identical for 1 thread vs
    /// parallel).  rows_pruned > 0 and dp_states < dp_dense are gates
    /// on the standard bench space: the row bound must actually kill
    /// rows and the sparse DP must sweep fewer cells than the dense
    /// grids it replaced.
    long long solver_multi_pairs = 0;
    long long solver_multi_axis0 = 0;
    long long solver_multi_axis1 = 0;
    long long solver_multi_evaluated = 0;
    long long solver_multi_pruned = 0;
    long long solver_multi_rows_visited = 0;
    long long solver_multi_rows_pruned = 0;
    long long solver_multi_pairs_skipped = 0;
    long long solver_multi_dp_states = 0;  ///< sparse states swept, all DPs
    long long solver_multi_dp_dense = 0;   ///< dense-grid equivalent
    double solver_multi_seconds = 0.0;
    double solver_multi_pairs_per_sec = 0.0;  ///< effective (whole pair space)
    double solver_multi_best_time_ns = 0.0;
    bool solver_multi_deterministic = false;

    /// Deadline/anytime section (docs/api.md "Deadlines, budgets, and
    /// anytime results"): the poll-overhead gate — an armed but
    /// never-tripping Cancel_token on the new_single sweep must cost
    /// under 1% wall time (per-sweep medians over interleaved sweeps,
    /// at least 100 ms a side, small absolute noise floor) — plus
    /// incumbent quality under 1/10/100 ms deadlines (informational:
    /// what a deadline buys depends on the host's speed, so only the
    /// overhead is gated).
    double deadline_secs_no_token = 0.0;  ///< median sweep, no token
    double deadline_secs_token = 0.0;     ///< median sweep, far deadline
    int deadline_poll_sweeps = 0;         ///< sweeps run on each side
    double deadline_poll_overhead = 0.0;  ///< token / no-token - 1
    bool deadline_overhead_ok = false;    ///< < 1% (+2 ms noise floor)
    std::array<double, 3> deadline_ms_points{1.0, 10.0, 100.0};
    std::array<double, 3> deadline_best_time_ns{0.0, 0.0, 0.0};
    std::array<bool, 3> deadline_complete{false, false, false};
    double deadline_untruncated_time_ns = 0.0;  ///< the full solve's best

    /// Serve section (BENCH "serve"): a burst of hill_climb requests
    /// over the same scenario through serve::Server — end-to-end
    /// (queue + solve) latency percentiles, the status counts, and
    /// the p99 gate.  The burst mixes priorities and includes a few
    /// already-expired deadlines, so the degradation ladder (skip to
    /// the greedy incumbent) is exercised on every run.
    long long serve_requests = 0;
    long long serve_completed = 0;
    long long serve_degraded = 0;
    long long serve_shed = 0;
    long long serve_failed = 0;
    int serve_workers = 0;
    double serve_calib_ms = 0.0;  ///< one-shot per-request cost (no queue)
    double serve_p50_ms = 0.0;
    double serve_p99_ms = 0.0;
    double serve_p99_budget_ms = 0.0;
    bool serve_p99_ok = false;  ///< p99 <= budget — the CI gate

    /// Serve batching section (BENCH "serve_batch"): the same
    /// interleaved two-family burst replayed through a one-worker,
    /// capacity-1-pool Server with batching on and off (min-of-N wall
    /// each).  Unbatched, the families LRU-evict each other and every
    /// solve is cold — the fresh-session reference of the bit-identity
    /// contract; batched, each family is served as one batch on one
    /// pinned session.  Gated on k_serve_batch_min_speedup, on
    /// observed cross-request DP reuse, on per-request identity, and
    /// on the batched p99 staying inside the usual serve budget.
    long long serve_batch_requests = 0;  ///< burst size (each mode, per run)
    int serve_batch_families = 0;
    double serve_batch_secs_on = 0.0;   ///< min-of-N wall, batching on
    double serve_batch_secs_off = 0.0;  ///< min-of-N wall, batching off
    double serve_batch_rps_on = 0.0;    ///< requests per second
    double serve_batch_rps_off = 0.0;
    double serve_batch_speedup = 0.0;   ///< secs_off / secs_on
    double serve_batch_p50_ms = 0.0;    ///< batched timed run, end-to-end
    double serve_batch_p99_ms = 0.0;
    double serve_batch_p99_budget_ms = 0.0;
    long long serve_batch_dp_rows_cross = 0;  ///< batched timed run
    long long serve_batch_batches = 0;        ///< batches formed
    long long serve_batch_max_size = 0;
    double serve_batch_cache_hit_rate = 0.0;  ///< combined, batched run
    bool serve_batch_identical = false;  ///< batched == unbatched, per request
    bool serve_batch_ok = false;         ///< the CI gate (see above)

    /// Distributed section (BENCH "dist"): the solver scenario's
    /// exhaustive_bb fanned out through dist::solve_distributed over
    /// 1/2/4 in-process loopback workers — wall time, lease and
    /// incumbent-broadcast counts per worker count, plus the
    /// bit-identity gate against the local Session solve
    /// (`dist_matches_local`) write_bench_report fails on.  The wall
    /// times are informational (loopback fan-out of a small space is
    /// overhead-dominated); only the identity is gated.
    std::array<int, 3> dist_worker_counts{1, 2, 4};
    std::array<double, 3> dist_seconds{0.0, 0.0, 0.0};
    std::array<long long, 3> dist_leases{0, 0, 0};
    std::array<long long, 3> dist_broadcasts{0, 0, 0};
    long long dist_units = 0;  ///< leased logical units (leaves)
    bool dist_matches_local = false;  ///< identical tuple, all counts

    /// Kernel-dispatch section (BENCH "kernels"): min-of-N timings of
    /// the scalar kernel table against the best dispatched one on the
    /// two hot row scans — the single-ASIC value-sweep row
    /// (pace_row_sw + pace_row_hw over a wide row) and the multi-ASIC
    /// dominance-merge scan (multi_shift_lane + max_reduce over a
    /// large SoA lane).  On scalar-only builds both tables are the
    /// same and the *_ok gates pass trivially.
    bool kernels_simd_available = false;
    std::string kernels_isa;  ///< active dispatch level ("scalar"/"avx2")
    double kern_pace_secs_scalar = 0.0;   ///< min-of-N, one sweep pass
    double kern_pace_secs_simd = 0.0;
    double kern_pace_speedup = 0.0;       ///< scalar / simd
    bool kern_pace_ok = false;  ///< >= k_kernel_pace_min_speedup (or no SIMD)
    double kern_merge_secs_scalar = 0.0;  ///< min-of-N, one merge scan
    double kern_merge_secs_simd = 0.0;
    double kern_merge_speedup = 0.0;
    bool kern_merge_ok = false;  ///< >= k_kernel_merge_min_speedup (or no SIMD)
};

/// Build the scenario and run the search variants.
Search_bench_result run_search_bench(const Search_bench_config& config = {});

/// Serialize as the BENCH_search.json schema (stable keys, one object).
std::string to_json(const Search_bench_config& config,
                    const Search_bench_result& result);

/// Human-readable summary (one line per variant).
void print_summary(std::ostream& out, const Search_bench_result& result);

/// The shared entry point of `lycos_cli --bench-json` and the
/// bench_scaling tail: run the default-config bench, print the
/// summary to `log`, write the JSON report to `path`.  Returns the
/// process exit code (0 only if the report was written, all variants
/// agreed on the best allocation, the pruned search matched the
/// unpruned one, the sparse two-ASIC DP matched the dense reference
/// (`sparse_matches_dense`), the pair-tree walk was chunking-independent
/// (`pair_tree_bb.deterministic`), its row bound killed at least one
/// row, the sparse DPs swept fewer cells than the dense grids they
/// replaced, an armed-but-idle Cancel_token cost the new_single
/// sweep under 1% (`deadline.overhead_ok`), the serving layer's
/// request burst finished every request and kept its p99 under the
/// calibrated budget (`serve.p99_ok`), request batching beat the
/// unbatched replay of the two-family burst by the pinned ratio with
/// observed cross-request DP reuse and bit-identical answers
/// (`serve_batch.ok`), the distributed solve matched
/// the local one bit for bit at every worker count
/// (`dist.matches_local`), and — on builds/CPUs with
/// SIMD — the dispatched kernels beat the scalar table by the pinned
/// min-of-N ratios (`kernels.*.ok`)); failures are reported on
/// `err`, never thrown.
int write_bench_report(const std::string& path, std::ostream& log,
                       std::ostream& err);

}  // namespace lycos::search

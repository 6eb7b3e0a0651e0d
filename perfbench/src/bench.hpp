// What a workload gets and what it reports.
#pragma once

#include <pthread.h>
#include <sched.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "solver/solver.hpp"
#include "stats.hpp"
#include "trace.hpp"

namespace perfbench {

/// One busy thread per core at the lowest scheduling class
/// (SCHED_IDLE), from construction until pause(): they run only when a
/// core has nothing else to do, and keep it from going idle.  On a
/// virtual machine, waking an idle core takes a variable, often
/// millisecond-scale delay that every thread hand-off (pool dispatch, a
/// served request, a lease) pays, and it grows with the host's load.
/// The workloads run with these threads, so their figures leave that
/// delay out; pool.scaling.cold is measured with them paused.
class Keep_warm {
public:
    explicit Keep_warm(int n) : n_(n) { resume(); }
    ~Keep_warm() { pause(); }
    Keep_warm(const Keep_warm&) = delete;
    Keep_warm& operator=(const Keep_warm&) = delete;

    void resume()
    {
        stop_ = false;
        for (int i = static_cast<int>(threads_.size()); i < n_; ++i)
            threads_.emplace_back([this] {
                sched_param param{};
                pthread_setschedparam(pthread_self(), SCHED_IDLE, &param);
                while (!stop_.load(std::memory_order_relaxed)) {
#if defined(__x86_64__) || defined(__i386__)
                    __builtin_ia32_pause();
#endif
                }
            });
    }

    void pause()
    {
        stop_ = true;
        for (auto& t : threads_)
            t.join();
        threads_.clear();
    }

private:
    int n_;
    std::atomic<bool> stop_{false};
    std::vector<std::thread> threads_;
};

struct Run_context {
    std::uint64_t seed = 0;
    double seconds = 10.0;
    bool trace = false;
    int nproc = 1;          ///< thread budget of the whole process
    Tracer& tracer;         ///< enabled in the traced run
    Tracer& untraced;       ///< always disabled
    Keep_warm& keep_warm;
    std::string reference_path;  ///< stored two_asic references
};

using clock = std::chrono::steady_clock;

inline double ms_since(clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(clock::now() - t0).count();
}

/// Times the build of a workload's inputs, for setup_s.  One build
/// takes about a millisecond, too short to time steadily, so a sample
/// is the mean build time over a batch of builds that together take at
/// least k_setup_batch_s (releasing a build is not timed), and setup_s
/// is the median over k_setup_samples samples: half taken by start(),
/// before the workload runs, half by finish(), after it, so one slow
/// stretch of the machine does not decide the figure.  Both need the
/// run's Keep_warm (defined above).
inline constexpr std::size_t k_setup_samples = 10;
inline constexpr double k_setup_batch_s = 0.1;

class Setup_timer {
public:
    /// Takes the first half of the samples and returns a build of the
    /// inputs for the workload to use.
    template <class Make>
    auto start(Keep_warm& keep_warm, Make make)
    {
        sample_ = [make] {
            double spent_s = 0.0;
            int builds = 0;
            while (spent_s < k_setup_batch_s) {
                const auto t0 = clock::now();
                const auto built = make();
                spent_s += ms_since(t0) / 1e3;
                ++builds;
            }
            return spent_s / builds;
        };
        take(keep_warm, k_setup_samples / 2);
        return make();
    }

    /// Takes the rest of the samples and returns setup_s.
    double finish(Keep_warm& keep_warm)
    {
        take(keep_warm, k_setup_samples);
        return median(samples_);
    }

private:
    /// Samples until there are `n`.  A build runs on one thread, so the
    /// Keep_warm threads are paused meanwhile: they would only add the
    /// host's load to it.
    void take(Keep_warm& keep_warm, std::size_t n)
    {
        keep_warm.pause();
        while (sample_ && samples_.size() < n)
            samples_.push_back(sample_());
        keep_warm.resume();
    }

    std::function<double()> sample_;
    std::vector<double> samples_;
};

/// A workload's report: metric values by name (units live in the
/// metric tables of main.cpp), the failure tally, and human-readable
/// notes such as the percentile and sample count behind each tail.
struct Outcome {
    std::map<std::string, double> metrics;
    Fail_tally tally;
    Setup_timer setup;  ///< finish() gives setup_s
    std::vector<std::string> notes;

    /// Records `name` as the tail of `samples` and notes which
    /// percentile that was and over how many samples.
    void put_tail(const std::string& name, std::vector<double> samples);

    /// Notes that `p50` and `tail` are medians over `windows` windows,
    /// and which percentile each window's tail was.
    void note_windowed(const std::string& p50, const std::string& tail,
                       std::size_t windows, const Tail& window_tail);
};

/// Counters summed over the solves of a run; put() reports them per
/// solve (counts), as shares, or per second of solve time.
struct Solve_counters {
    long long solves = 0;
    double seconds = 0.0;
    lycos::search::Eval_cache_stats cache;
    long long evals = 0, pruned = 0;
    long long dp_rows_swept = 0, dp_rows_reused = 0;
    long long pairs_walked = 0, pairs_skipped = 0;
    long long rows_visited = 0, rows_pruned = 0;
    long long dp_states = 0, dp_cells_dense = 0;

    void add(const lycos::solver::Solve_result& r);
    void put(Outcome& out) const;
};

/// Per-layer self times of the traced spans, as self_ms.<layer>.
void put_self_times(Outcome& out, const Tracer& tr);

/// Peak resident set of the measured part of a run: reset_peak_rss()
/// starts the window (it resets the kernel's high-water mark, so set-up
/// and reference answers do not count), peak_rss_mb() reads it.
void reset_peak_rss();
double peak_rss_mb();

Outcome run_table1_sweep(Run_context& cx);
Outcome run_two_asic(Run_context& cx);
Outcome run_dist_solve(Run_context& cx);
Outcome run_serve_mix(Run_context& cx);

/// Recomputes the stored two_asic references into `path`.
int write_two_asic_references(const std::string& path);

}  // namespace perfbench

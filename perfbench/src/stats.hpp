// Sample statistics and open-loop accounting of the benchmark.
//
// Everything here is plain arithmetic over recorded samples, kept
// apart from the workloads so perfbench_selftest can pin each rule.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace perfbench {

/// SplitMix64: the benchmark's own generator, so the inputs a seed
/// produces do not depend on the standard library's distributions.
class Rng {
public:
    explicit Rng(std::uint64_t seed) : state_(seed) {}
    std::uint64_t next();
    double uniform();                       ///< [0, 1)
    double uniform(double lo, double hi);   ///< [lo, hi)
    std::size_t below(std::size_t n);       ///< [0, n), n > 0
    double exponential(double rate);        ///< mean 1 / rate

private:
    std::uint64_t state_;
};

/// Median (mean of the middle two for an even count); 0 when empty.
double median(std::vector<double> v);

/// The tail rule: the highest of p99.9, p99, p90, p75 and p50 that
/// still has at least `k_tail_beyond` samples ranked beyond it (nearest
/// rank), so the tail rests on at least ten samples: p90 from 100
/// samples, p99 from 1000, p99.9 from 10000.  With fewer than 20
/// samples the maximum is reported (beyond = 0), so callers can say
/// so.  A fixed ladder of percentiles keeps runs of one size reporting
/// the same percentile.
inline constexpr std::size_t k_tail_beyond = 10;

struct Tail {
    double value = 0.0;
    double percentile = 0.0;  ///< e.g. 90.0 for p90
    std::size_t n = 0;        ///< samples
    std::size_t beyond = 0;   ///< samples ranked after `value`
};

Tail tail(std::vector<double> v);

/// Figures of a sample taken in arrival order and split into `k`
/// consecutive windows of equal size: the median over the windows of
/// each window's median and of each window's tail.  A burst of machine
/// noise then moves one window's figures, not the reported ones.
struct Windowed {
    double p50 = 0.0;
    double tail = 0.0;
    Tail window_tail;  ///< the last window's tail, for its percentile and size
};

Windowed windowed(std::span<const double> samples, std::size_t k);

/// Due times (seconds from the rung start) of the first `count`
/// arrivals of a seeded Poisson stream; ascending.
std::vector<double> poisson_due(std::uint64_t seed, double rate, std::size_t count);

/// One open-loop request as the generator saw it.  Times are seconds
/// since the rung started.  A request is timed from when it was due,
/// so a late generator charges its lag to every request it delays,
/// and admission (submit() copying the request and encoding its key)
/// is charged to the request too.
struct Arrival {
    double due_s = 0.0;
    double sent_s = 0.0;      ///< the generator called submit()
    double admitted_s = 0.0;  ///< submit() returned
    /// When the answer was ready; +inf for a shed or failed request,
    /// which therefore misses every latency limit.
    double done_s = 0.0;

    /// Records an answer the server took `server_ms` over (its queue
    /// plus service time, counted from inside submit()).  Counting from
    /// admitted_s overstates the latency by the lock and notify at the
    /// end of submit(), never understates it.
    void answered(double server_ms) { done_s = admitted_s + server_ms / 1e3; }

    double latency_ms() const { return (done_s - due_s) * 1e3; }
    double lag_ms() const { return (sent_s - due_s) * 1e3; }
};

/// The backlog test of one rung: `outstanding` holds the number of
/// requests admitted but not yet answered, sampled as requests are
/// sent, `sent` the number of requests the rung sent.  The score is
/// (mean of the last quarter of the samples - 1.5 * mean of the second
/// quarter) / margin, the margin 2% of the rung's requests and at least
/// four (the first quarter is skipped: every rung starts from an empty
/// queue).  The backlog grows when the score exceeds 1.  Fewer than
/// eight samples score 0.
double backlog_score(std::span<const double> outstanding, std::size_t sent);

/// What one rung of the rate ladder measured.
struct Rung_outcome {
    double rate_rps = 0.0;
    double tail_ms = 0.0;  ///< tail-rule latency from due time
    double backlog = 0.0;  ///< backlog_score over the rung

    /// How far the rung is from failing: the larger of tail / limit
    /// and the backlog score.  The rung fails above 1.
    double load(double limit_ms) const;
};

/// The highest offered rate whose tail meets `limit_ms` with no
/// growing backlog.  `rungs` ascend in rate.  Between the last passing
/// rung and the first failing one the rate is interpolated linearly on
/// Rung_outcome::load to where it crosses 1, so the figure moves
/// continuously with the system instead of jumping between ladder
/// rates.  A ladder that never fails reports its top rate; one whose
/// first rung fails reports that rate divided by its load (by one half
/// when the tail is unbounded).
double max_rate(std::span<const Rung_outcome> rungs, double limit_ms);

/// The verdict on one attempted operation (a closed-loop solve or a
/// served request).  Any one of these makes it a failure.
struct Verdict {
    bool threw = false;     ///< an exception escaped the call
    bool complete = true;   ///< the solve ran to its natural end
    bool answered = true;   ///< the request was neither shed nor failed
    bool matches = true;    ///< the answer equals its reference

    bool ok() const { return !threw && complete && answered && matches; }
};

/// Failure accounting: every attempted operation is recorded once,
/// and fail_frac() = failed / attempted.
struct Fail_tally {
    long long attempted = 0;
    long long failed = 0;

    void record(const Verdict& v)
    {
        ++attempted;
        if (!v.ok())
            ++failed;
    }
    double fail_frac() const
    {
        return attempted > 0 ? static_cast<double>(failed) /
                                   static_cast<double>(attempted)
                             : 0.0;
    }
};

}  // namespace perfbench

#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace perfbench {

std::uint64_t Rng::next()
{
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

double Rng::uniform()
{
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi)
{
    return lo + (hi - lo) * uniform();
}

std::size_t Rng::below(std::size_t n)
{
    return static_cast<std::size_t>(next() % n);
}

double Rng::exponential(double rate)
{
    return -std::log1p(-uniform()) / rate;
}

double median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    const std::size_t mid = v.size() / 2;
    std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid),
                     v.end());
    const double hi = v[mid];
    if (v.size() % 2 == 1)
        return hi;
    const double lo =
        *std::max_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid));
    return (lo + hi) / 2.0;
}

Tail tail(std::vector<double> v)
{
    Tail t;
    t.n = v.size();
    if (v.empty())
        return t;
    std::sort(v.begin(), v.end());
    for (double p : {99.9, 99.0, 90.0, 75.0, 50.0}) {
        const auto rank = static_cast<std::size_t>(
            std::ceil(p / 100.0 * static_cast<double>(v.size()) - 1e-9));
        const std::size_t beyond = v.size() - rank;
        if (rank >= 1 && beyond >= k_tail_beyond) {
            t.value = v[rank - 1];
            t.percentile = p;
            t.beyond = beyond;
            return t;
        }
    }
    t.value = v.back();
    t.percentile = 100.0;
    return t;
}

Windowed windowed(std::span<const double> samples, std::size_t k)
{
    Windowed w;
    if (samples.empty() || k == 0)
        return w;
    std::vector<double> p50s, tails;
    for (std::size_t i = 0; i < k; ++i) {
        const std::vector<double> part(samples.begin() + static_cast<std::ptrdiff_t>(i * samples.size() / k),
                                       samples.begin() + static_cast<std::ptrdiff_t>((i + 1) * samples.size() / k));
        p50s.push_back(median(part));
        w.window_tail = tail(part);
        tails.push_back(w.window_tail.value);
    }
    w.p50 = median(p50s);
    w.tail = median(tails);
    return w;
}

std::vector<double> poisson_due(std::uint64_t seed, double rate, std::size_t count)
{
    Rng rng(seed);
    std::vector<double> due;
    double t = 0.0;
    for (std::size_t i = 0; i < count; ++i)
        due.push_back(t += rng.exponential(rate));
    return due;
}

double backlog_score(std::span<const double> outstanding, std::size_t sent)
{
    const std::size_t n = outstanding.size();
    if (n < 8)
        return 0.0;
    const auto mean = [&](std::size_t b, std::size_t e) {
        return std::accumulate(outstanding.begin() + static_cast<std::ptrdiff_t>(b),
                               outstanding.begin() + static_cast<std::ptrdiff_t>(e),
                               0.0) /
               static_cast<double>(e - b);
    };
    const double margin = std::max(4.0, 0.02 * static_cast<double>(sent));
    return (mean(3 * n / 4, n) - 1.5 * mean(n / 4, n / 2)) / margin;
}

double Rung_outcome::load(double limit_ms) const
{
    const double by_tail = std::isnan(tail_ms) ? INFINITY : tail_ms / limit_ms;
    return std::max(by_tail, backlog);
}

double max_rate(std::span<const Rung_outcome> rungs, double limit_ms)
{
    if (rungs.empty())
        return 0.0;
    std::size_t f = 0;
    while (f < rungs.size() && !(rungs[f].load(limit_ms) > 1.0))
        ++f;
    if (f == rungs.size())
        return rungs.back().rate_rps;
    const double fail_load = rungs[f].load(limit_ms);
    if (f == 0)
        return rungs[0].rate_rps * (std::isfinite(fail_load) ? 1.0 / fail_load : 0.5);
    const Rung_outcome& pass = rungs[f - 1];
    const Rung_outcome& fail = rungs[f];
    const double pass_load = pass.load(limit_ms);
    const double share =
        std::isfinite(fail_load) ? (1.0 - pass_load) / (fail_load - pass_load) : 0.0;
    return pass.rate_rps + (fail.rate_rps - pass.rate_rps) * share;
}

}  // namespace perfbench

// Self-tests of the benchmark's own logic: the tail rule, open-loop
// due-time accounting, the backlog test behind max_rate_rps, and the
// failure accounting.  Exits non-zero on the first failed check.
//
//   perfbench_selftest        (perfbench/run.py --selftest builds and runs it)
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "stats.hpp"

namespace {

using namespace perfbench;

int g_failed = 0;

void check(bool ok, const char* what)
{
    std::printf("%s  %s\n", ok ? "ok  " : "FAIL", what);
    if (!ok)
        ++g_failed;
}

std::vector<double> one_to(int n)
{
    std::vector<double> v;
    for (int i = n; i >= 1; --i)  // descending: tail() must sort
        v.push_back(i);
    return v;
}

void tail_rule()
{
    const Tail t100 = tail(one_to(100));
    check(t100.value == 90.0 && t100.beyond == 10 && t100.percentile == 90.0,
          "100 samples: p90, with ten beyond it");
    const Tail t999 = tail(one_to(999));
    check(t999.value == 900.0 && t999.beyond == 99 && t999.percentile == 90.0,
          "999 samples: p99 would have nine beyond, so p90");
    const Tail t1000 = tail(one_to(1000));
    check(t1000.value == 990.0 && t1000.beyond == 10 && t1000.percentile == 99.0,
          "1000 samples: p99");
    const Tail t20000 = tail(one_to(20000));
    check(t20000.value == 19980.0 && t20000.percentile == 99.9, "20000 samples: p99.9");
    const Tail t40 = tail(one_to(40));
    check(t40.value == 30.0 && t40.beyond == 10 && t40.percentile == 75.0,
          "40 samples: p75");
    const Tail t25 = tail(one_to(25));
    check(t25.value == 13.0 && t25.beyond == 12 && t25.percentile == 50.0,
          "25 samples: the median");
    const Tail t10 = tail(one_to(10));
    check(t10.value == 10.0 && t10.beyond == 0 && t10.percentile == 100.0,
          "ten samples: the maximum, with none beyond");
    check(tail({}).n == 0 && tail({}).value == 0.0, "no samples: empty tail");
    std::vector<double> bursty;
    for (int w = 0; w < 5; ++w)
        for (int i = 1; i <= 100; ++i)
            bursty.push_back(w == 2 ? 1000.0 * i : i);
    const Windowed win = windowed(bursty, 5);
    check(win.p50 == 50.5 && win.tail == 90.0 && win.window_tail.n == 100,
          "windowed figures are medians over windows: one noisy window does not move them");
    check(median({3.0, 1.0, 2.0}) == 2.0 && median({4.0, 1.0, 3.0, 2.0}) == 2.5,
          "median of odd and even counts");
}

void open_loop_accounting()
{
    // A generator that sends 30 ms late charges the lag to the request.
    // Admission takes 2 ms and the server reports 18 ms of queue and
    // service from inside submit().
    Arrival late{1.000, 1.030, 1.032, 0.0};
    late.answered(18.0);
    check(std::fabs(late.lag_ms() - 30.0) < 1e-9, "generator lag is sent minus due");
    check(std::fabs(late.latency_ms() - 50.0) < 1e-9,
          "latency counts from the due time and includes admission");
    const Arrival shed{1.0, 1.0, 1.0, INFINITY};
    check(std::isinf(shed.latency_ms()), "a shed request has unbounded latency");
    check(!(tail({1.0, 2.0, shed.latency_ms()}).value <= 1e9),
          "a shed request misses every latency limit");

    const auto due = poisson_due(42, 200.0, 1000);
    bool ascending = due.size() == 1000 && due.front() > 0.0;
    for (std::size_t i = 1; i < due.size(); ++i)
        ascending = ascending && due[i] > due[i - 1];
    check(ascending, "the requested number of due times, ascending");
    check(std::fabs(due.back() - 5.0) < 0.5,
          "the stream offers its rate (1000 arrivals at 200/s take 5 +- 0.5 s)");
    check(poisson_due(42, 200.0, 1000) == due, "the same seed gives the same due times");
}

void backlog_and_max_rate()
{
    std::vector<double> steady, ramp;
    for (int i = 0; i < 400; ++i) {
        steady.push_back(i % 7 == 0 ? 6.0 : 2.0);
        ramp.push_back(i * 4.0);  // half of every eight sends stay queued
    }
    check(!(backlog_score(steady, 3200) > 1.0), "a fluctuating but steady queue is no backlog");
    check(backlog_score(ramp, 3200) > 1.0, "a queue growing linearly is a backlog");
    check(!(backlog_score(std::vector<double>{0, 2, 1, 3, 2, 4, 3, 2, 5, 3}, 80) > 1.0),
          "a short queue wandering by a few requests is no backlog");
    check(backlog_score(std::vector<double>{0, 10, 20, 30, 40, 50, 60}, 56) == 0.0,
          "fewer than eight samples never count");

    const std::vector<Rung_outcome> ladder{
        {50, 10, 0.0}, {100, 20, 0.0}, {150, 60, 0.0}, {200, 500, 2.0}};
    check(std::fabs(max_rate(ladder, 40.0) - 125.0) < 1e-9,
          "max rate interpolates between the last passing and first failing rung");
    const std::vector<Rung_outcome> backlog_only{{50, 10, 0.5}, {100, 20, 3.0}};
    check(std::fabs(max_rate(backlog_only, 40.0) - 60.0) < 1e-9,
          "a backlog failure interpolates on the backlog score");
    const std::vector<Rung_outcome> all_pass{{50, 10, 0.0}, {100, 20, 0.0}};
    check(max_rate(all_pass, 40.0) == 100.0, "a ladder that never fails reports its top rate");
    const std::vector<Rung_outcome> first_fails{{50, 80, 0.0}};
    check(max_rate(first_fails, 40.0) == 25.0, "a failing first rung scales by limit / tail");
    const std::vector<Rung_outcome> unbounded{{50, 10, 0.0}, {100, INFINITY, 0.0}};
    check(max_rate(unbounded, 40.0) == 50.0,
          "an unbounded tail (a shed request) caps the rate at the last passing rung");
}

void fail_accounting()
{
    Fail_tally tally;
    tally.record({});
    tally.record({.threw = true});
    tally.record({.complete = false});
    tally.record({.answered = false});
    tally.record({.matches = false});
    tally.record({});
    check(tally.attempted == 6 && tally.failed == 4,
          "exceptions, incomplete solves, shed requests and wrong answers all fail");
    check(std::fabs(tally.fail_frac() - 4.0 / 6.0) < 1e-12, "fail_frac is failed over attempted");
    check(Fail_tally{}.fail_frac() == 0.0, "no attempts: fail_frac 0");
}

}  // namespace

int main()
{
    tail_rule();
    open_loop_accounting();
    backlog_and_max_rate();
    fail_accounting();
    std::printf("%s\n", g_failed == 0 ? "all self-tests passed" : "self-tests FAILED");
    return g_failed == 0 ? EXIT_SUCCESS : EXIT_FAILURE;
}

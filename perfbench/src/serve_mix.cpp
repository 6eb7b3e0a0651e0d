// serve_mix: the open-loop workload.  One generator thread sends
// seeded Poisson arrivals into a serve::Server at two fixed rates and
// then at a ladder of rates around the service's capacity, and every
// request is timed from when it was due.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <deque>
#include <future>
#include <string_view>
#include <thread>
#include <tuple>

#include "bench.hpp"
#include "problems.hpp"
#include "serve/serve.hpp"

namespace perfbench {

namespace lc = lycos;
namespace ls = lycos::serve;

namespace {

// The offered-rate ladder.  "lo" and "hi" are fixed rates (requests per
// second) well below the service's capacity.  Above them the ladder is
// placed around the capacity the "lo" and "hi" service times imply
// (workers / mean service time): k_load_first times that rate, then
// k_load_step times the previous rung, climbed until the first rung
// that fails the latency limit.  Batching and warm caches make the
// service cheaper under load, so the crossing can lie well above that
// capacity.  max_rate_rps interpolates between the last passing rung
// and the first failing one, two neighbours that bracket the limit.
constexpr double k_lo_rps = 50.0, k_hi_rps = 100.0;
constexpr double k_load_first = 0.8, k_load_step = 1.1;
constexpr std::size_t k_load_rungs = 12;
// Share of --seconds each rung sends for; a rung sends a fixed number
// of whole request blocks (see k_classes), about rate * share *
// seconds requests.  "lo" and "hi" are measured on k_servers fresh
// servers in turn, each getting a third of their share: 153 and 187
// requests per server at --seconds 10, so each server's latency tail
// is a p90 with 16 or 19 samples beyond, and the service time over all
// of them (1020 requests) has a p99.  Each capacity rung gets
// k_load_share.
constexpr double k_lo_share = 0.92, k_hi_share = 0.56, k_load_share = 0.12;
// The latency limit on the tail of a rung, for max_rate_rps.
constexpr double k_limit_ms = 100.0;
// Before "lo" on each server: this share of --seconds at the "lo"
// rate, answers checked but not timed, so no server starts cold.
constexpr double k_warmup_share = 0.1;
// The "lo" and "hi" figures are medians over this many fresh servers:
// how well the session pool and batching happen to line up differs
// from server to server, and one server's luck should not decide them.
constexpr std::size_t k_servers = 3;
constexpr int k_workers = 2;

// The request classes of examples/serve_trace.txt, the repository's
// description of mixed service traffic, each with its line's repeat
// count: 17 requests, 2 of them interactive and 8 with chaos plans.
// Every block of 17 consecutive requests holds these classes in a
// seeded order, so a rung, sent in whole blocks, carries the trace's
// exact mix, each request on one solver thread (the trace's default).
// One thing differs from the trace: the multi_asic_bb request has no
// deadline (the trace gives it 5 ms), so no served answer depends on
// timing.
struct Request_class {
    const char* app;
    const char* strategy;
    ls::Priority priority;
    std::uint64_t chaos_seed;  ///< 0 = no chaos plan
    int repeat;
};
constexpr Request_class k_classes[] = {
    {"hal", "auto", ls::Priority::interactive, 0, 1},
    {"man", "hill_climb", ls::Priority::bulk, 0, 6},
    {"hal", "multi_asic_bb", ls::Priority::interactive, 0, 1},
    {"eigen", "auto", ls::Priority::bulk, 0, 1},
    {"hal", "auto", ls::Priority::bulk, 7, 4},
    {"man", "hill_climb", ls::Priority::bulk, 21, 4},
};
constexpr const char* k_apps[] = {"hal", "man", "eigen"};
constexpr std::size_t k_block = [] {  // the trace's requests, repeats expanded
    std::size_t n = 0;
    for (const auto& c : k_classes)
        n += static_cast<std::size_t>(c.repeat);
    return n;
}();

// The trace names each app at its Table 1 area only.  The budgets a
// request may ask for, and how popular each is, are assumptions, not
// taken from recorded traffic: a designer iterating near the preset,
// with the preset most popular (Zipf(1) over k_budget_scales, in that
// order).  hal and man get five budgets, eigen its preset only: 11
// distinct problems against the 8 session-pool slots, so keys repeat
// (batching, pool hits) and the pool also evicts.  The seed does not
// choose the budgets: eigen's solve, about 60% of the mix's work, costs
// 46 to 70 ms over budgets within 1% of its preset, and the workload's
// cost should not depend on which budgets a seed drew.
constexpr double k_budget_scales[] = {1.0, 0.99, 1.01, 0.98, 1.02};
constexpr std::size_t k_budgets[] = {5, 5, 1};  // per app of k_apps

struct Serve_setup {
    Library lib;
    /// Per app of k_apps, its budgets in order of popularity.
    std::vector<std::vector<Prepared>> problems;
    std::unique_ptr<ls::Server> server;
};

std::unique_ptr<ls::Server> make_server()
{
    ls::Server_options options;
    options.n_workers = k_workers;
    // Never shed: an overloaded rung shows as a growing backlog instead.
    options.queue_capacity = 1 << 20;
    return std::make_unique<ls::Server>(options);
}

std::unique_ptr<Serve_setup> make_serve()
{
    auto s = std::make_unique<Serve_setup>();
    s->lib = make_library();
    for (std::size_t a = 0; a < std::size(k_apps); ++a) {
        const auto& app = s->lib.app(k_apps[a]);
        auto& budgets = s->problems.emplace_back();
        for (std::size_t j = 0; j < k_budgets[a]; ++j)
            budgets.push_back(prepare(s->lib, app, app.asic_area * k_budget_scales[j]));
    }
    s->server = make_server();
    return s;
}

/// The problem of a request of class `c`: its app (index into k_apps)
/// and, by Zipf(1) popularity, one of the app's budgets.
std::pair<std::size_t, std::size_t> draw_problem(Rng& rng, const Request_class& c)
{
    const std::size_t app = static_cast<std::size_t>(
        std::find_if(std::begin(k_apps), std::end(k_apps),
                     [&](const char* a) { return std::string_view(a) == c.app; }) -
        std::begin(k_apps));
    const std::size_t n = k_budgets[app];
    double norm = 0.0;
    for (std::size_t r = 0; r < n; ++r)
        norm += 1.0 / static_cast<double>(r + 1);
    double v = rng.uniform() * norm;
    std::size_t r = 0;
    while (r + 1 < n && v >= 1.0 / static_cast<double>(r + 1))
        v -= 1.0 / static_cast<double>(++r);
    return {app, r};
}

/// One block of requests: every class of k_classes as often as the
/// trace repeats it, in a seeded order.
std::vector<const Request_class*> draw_block(Rng& rng)
{
    std::vector<const Request_class*> block;
    for (const auto& c : k_classes)
        block.insert(block.end(), static_cast<std::size_t>(c.repeat), &c);
    for (std::size_t i = block.size(); i > 1; --i)
        std::swap(block[i - 1], block[rng.below(i)]);
    return block;
}

struct Sent {
    std::pair<std::size_t, std::size_t> problem;  ///< app, budget (see draw_problem)
    ls::Request request;
    Arrival arrival;
    ls::Response response;
};

struct Rung {
    clock::time_point origin;  ///< due times count from here
    double rate = 0.0;
    double wall_s = 0.0;
    std::vector<Sent> sent;
    std::vector<double> outstanding;  ///< sampled at every eighth send
};

/// Sends `blocks` seeded request blocks at `rate` and waits for every
/// answer.
Rung run_rung(Serve_setup& s, double rate, std::size_t blocks, std::uint64_t seed)
{
    Rung rung;
    rung.rate = rate;
    Rng rng(seed);
    std::vector<const Request_class*> classes;
    for (std::size_t b = 0; b < blocks; ++b) {
        const auto block = draw_block(rng);
        classes.insert(classes.end(), block.begin(), block.end());
    }
    const auto due = poisson_due(rng.next(), rate, classes.size());
    for (std::size_t i = 0; i < classes.size(); ++i) {
        const Request_class& c = *classes[i];
        Sent one;
        one.problem = draw_problem(rng, c);
        one.request.problem =
            make_problem(s.lib, s.problems[one.problem.first][one.problem.second]);
        one.request.strategy = c.strategy;
        one.request.priority = c.priority;
        one.request.options.n_threads = 1;
        if (c.chaos_seed != 0)
            one.request.chaos = ls::Chaos_plan::from_seed(c.chaos_seed, 4, 16);
        one.arrival.due_s = due[i];
        rung.sent.push_back(std::move(one));
    }

    std::vector<std::future<ls::Response>> futures;
    futures.reserve(rung.sent.size());
    const auto t0 = rung.origin = clock::now();
    for (auto& one : rung.sent) {
        // Sleep to just before the due time, then spin: a thread woken
        // from sleep can run late by milliseconds on a busy host, and
        // that lag would be charged to the request.
        const auto due = t0 + std::chrono::duration_cast<clock::duration>(
                                  std::chrono::duration<double>(one.arrival.due_s));
        std::this_thread::sleep_until(due - std::chrono::microseconds(500));
        while (clock::now() < due) {
        }
        one.arrival.sent_s = ms_since(t0) / 1e3;
        futures.push_back(s.server->submit(one.request));
        one.arrival.admitted_s = ms_since(t0) / 1e3;
        if (futures.size() % 8 == 0) {  // stats() takes the server's lock
            const auto st = s.server->stats();
            rung.outstanding.push_back(static_cast<double>(
                st.submitted - st.completed - st.degraded - st.shed - st.failed));
        }
    }
    for (std::size_t i = 0; i < futures.size(); ++i) {
        auto& one = rung.sent[i];
        one.response = futures[i].get();
        if (one.response.status == ls::Request_status::complete ||
            one.response.status == ls::Request_status::degraded)
            one.arrival.answered(one.response.queue_ms + one.response.solve_ms);
        else
            one.arrival.done_s = INFINITY;
    }
    rung.wall_s = ms_since(t0) / 1e3;
    return rung;
}

std::vector<double> latencies(const Rung& rung)
{
    std::vector<double> ms;
    for (const auto& one : rung.sent)
        ms.push_back(one.arrival.latency_ms());
    return ms;
}

/// Reconstructs one request's spans from what the generator and the
/// response recorded: due -> sent (generator lag), submit (admission),
/// queue, service, and within the service the ladder rungs back to
/// back.
void record_spans(Tracer& tr, double origin_us, const Sent& one)
{
    const std::uint64_t op = tr.new_op();
    const auto& a = one.arrival;
    const double due = origin_us + a.due_s * 1e6;
    const double sent = origin_us + a.sent_s * 1e6;
    const double admitted = origin_us + a.admitted_s * 1e6;
    const double started = admitted + one.response.queue_ms * 1e3;
    const double done = started + one.response.solve_ms * 1e3;
    const std::uint64_t root = tr.record("serve.request", op, 0, due, done);
    tr.record("bench.generator_lag", op, root, due, sent);
    tr.record("serve.submit", op, root, sent, admitted);
    tr.record("serve.queue", op, root, admitted, started);
    const std::uint64_t service = tr.record("serve.service", op, root, started, done);
    double t = started;
    for (std::size_t k = 0; k < one.response.attempts.size(); ++k) {
        const double end = std::min(done, t + one.response.attempts[k].seconds * 1e6);
        tr.record("serve.rung." + std::to_string(k), op, service, t, end);
        t = end;
    }
}

}  // namespace

Outcome run_serve_mix(Run_context& cx)
{
    Outcome out;
    auto setup = out.setup.start(cx.keep_warm, make_serve);
    const auto blocks = [&](double rate, double share) {
        return static_cast<std::size_t>(std::max(
            1L, std::lround(rate * share * cx.seconds / static_cast<double>(k_block))));
    };
    Rng seeds(cx.seed ^ 0x5E77E11Dull);

    // "lo" and "hi" on k_servers fresh servers, then the capacity rungs
    // on the last one, stopping at the first failing rung.  The
    // per-layer counters cover the "lo" and "hi" rungs only.
    std::deque<Rung> checked;  // every rung, for the answer checks; `operating` points into it
    std::vector<double> lo_ms, hi_ms, service_ms;
    std::vector<const Rung*> operating;
    ls::Server_stats counted;
    lc::search::Eval_cache_stats cache;
    reset_peak_rss();
    for (std::size_t i = 0; i < k_servers; ++i) {
        if (i > 0)
            setup->server = make_server();
        checked.push_back(
            run_rung(*setup, k_lo_rps, blocks(k_lo_rps, k_warmup_share), seeds.next()));
        const ls::Server_stats before = setup->server->stats();
        for (const auto& [rate, share, ms] : {std::tuple{k_lo_rps, k_lo_share, &lo_ms},
                                              std::tuple{k_hi_rps, k_hi_share, &hi_ms}}) {
            checked.push_back(
                run_rung(*setup, rate, blocks(rate, share / k_servers), seeds.next()));
            operating.push_back(&checked.back());
            for (const auto& one : checked.back().sent) {
                ms->push_back(one.arrival.latency_ms());
                service_ms.push_back(one.response.solve_ms);
            }
        }
        const ls::Server_stats after = setup->server->stats();
        counted.batched_requests += after.batched_requests - before.batched_requests;
        counted.sessions_reused += after.sessions_reused - before.sessions_reused;
        counted.retries += after.retries - before.retries;
        counted.dp_rows_reused_cross_request +=
            after.dp_rows_reused_cross_request - before.dp_rows_reused_cross_request;
        for (const auto& f : after.family_cache)
            cache += f.cache;
        for (const auto& f : before.family_cache) {
            cache.hits -= f.cache.hits;
            cache.misses -= f.cache.misses;
        }
    }
    out.metrics["peak_rss_mb"] = peak_rss_mb();

    // The capacity the service time implies, workers / mean service
    // time, as the median over the servers (service_ms holds each
    // server's requests in turn, the same number from each).
    std::vector<double> capacities;
    for (std::size_t i = 0; i < k_servers; ++i) {
        const std::size_t n = service_ms.size() / k_servers;
        double busy_ms = 0.0;
        for (std::size_t j = i * n; j < (i + 1) * n; ++j)
            busy_ms += service_ms[j];
        capacities.push_back(k_workers * static_cast<double>(n) / (busy_ms / 1e3));
    }
    const double capacity_rps = median(capacities);

    // A fixed rate's backlog score is its median over the servers.
    std::vector<double> backlog[2];
    for (const Rung* r : operating)
        backlog[r->rate == k_lo_rps ? 0 : 1].push_back(
            backlog_score(r->outstanding, r->sent.size()));
    std::vector<Rung_outcome> outcomes{
        {k_lo_rps, windowed(lo_ms, k_servers).tail, median(backlog[0])},
        {k_hi_rps, windowed(hi_ms, k_servers).tail, median(backlog[1])}};
    const auto measure = [&](double rate) {
        checked.push_back(
            run_rung(*setup, rate, blocks(rate, k_load_share), seeds.next()));
        const Rung& rung = checked.back();
        return Rung_outcome{rate, tail(latencies(rung)).value,
                            backlog_score(rung.outstanding, rung.sent.size())};
    };
    for (std::size_t i = 0; i < k_load_rungs && !(outcomes.back().load(k_limit_ms) > 1.0); ++i) {
        const double rate = k_load_first * std::pow(k_load_step, i) * capacity_rps;
        if (rate <= outcomes.back().rate_rps)  // the ladder must ascend
            continue;
        Rung_outcome o = measure(rate);
        // Near capacity a moment of a slower machine fails a rung; such
        // noise only ever slows a rung down, so a failing rung is sent
        // once more and the lighter-loaded of the two outcomes counts.
        if (o.load(k_limit_ms) > 1.0) {
            const Rung_outcome again = measure(rate);
            if (again.load(k_limit_ms) < o.load(k_limit_ms))
                o = again;
        }
        outcomes.push_back(o);
    }

    // Answer checks: every served answer against replay_rung, memoized
    // on what the replay depends on.
    std::map<std::string, Tuple> replays;
    for (const auto& rung : checked)
        for (const auto& one : rung.sent) {
            const auto& r = one.response;
            Verdict v;
            v.answered = r.status == ls::Request_status::complete ||
                         r.status == ls::Request_status::degraded;
            if (v.answered) {
                const std::string key =
                    std::to_string(one.problem.first) + "/" +
                    std::to_string(one.problem.second) + "/" + std::to_string(r.rung) + "/" +
                    r.rung_strategy + "/" +
                    (r.warm_start ? r.warm_datapath.to_string(setup->lib.lib) : "");
                auto it = replays.find(key);
                if (it == replays.end())
                    it = replays.emplace(key, tuple_of(ls::replay_rung(one.request, r),
                                                       setup->lib)).first;
                v.matches = tuple_of(r.result, setup->lib) == it->second;
            }
            out.tally.record(v);
        }

    // End to end: latency from due time at the two fixed rates, the
    // service time there, and the capacity that service time implies.
    auto& m = out.metrics;
    m["solves_per_s"] = capacity_rps;
    // The service time over every "lo" and "hi" request, all servers
    // pooled: 1020 samples at --seconds 10, so the tail is a p99, which
    // falls among the eigen solves (6% of the mix).  A p90 would fall
    // on the sparse edge between them and the rest, and move far with
    // a few slow stragglers.
    m["solve_p50_ms"] = median(service_ms);
    out.put_tail("solve_tail_ms", service_ms);
    // Latency at each fixed rate: the median over every server's
    // requests pooled, which weighs the servers equally; the tail per
    // server, then the median over the servers.
    for (const auto& [rate, samples] : {std::pair{"lo", &lo_ms}, std::pair{"hi", &hi_ms}}) {
        const std::string tail_name = std::string("serve.req_tail_ms.") + rate;
        m[std::string("req_p50_ms.") + rate] = median(*samples);
        const Windowed w = windowed(*samples, k_servers);
        m[tail_name] = w.tail;
        char buf[160];
        std::snprintf(buf, sizeof buf, "%s is the median over %zu servers of p%.2f (%zu samples, %zu beyond, per server)",
                      tail_name.c_str(), k_servers, w.window_tail.percentile, w.window_tail.n,
                      w.window_tail.beyond);
        out.notes.push_back(buf);
    }
    m["max_rate_rps"] = max_rate(outcomes, k_limit_ms);
    for (const auto& o : outcomes) {
        char buf[128];
        std::snprintf(buf, sizeof buf,
                      "rung %.0f rps (%.2f of capacity): tail %.3f ms, backlog score %.2f",
                      o.rate_rps, o.rate_rps / capacity_rps, o.tail_ms, o.backlog);
        out.notes.push_back(buf);
    }
    if (!cx.trace)
        return out;

    double n = 0.0;
    std::vector<double> queue, lag;
    std::vector<std::vector<double>> rung_ms(4);
    Solve_counters counters;
    const auto t0 = clock::now();
    double wall_ms = 0.0;
    for (const Rung* rung : operating) {
        wall_ms += rung->wall_s * 1e3;
        for (const auto& one : rung->sent) {
            const auto& r = one.response;
            n += 1.0;
            queue.push_back(r.queue_ms);
            lag.push_back(one.arrival.lag_ms());
            for (std::size_t k = 0; k < r.attempts.size() && k < rung_ms.size(); ++k)
                if (!r.attempts[k].skipped)
                    rung_ms[k].push_back(r.attempts[k].seconds * 1e3);
            counters.add(r.result);
            record_spans(cx.tracer, cx.tracer.to_us(rung->origin), one);
        }
    }
    // Spans are rebuilt after the rungs, off the request path, so the
    // overhead is the rebuild time over the rungs' wall time.
    m["bench.trace_overhead_frac"] = ms_since(t0) / wall_ms;
    counters.put(out);
    m["serve.queue_ms.p50"] = median(queue);
    out.put_tail("serve.queue_ms.tail", queue);
    m["serve.service_ms.p50"] = median(service_ms);
    out.put_tail("serve.service_ms.tail", service_ms);
    for (std::size_t k = 0; k < rung_ms.size(); ++k) {
        const std::string name = "serve.rung_ms." + std::to_string(k);
        m[name + ".p50"] = median(rung_ms[k]);
        out.put_tail(name + ".tail", rung_ms[k]);
    }
    out.put_tail("serve.gen_lag_ms", lag);
    m["serve.batched_frac"] = static_cast<double>(counted.batched_requests) / n;
    m["serve.session_reuse_frac"] = static_cast<double>(counted.sessions_reused) / n;
    m["serve.retries"] = static_cast<double>(counted.retries) / n;
    m["serve.dp_rows_cross_request"] =
        static_cast<double>(counted.dp_rows_reused_cross_request) / n;
    m["serve.cache_hit_rate"] = cache.hit_rate();
    put_self_times(out, cx.tracer);
    return out;
}

}  // namespace perfbench

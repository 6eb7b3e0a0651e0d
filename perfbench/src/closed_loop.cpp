// The three closed-loop workloads: one client, whose next operation
// starts only when the previous one has finished.
//
//   table1_sweep  the paper's design iteration on the Table 1 apps
//   two_asic      multi_asic_bb, the system's heaviest real path
//   dist_solve    exhaustive_bb through the coordinator/worker wire
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <optional>
#include <stdexcept>
#include <thread>

#include "bench.hpp"
#include "core/allocator.hpp"
#include "core/analysis.hpp"
#include "core/restrictions.hpp"
#include "dist/dist.hpp"
#include "problems.hpp"
#include "util/simd.hpp"

namespace perfbench {

namespace lc = lycos;
using lc::solver::Session;
using lc::solver::Solve_options;
using lc::solver::Solve_result;

void Outcome::put_tail(const std::string& name, std::vector<double> samples)
{
    const Tail t = tail(std::move(samples));
    metrics[name] = t.value;
    char buf[160];
    std::snprintf(buf, sizeof buf, "%s is p%.2f of %zu samples (%zu beyond)%s",
                  name.c_str(), t.percentile, t.n, t.beyond,
                  t.beyond == 0 ? "; too few samples for a percentile: the maximum"
                                : "");
    notes.push_back(buf);
}

void reset_peak_rss()
{
    std::ofstream("/proc/self/clear_refs") << "5";
}

double peak_rss_mb()
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0;  // kB
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

void Outcome::note_windowed(const std::string& p50, const std::string& tail_name,
                            std::size_t windows, const Tail& window_tail)
{
    char buf[200];
    std::snprintf(buf, sizeof buf,
                  "%s and %s are medians over %zu windows of p50 and p%.2f "
                  "(%zu samples, %zu beyond, per window)%s",
                  p50.c_str(), tail_name.c_str(), windows, window_tail.percentile,
                  window_tail.n, window_tail.beyond,
                  window_tail.beyond == 0 ? "; too few samples for a percentile: the maximum"
                                          : "");
    notes.push_back(buf);
}

void Solve_counters::add(const Solve_result& r)
{
    ++solves;
    seconds += r.seconds;
    cache += r.cache_stats;
    evals += r.n_evaluated;
    pruned += r.n_pruned;
    dp_rows_swept += r.dp_rows_swept;
    dp_rows_reused += r.dp_rows_reused;
    if (r.multi.active) {
        pairs_walked += r.space_size - r.multi.pairs_skipped;
        pairs_skipped += r.multi.pairs_skipped;
        rows_visited += r.multi.rows_visited;
        rows_pruned += r.multi.rows_pruned;
        dp_states += r.multi.dp_states_swept;
        dp_cells_dense += r.multi.dp_cells_dense;
    }
}

void Solve_counters::put(Outcome& out) const
{
    const auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
    const double n = static_cast<double>(std::max<long long>(solves, 1));
    const double lookups = static_cast<double>(cache.hits + cache.misses);
    auto& m = out.metrics;
    m["search.cache_misses"] = static_cast<double>(cache.misses) / n;
    m["search.cache_hit_rate"] = cache.hit_rate();
    m["search.cache_lookups_per_s"] = ratio(lookups, seconds);
    m["search.evals"] = static_cast<double>(evals) / n;
    m["search.prune_frac"] = ratio(static_cast<double>(pruned),
                                   static_cast<double>(pruned + evals));
    m["pace.dp_rows_swept"] = static_cast<double>(dp_rows_swept) / n;
    m["pace.dp_reuse_frac"] =
        ratio(static_cast<double>(dp_rows_reused),
              static_cast<double>(dp_rows_reused + dp_rows_swept));
    m["multi.pairs_walked"] = static_cast<double>(pairs_walked) / n;
    m["multi.pairs_skipped"] = static_cast<double>(pairs_skipped) / n;
    m["multi.row_kill_frac"] = ratio(static_cast<double>(rows_pruned),
                                     static_cast<double>(rows_visited));
    m["multi.dp_states_swept"] = static_cast<double>(dp_states) / n;
    m["multi.states_per_s"] = ratio(static_cast<double>(dp_states), seconds);
    m["multi.dp_occupancy"] = ratio(static_cast<double>(dp_states),
                                    static_cast<double>(dp_cells_dense));
}

void put_self_times(Outcome& out, const Tracer& tr)
{
    for (const auto& [layer, ms] : tr.self_ms_per_op())
        out.metrics["self_ms." + layer] = ms;
}

namespace {

bool complete(const Solve_result& r)
{
    return r.status == lc::util::Solve_status::complete;
}

/// The run of a closed loop over a fixed cycle of operations.
struct Loop {
    std::vector<double> ms;        ///< every untraced operation, in order
    std::vector<double> cycle_rate;  ///< operations per second, per untraced cycle
    /// Per operation index: summed time and count of its traced and
    /// untraced runs (for the trace overhead).
    std::vector<double> traced_ms, untraced_ms;
    std::vector<int> traced_n, untraced_n;
    double peak_rss_mb = 0.0;  ///< median over untraced cycles of each cycle's peak

    double trace_overhead_frac() const
    {
        double on = 0.0, off = 0.0;
        for (std::size_t i = 0; i < traced_ms.size(); ++i)
            if (traced_n[i] > 0 && untraced_n[i] > 0) {
                on += traced_ms[i] / traced_n[i];
                off += untraced_ms[i] / untraced_n[i];
            }
        return off > 0.0 ? on / off - 1.0 : 0.0;
    }
};

/// Whole cycles a closed loop runs: `per_second` for each second of
/// --seconds, at least one.  A run does a fixed amount of work, so every
/// run of a workload has the same sample count and reports the same
/// tail percentile; the rates are set so a run takes about --seconds.
int cycles_for(const Run_context& cx, double per_second)
{
    return std::max(1, static_cast<int>(std::lround(cx.seconds * per_second)));
}

/// Runs `cycles` whole cycles of `n_ops` operations.  `op(i, tracer)`
/// runs operation i and returns its timed part in ms (answer checks run
/// after the clock stops).  In a traced run even cycles are traced and
/// odd ones not, at least one of each, so the trace overhead is
/// measured on the same operations.
template <class Op>
Loop closed_loop(const Run_context& cx, std::size_t n_ops, int cycles, Op op)
{
    Loop loop;
    std::vector<double> cycle_peak_mb;
    loop.traced_ms.assign(n_ops, 0.0);
    loop.untraced_ms.assign(n_ops, 0.0);
    loop.traced_n.assign(n_ops, 0);
    loop.untraced_n.assign(n_ops, 0);
    for (int cycle = 0; cycle < std::max(cycles, cx.trace ? 2 : 1); ++cycle) {
        const bool traced = cx.trace && cycle % 2 == 0;
        double cycle_ms = 0.0;
        reset_peak_rss();
        for (std::size_t i = 0; i < n_ops; ++i) {
            const double ms = op(i, traced ? cx.tracer : cx.untraced);
            if (traced) {
                loop.traced_ms[i] += ms;
                ++loop.traced_n[i];
            }
            else {
                loop.untraced_ms[i] += ms;
                ++loop.untraced_n[i];
                loop.ms.push_back(ms);
                cycle_ms += ms;
            }
        }
        if (!traced) {
            loop.cycle_rate.push_back(static_cast<double>(n_ops) / (cycle_ms / 1e3));
            cycle_peak_mb.push_back(peak_rss_mb());
        }
    }
    loop.peak_rss_mb = median(cycle_peak_mb);
    return loop;
}

/// The end-to-end metrics of a closed loop.  Every figure is a median
/// over stretches of the run, so one slow stretch of the machine does
/// not decide it: the throughput over cycles, the latencies over
/// consecutive windows of at least 100 operations (see
/// perfbench::windowed), up to nine.  One client and no queue: a
/// request is one operation, its latency from due time is the
/// operation's own, and the only rate the loop offers is its own.
void put_closed_loop(Outcome& out, const Loop& loop)
{
    const double rate = median(loop.cycle_rate);
    const std::size_t windows = std::clamp<std::size_t>(loop.ms.size() / 100, 1, 9);
    const Windowed w = windowed(loop.ms, windows);
    const double p50 = w.p50;
    out.metrics["solves_per_s"] = rate;
    out.metrics["solve_p50_ms"] = p50;
    out.metrics["solve_tail_ms"] = w.tail;
    out.note_windowed("solve_p50_ms", "solve_tail_ms", windows, w.window_tail);
    out.metrics["req_p50_ms.lo"] = p50;
    out.metrics["req_p50_ms.hi"] = p50;
    out.metrics["max_rate_rps"] = rate;
    out.metrics["peak_rss_mb"] = loop.peak_rss_mb;
}

/// The median duration of the spans named `name`, as a metric.
void put_span_p50(Outcome& out, const Tracer& tr, const std::string& metric,
                  std::string_view span)
{
    out.metrics[metric] = median(tr.durations_ms(span));
}

/// Thread scaling and SIMD speed-up of `solve_ms`, a function that
/// solves a fixed set of problems and returns their summed solve time.
/// Thread scaling is measured with idle cores kept awake (pool.scaling)
/// and with them left to sleep, so every hand-off pays the wake-up
/// (pool.scaling.cold); the SIMD speed-up with them kept awake.
/// Alternates the sides `reps` times so drift hits all of them equally.
template <class Solve>
void put_scaling(Outcome& out, const Run_context& cx, int reps, Solve solve_ms)
{
    double one = 0.0, all = 0.0, cold_one = 0.0, cold_all = 0.0, scalar = 0.0, active = 0.0;
    const auto best = lc::util::simd::best_isa();
    for (int r = 0; r < reps; ++r) {
        one += solve_ms(1);
        all += solve_ms(cx.nproc);
        lc::util::simd::force_isa(lc::util::simd::Isa::scalar);
        scalar += solve_ms(cx.nproc);
        lc::util::simd::force_isa(best);
        active += solve_ms(cx.nproc);
        cx.keep_warm.pause();
        cold_one += solve_ms(1);
        cold_all += solve_ms(cx.nproc);
        cx.keep_warm.resume();
    }
    out.metrics["pool.scaling"] = one / all;
    out.metrics["pool.scaling.cold"] = cold_one / cold_all;
    out.metrics["simd.speedup"] = scalar / active;
}

Solve_options with_threads(int n)
{
    Solve_options o;
    o.n_threads = n;
    return o;
}

}  // namespace

// ------------------------------------------------------------ table1_sweep

namespace {

struct Table1_case {
    const lc::apps::App* app = nullptr;
    double area = 0.0;
    // References, computed before the timed loop:
    Tuple exhaustive, hill_climb, rescore;
};

struct Table1_setup {
    Library lib;
    std::vector<Table1_case> cases;
};

/// Three budgets per app, near 0.9, 1.0 and 1.1 times its Table 1
/// area with a seeded jitter of +-1%, in a seeded order.
std::unique_ptr<Table1_setup> make_table1(std::uint64_t seed)
{
    auto s = std::make_unique<Table1_setup>();
    s->lib = make_library();
    Rng rng(seed);
    for (const auto& app : s->lib.apps)
        for (double scale : {0.9, 1.0, 1.1})
            s->cases.push_back(
                {&app, app.asic_area * scale * rng.uniform(0.99, 1.01), {}, {}, {}});
    for (std::size_t i = s->cases.size(); i > 1; --i)
        std::swap(s->cases[i - 1], s->cases[rng.below(i)]);
    return s;
}

}  // namespace

Outcome run_table1_sweep(Run_context& cx)
{
    Outcome out;
    auto setup = out.setup.start(cx.keep_warm, [&] { return make_table1(cx.seed); });
    const Library& lib = setup->lib;

    for (auto& c : setup->cases) {
        Session s(make_problem(lib, prepare(lib, *c.app, c.area)));
        const auto best = full_scan(s, lib);
        c.exhaustive = tuple_of(best, lib);
        c.rescore = exact_evaluation(s, best.datapath, lib);
        c.hill_climb = unpruned_solve(s, "hill_climb", {}, lib);
    }

    Solve_counters counters;
    const Solve_options options = with_threads(cx.nproc);
    const auto iteration = [&](std::size_t i, Tracer& tr) {
        const Table1_case& c = setup->cases[i];
        const std::uint64_t op = tr.new_op();
        Solve_result exh, hc;
        lc::search::Evaluation rescored;
        Verdict v;
        const auto t0 = clock::now();
        try {
            Tracer::Scope root(tr, "bench.iteration", op);
            Prepared p;
            p.app = c.app;
            p.area = c.area;
            p.target = lc::hw::make_default_target(c.area);
            lc::core::Alloc_result alloc;
            {
                Tracer::Scope core(tr, "core.alloc", op, root.id());
                std::vector<lc::core::Bsb_info> infos;
                {
                    Tracer::Scope s(tr, "core.analyze", op, core.id());
                    infos = lc::core::analyze(c.app->bsbs, lib.lib, p.target.gates);
                }
                {
                    Tracer::Scope s(tr, "core.compute_restrictions", op, core.id());
                    p.restrictions = lc::core::compute_restrictions(infos, lib.lib);
                }
                lc::core::Alloc_options alloc_options;
                alloc_options.area_budget = c.area;
                Tracer::Scope s(tr, "core.run_analyzed", op, core.id());
                alloc = lc::core::Allocator(lib.lib, p.target).run_analyzed(infos, alloc_options);
            }
            {
                Tracer::Scope s(tr, "search.evaluate_allocation", op, root.id());
                const lc::search::Eval_context ctx{
                    c.app->bsbs, lib.lib, p.target,
                    lc::pace::Controller_mode::list_schedule, 0.0};
                lc::search::evaluate_allocation(ctx, alloc.allocation);
            }
            std::optional<Session> session;
            {
                Tracer::Scope s(tr, "solver.session", op, root.id());
                session.emplace(make_problem(lib, p));
                session->invariants();
            }
            {
                Tracer::Scope s(tr, "solver.solve.exhaustive_bb", op, root.id());
                exh = session->solve("exhaustive_bb", options);
            }
            {
                Tracer::Scope s(tr, "solver.solve.hill_climb", op, root.id());
                hc = session->solve("hill_climb", options);
            }
            {
                Tracer::Scope s(tr, "solver.rescore", op, root.id());
                rescored = session->rescore(exh.best.datapath);
            }
            Tracer::Scope s(tr, "solver.session_close", op, root.id());
            session.reset();
        }
        catch (const std::exception& e) {
            std::fprintf(stderr, "table1_sweep: %s\n", e.what());
            v.threw = true;
        }
        const double ms = ms_since(t0);
        if (!v.threw) {
            v.complete = complete(exh) && complete(hc);
            v.matches = tuple_of(exh, lib) == c.exhaustive &&
                        tuple_of(hc, lib) == c.hill_climb &&
                        tuple_of(rescored, lib) == c.rescore;
            counters.add(exh);
            counters.add(hc);
        }
        out.tally.record(v);
        return ms;
    };

    const Loop loop = closed_loop(cx, setup->cases.size(), cycles_for(cx, 6.0), iteration);
    put_closed_loop(out, loop);
    if (!cx.trace)
        return out;

    counters.put(out);
    const Tracer& tr = cx.tracer;
    put_span_p50(out, tr, "core.alloc_ms", "core.alloc");
    put_span_p50(out, tr, "search.heuristic_eval_ms", "search.evaluate_allocation");
    put_span_p50(out, tr, "solver.session_ms", "solver.session");
    put_span_p50(out, tr, "solver.solve_ms.exhaustive_bb", "solver.solve.exhaustive_bb");
    put_span_p50(out, tr, "solver.solve_ms.hill_climb", "solver.solve.hill_climb");
    put_span_p50(out, tr, "solver.rescore_ms", "solver.rescore");
    put_self_times(out, tr);
    out.metrics["bench.trace_overhead_frac"] = loop.trace_overhead_frac();
    put_scaling(out, cx, 3, [&](int threads) {
        double ms = 0.0;
        for (const auto& c : setup->cases) {
            Session s(make_problem(lib, prepare(lib, *c.app, c.area)));
            const auto t0 = clock::now();
            s.solve("exhaustive_bb", with_threads(threads));
            s.solve("hill_climb", with_threads(threads));
            ms += ms_since(t0);
        }
        return ms;
    });
    return out;
}

// ---------------------------------------------------------------- two_asic

namespace {

/// Eigen's pair space (27.4 M pairs) is walked to this prefix; the
/// other problems are walked whole.
constexpr long long k_eigen_pair_limit = 500000;

struct Two_asic_case {
    std::string key;  ///< reference key, e.g. "man@65/35"
    Prepared prepared;
    std::array<double, 2> asic_areas{0.0, 0.0};  ///< {0, 0} = even split
    long long pair_limit = 0;                     ///< 0 = the default
};

std::vector<Two_asic_case> two_asic_cases(const Library& lib)
{
    std::vector<Two_asic_case> cases;
    for (const char* name : {"straight", "man"}) {
        const auto& app = lib.app(name);
        const Prepared p = prepare(lib, app, app.asic_area);
        cases.push_back({std::string(name) + "@even", p, {0.0, 0.0}, 0});
        cases.push_back({std::string(name) + "@65/35", p,
                         {app.asic_area * 0.65, app.asic_area * 0.35}, 0});
    }
    const auto& eigen = lib.app("eigen");
    cases.push_back({"eigen@even/" + std::to_string(k_eigen_pair_limit),
                     prepare(lib, eigen, eigen.asic_area), {0.0, 0.0},
                     k_eigen_pair_limit});
    return cases;
}

lc::solver::Problem two_asic_problem(const Library& lib, const Two_asic_case& c)
{
    auto problem = make_problem(lib, c.prepared);
    problem.asic_areas = c.asic_areas;
    return problem;
}

Solve_options two_asic_options(const Two_asic_case& c, int n_threads)
{
    Solve_options o = with_threads(n_threads);
    lc::solver::Multi_asic_extras extras;
    if (c.pair_limit > 0)
        extras.pair_limit = c.pair_limit;
    o.extras = extras;
    return o;
}

struct Two_asic_setup {
    Library lib;
    std::vector<Two_asic_case> cases;  ///< in a seeded order
    std::map<std::string, Tuple> refs;
};

}  // namespace

int write_two_asic_references(const std::string& path)
{
    const Library lib = make_library();
    std::map<std::string, Tuple> refs;
    for (const auto& c : two_asic_cases(lib)) {
        Session s(two_asic_problem(lib, c));
        refs[c.key] = unpruned_solve(s, "multi_asic_bb", two_asic_options(c, 1), lib);
        std::fprintf(stderr, "%s %s\n", c.key.c_str(), refs[c.key].str().c_str());
    }
    return write_references(path, refs) ? 0 : 1;
}

Outcome run_two_asic(Run_context& cx)
{
    Outcome out;
    auto setup = out.setup.start(cx.keep_warm, [&] {
        auto s = std::make_unique<Two_asic_setup>();
        s->lib = make_library();
        s->cases = two_asic_cases(s->lib);
        s->refs = read_references(cx.reference_path);
        Rng rng(cx.seed);
        for (std::size_t i = s->cases.size(); i > 1; --i)
            std::swap(s->cases[i - 1], s->cases[rng.below(i)]);
        return s;
    });
    const Library& lib = setup->lib;
    for (const auto& c : setup->cases)
        if (!setup->refs.count(c.key))
            throw std::runtime_error("no stored reference for " + c.key);

    Solve_counters counters;
    const auto solve = [&](std::size_t i, Tracer& tr) {
        const Two_asic_case& c = setup->cases[i];
        const std::uint64_t op = tr.new_op();
        Solve_result r;
        Verdict v;
        const auto t0 = clock::now();
        try {
            Tracer::Scope root(tr, "bench.solve", op);
            std::optional<Session> session;
            {
                Tracer::Scope s(tr, "solver.session", op, root.id());
                session.emplace(two_asic_problem(lib, c));
                session->invariants();
            }
            {
                Tracer::Scope s(tr, "solver.solve.multi_asic_bb", op, root.id());
                r = session->solve("multi_asic_bb", two_asic_options(c, cx.nproc));
            }
            Tracer::Scope s(tr, "solver.session_close", op, root.id());
            session.reset();
        }
        catch (const std::exception& e) {
            std::fprintf(stderr, "two_asic %s: %s\n", c.key.c_str(), e.what());
            v.threw = true;
        }
        const double ms = ms_since(t0);
        if (!v.threw) {
            v.complete = complete(r);
            v.matches = tuple_of(r, lib) == setup->refs.at(c.key);
            counters.add(r);
        }
        out.tally.record(v);
        return ms;
    };

    const Loop loop = closed_loop(cx, setup->cases.size(), cycles_for(cx, 0.3), solve);
    put_closed_loop(out, loop);
    if (!cx.trace)
        return out;

    counters.put(out);
    const Tracer& tr = cx.tracer;
    put_span_p50(out, tr, "solver.session_ms", "solver.session");
    put_span_p50(out, tr, "solver.solve_ms.multi_asic_bb", "solver.solve.multi_asic_bb");
    put_self_times(out, tr);
    out.metrics["bench.trace_overhead_frac"] = loop.trace_overhead_frac();
    // Scaling on the cheapest whole-space case, straight at 65/35.
    const auto& probe = *std::find_if(setup->cases.begin(), setup->cases.end(),
                                      [](const auto& c) { return c.key == "straight@65/35"; });
    put_scaling(out, cx, 1, [&](int threads) {
        Session s(two_asic_problem(lib, probe));
        const auto t0 = clock::now();
        s.solve("multi_asic_bb", two_asic_options(probe, threads));
        return ms_since(t0);
    });
    return out;
}

// -------------------------------------------------------------- dist_solve

namespace {

/// Two in-process loopback workers with one engine thread each.
constexpr int k_dist_workers = 2;

struct Dist_setup {
    Library lib;
    Prepared prepared;
};

/// Eigen exhaustive_bb distributed: a fresh coordinator per solve.
Solve_result solve_distributed(const lc::solver::Problem& problem)
{
    lc::dist::Coordinator_options copts;
    copts.strategy = "exhaustive_bb";
    copts.solve = with_threads(1);
    copts.n_workers = k_dist_workers;
    std::vector<std::thread> workers;
    copts.on_listen = [&workers](std::uint16_t port) {
        for (int i = 0; i < k_dist_workers; ++i)
            workers.emplace_back([port] { lc::dist::run_worker("127.0.0.1", port); });
    };
    struct Join {
        std::vector<std::thread>& threads;
        ~Join()
        {
            for (auto& t : threads)
                t.join();
        }
    } join{workers};
    return lc::dist::solve_distributed(problem, copts);
}

}  // namespace

Outcome run_dist_solve(Run_context& cx)
{
    Outcome out;
    auto setup = out.setup.start(cx.keep_warm, [&] {
        auto s = std::make_unique<Dist_setup>();
        s->lib = make_library();
        Rng rng(cx.seed);
        const auto& eigen = s->lib.app("eigen");
        s->prepared = prepare(s->lib, eigen, eigen.asic_area * rng.uniform(0.99, 1.01));
        return s;
    });
    const Library& lib = setup->lib;
    const auto problem = make_problem(lib, setup->prepared);
    // The local solve at the same thread budget as the fleet: the
    // reference answer, and the base of dist.overhead_ms.
    const auto local = [&] {
        Session s(problem);
        return s.solve("exhaustive_bb", with_threads(k_dist_workers));
    };
    const Tuple reference = tuple_of(local(), lib);

    long long leases = 0, broadcasts = 0, remote_kills = 0, reassigned = 0, solves = 0;
    const auto solve = [&](std::size_t, Tracer& tr) {
        const std::uint64_t op = tr.new_op();
        Solve_result r;
        Verdict v;
        const auto t0 = clock::now();
        try {
            Tracer::Scope root(tr, "bench.solve", op);
            Tracer::Scope s(tr, "dist.solve_distributed", op, root.id());
            r = solve_distributed(problem);
        }
        catch (const std::exception& e) {
            std::fprintf(stderr, "dist_solve: %s\n", e.what());
            v.threw = true;
        }
        const double ms = ms_since(t0);
        if (!v.threw) {
            v.complete = complete(r) && r.dist.active;
            v.matches = tuple_of(r, lib) == reference;
            ++solves;
            leases += r.dist.leases_granted;
            broadcasts += r.dist.incumbent_broadcasts;
            reassigned += r.dist.leases_reassigned;
            for (const auto& w : r.dist.workers)
                remote_kills += w.remote_bound_kills;
        }
        out.tally.record(v);
        return ms;
    };

    const Loop loop = closed_loop(cx, 10, cycles_for(cx, 4.5), solve);
    put_closed_loop(out, loop);
    if (!cx.trace)
        return out;

    const double n = static_cast<double>(std::max<long long>(solves, 1));
    out.metrics["dist.leases"] = static_cast<double>(leases) / n;
    out.metrics["dist.broadcasts"] = static_cast<double>(broadcasts) / n;
    out.metrics["dist.remote_kills"] = static_cast<double>(remote_kills) / n;
    out.metrics["dist.reassigned"] = static_cast<double>(reassigned) / n;
    Tracer& tr = cx.tracer;
    std::vector<double> local_ms;
    for (int i = 0; i < 10; ++i) {
        const std::uint64_t op = tr.new_op();
        Tracer::Scope s(tr, "solver.solve.exhaustive_bb", op);
        const auto t0 = clock::now();
        local();
        local_ms.push_back(ms_since(t0));
    }
    out.metrics["dist.overhead_ms"] =
        median(tr.durations_ms("dist.solve_distributed")) - median(local_ms);
    put_span_p50(out, tr, "solver.solve_ms.exhaustive_bb", "solver.solve.exhaustive_bb");
    put_self_times(out, tr);
    out.metrics["bench.trace_overhead_frac"] = loop.trace_overhead_frac();
    return out;
}

}  // namespace perfbench

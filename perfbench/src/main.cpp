// lycos_perfbench: runs one benchmark workload and prints its metrics.
//
//   lycos_perfbench --workload table1_sweep|two_asic|serve_mix|dist_solve
//                   --seed N --seconds S --trace 0|1
//                   [--out-dir DIR] [--reference FILE] [--commit SHA]
//   lycos_perfbench --write-reference FILE
//
// The untraced run (--trace 0) reports the end-to-end metrics, the
// traced run (--trace 1) the per-layer ones and a Chrome trace.  Both
// print the metrics by name with their units, the notes behind each
// tail, the run's provenance, and as the last line one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Results and traces go to --out-dir.
#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <fstream>
#include <map>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "util/simd.hpp"

namespace {

using namespace perfbench;

struct Metric_def {
    const char* name;
    const char* unit;
};

// Keep in step with BENCHMARK.json (perfbench/run.py checks the match).
constexpr Metric_def k_end_to_end[] = {
    {"setup_s", "s"},
    {"solves_per_s", "1/s"},
    {"solve_p50_ms", "ms"},
    {"solve_tail_ms", "ms"},
    {"req_p50_ms.lo", "ms"},
    {"req_p50_ms.hi", "ms"},
    {"max_rate_rps", "1/s"},
    {"peak_rss_mb", "MB"},
};

constexpr Metric_def k_per_layer[] = {
    {"core.alloc_ms", "ms"},
    {"search.heuristic_eval_ms", "ms"},
    {"solver.session_ms", "ms"},
    {"solver.solve_ms.exhaustive_bb", "ms"},
    {"solver.solve_ms.hill_climb", "ms"},
    {"solver.solve_ms.multi_asic_bb", "ms"},
    {"solver.rescore_ms", "ms"},
    {"search.cache_misses", "count"},
    {"search.cache_hit_rate", "frac"},
    {"search.cache_lookups_per_s", "1/s"},
    {"search.evals", "count"},
    {"search.prune_frac", "frac"},
    {"pace.dp_rows_swept", "count"},
    {"pace.dp_reuse_frac", "frac"},
    {"multi.pairs_walked", "count"},
    {"multi.pairs_skipped", "count"},
    {"multi.row_kill_frac", "frac"},
    {"multi.dp_states_swept", "count"},
    {"multi.states_per_s", "1/s"},
    {"multi.dp_occupancy", "frac"},
    {"pool.scaling", "x"},
    {"pool.scaling.cold", "x"},
    {"simd.speedup", "x"},
    {"serve.req_tail_ms.lo", "ms"},
    {"serve.req_tail_ms.hi", "ms"},
    {"serve.queue_ms.p50", "ms"},
    {"serve.queue_ms.tail", "ms"},
    {"serve.service_ms.p50", "ms"},
    {"serve.service_ms.tail", "ms"},
    {"serve.rung_ms.0.p50", "ms"},
    {"serve.rung_ms.0.tail", "ms"},
    {"serve.rung_ms.1.p50", "ms"},
    {"serve.rung_ms.1.tail", "ms"},
    {"serve.rung_ms.2.p50", "ms"},
    {"serve.rung_ms.2.tail", "ms"},
    {"serve.rung_ms.3.p50", "ms"},
    {"serve.rung_ms.3.tail", "ms"},
    {"serve.gen_lag_ms", "ms"},
    {"serve.batched_frac", "frac"},
    {"serve.session_reuse_frac", "frac"},
    {"serve.dp_rows_cross_request", "count"},
    {"serve.cache_hit_rate", "frac"},
    {"serve.retries", "count"},
    {"dist.overhead_ms", "ms"},
    {"dist.leases", "count"},
    {"dist.broadcasts", "count"},
    {"dist.remote_kills", "count"},
    {"dist.reassigned", "count"},
    {"bench.trace_overhead_frac", "frac"},
    {"self_ms.bench", "ms"},
    {"self_ms.core", "ms"},
    {"self_ms.search", "ms"},
    {"self_ms.solver", "ms"},
    {"self_ms.serve", "ms"},
    {"self_ms.dist", "ms"},
};

struct Args {
    std::map<std::string, std::string> values{
        {"workload", ""},   {"seed", "1"},     {"seconds", "10"},
        {"trace", "0"},     {"out-dir", "."},  {"reference", ""},
        {"commit", "unknown"}, {"write-reference", ""}};
};

Args parse_args(int argc, char** argv)
{
    Args args;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag.rfind("--", 0) != 0 || i + 1 >= argc ||
            !args.values.count(flag.substr(2)))
            throw std::invalid_argument("bad argument " + flag);
        args.values[flag.substr(2)] = argv[++i];
    }
    return args;
}

std::string json_escape(const std::string& s)
{
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            out += c;
    }
    return out;
}

std::string cpu_model()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("model name", 0) == 0) {
            const auto colon = line.find(':');
            return colon == std::string::npos ? line : line.substr(colon + 2);
        }
    return "unknown";
}

std::string provenance(const Args& args, int nproc)
{
    const auto& v = args.values;
    std::ostringstream out;
    out << "{\"commit\":\"" << json_escape(v.at("commit")) << "\",\"cpu\":\""
        << json_escape(cpu_model()) << "\",\"nproc\":" << nproc << ",\"isa\":\""
        << lycos::util::simd::isa_name(lycos::util::simd::active_isa())
        << "\",\"compiler\":\"" << PERFBENCH_COMPILER << "\",\"build_type\":\""
        << PERFBENCH_BUILD_TYPE << "\",\"workload\":\""
        << json_escape(v.at("workload")) << "\",\"seed\":" << v.at("seed")
        << ",\"seconds\":" << v.at("seconds") << ",\"trace\":" << v.at("trace")
        << "}";
    return out.str();
}

/// Keeps every core busy for `seconds` before anything is timed.  On a
/// virtual machine that sat idle, the first second of work can run at
/// half speed or less (measured on a 4-vCPU Xeon virtual machine: the
/// straight even-split two-ASIC solve took 1.3 s right after 8 s idle,
/// and 0.5 s after 0.2 s of this warm-up).
void warm_up(int nproc, double seconds)
{
    const auto until = clock::now() + std::chrono::duration_cast<clock::duration>(
                                          std::chrono::duration<double>(seconds));
    std::vector<std::thread> threads;
    for (int i = 0; i < nproc; ++i)
        threads.emplace_back([until] {
            while (clock::now() < until) {
            }
        });
    for (auto& t : threads)
        t.join();
}

std::string number(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

int run(const Args& args)
{
    const auto& v = args.values;
    if (!v.at("write-reference").empty())
        return write_two_asic_references(v.at("write-reference"));

    const std::string workload = v.at("workload");
    const bool traced = v.at("trace") == "1";
    const int nproc = static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
    Tracer tracer(traced);
    Tracer untraced(false);
    warm_up(nproc, 1.0);
    Keep_warm keep_warm(nproc);
    Run_context cx{std::stoull(v.at("seed")), std::stod(v.at("seconds")), traced,
                   nproc, tracer, untraced, keep_warm, v.at("reference")};

    Outcome out;
    if (workload == "table1_sweep")
        out = run_table1_sweep(cx);
    else if (workload == "two_asic")
        out = run_two_asic(cx);
    else if (workload == "serve_mix")
        out = run_serve_mix(cx);
    else if (workload == "dist_solve")
        out = run_dist_solve(cx);
    else
        throw std::invalid_argument("unknown workload \"" + workload + "\"");
    out.metrics["setup_s"] = out.setup.finish(keep_warm);

    const std::string prov = provenance(args, nproc);
    const std::string stem = v.at("out-dir") + "/" + workload + "-seed" + v.at("seed");
    if (traced && !tracer.write_chrome(stem + ".trace.json", prov))
        throw std::runtime_error("cannot write " + stem + ".trace.json");

    // Every metric of the run's table, by name; a per-layer metric the
    // workload does not exercise reads 0.
    bool finite = true;
    std::string metrics_json;
    for (const auto& m : traced ? std::span<const Metric_def>(k_per_layer)
                                : std::span<const Metric_def>(k_end_to_end)) {
        const auto it = out.metrics.find(m.name);
        double value = it == out.metrics.end() ? 0.0 : it->second;
        if (!std::isfinite(value)) {
            finite = false;
            value = -1.0;
        }
        std::printf("%-32s %24.6f %s\n", m.name, value, m.unit);
        metrics_json += std::string(metrics_json.empty() ? "" : ", ") + "\"" +
                        m.name + "\": {\"value\": " + number(value) +
                        ", \"unit\": \"" + m.unit + "\"}";
    }
    for (const auto& note : out.notes)
        std::printf("note: %s\n", note.c_str());
    std::printf("fail_frac %.6f (%lld failed of %lld attempted)\n",
                out.tally.fail_frac(), out.tally.failed, out.tally.attempted);
    std::printf("provenance: %s\n", prov.c_str());

    const bool correct = finite && out.tally.failed == 0 && out.tally.attempted > 0;
    const std::string result = std::string("{\"correct\": ") +
                               (correct ? "true" : "false") +
                               ", \"attempted\": " + std::to_string(out.tally.attempted) +
                               ", \"failed\": " + std::to_string(out.tally.failed) +
                               ", \"metrics\": {" + metrics_json + "}}";
    std::ofstream(stem + (traced ? "-trace1" : "-trace0") + ".json")
        << "{\"provenance\": " << prov << ", \"result\": " << result << "}\n";
    std::printf("%s\n", result.c_str());
    return 0;
}

}  // namespace

int main(int argc, char** argv)
{
#ifdef __GLIBC__
    // Fixed thresholds switch off glibc's dynamic mmap threshold, which
    // otherwise moves with the allocation history of the run and made
    // peak_rss_mb land on 14 or 24 MB from one run of the same workload
    // to the next.
    mallopt(M_MMAP_THRESHOLD, 32 << 20);
    mallopt(M_TRIM_THRESHOLD, 64 << 20);
#endif
    try {
        return run(parse_args(argc, argv));
    }
    catch (const std::exception& e) {
        std::fprintf(stderr, "lycos_perfbench: %s\n", e.what());
        return 2;
    }
}

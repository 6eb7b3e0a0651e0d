// lycos_cli — command-line driver for the full allocation flow.
//
//   lycos_cli --app hal                         # built-in benchmark
//   lycos_cli mykernel.mc --area 9000           # MiniC file
//   lycos_cli --app man --set const_gen=1       # §5 design iteration
//   lycos_cli --app eigen --search auto         # compare vs best
//   lycos_cli --app straight --policy min_latency --lib variants
//
// Prints the BSB structure, restrictions, the algorithm's allocation,
// the PACE partition and the speed-up; optionally searches for the
// best allocation and applies manual count overrides.
//
// Exit codes (scriptable): 0 success; 2 usage error; 3 invalid input
// (bad app/library/problem — validation failures); 4 the --search
// solve was truncated by a deadline or budget (the anytime incumbent
// was still printed); 5 internal error or a failed serve request.
#include <cmath>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>

#include "apps/apps.hpp"
#include "dist/dist.hpp"
#include "core/allocator.hpp"
#include "core/selection.hpp"
#include "estimate/storage.hpp"
#include "hw/library_io.hpp"
#include "hw/target.hpp"
#include "minic/interp.hpp"
#include "minic/lexer.hpp"
#include "minic/lower.hpp"
#include "minic/parser.hpp"
#include "serve/trace.hpp"
#include "solver/solver.hpp"
#include "util/args.hpp"
#include "util/format.hpp"
#include "util/simd.hpp"
#include "util/table.hpp"

namespace {

using namespace lycos;

core::Selection_policy parse_policy(const std::string& name)
{
    if (name == "min_area")
        return core::Selection_policy::min_area;
    if (name == "min_latency")
        return core::Selection_policy::min_latency;
    if (name == "balanced")
        return core::Selection_policy::balanced;
    throw std::invalid_argument("unknown policy: " + name);
}

pace::Controller_mode parse_ctrl(const std::string& name)
{
    if (name == "eca")
        return pace::Controller_mode::optimistic_eca;
    if (name == "real")
        return pace::Controller_mode::list_schedule;
    throw std::invalid_argument("unknown controller mode: " + name);
}

/// Apply one or more "resource=count" overrides.
core::Rmap apply_overrides(core::Rmap alloc, const hw::Hw_library& lib,
                           const std::string& spec)
{
    std::istringstream in(spec);
    std::string item;
    while (std::getline(in, item, ',')) {
        if (item.empty())
            continue;
        const auto eq = item.find('=');
        if (eq == std::string::npos)
            throw std::invalid_argument("--set expects resource=count");
        const std::string name = item.substr(0, eq);
        const int count = std::stoi(item.substr(eq + 1));
        const auto id = lib.find(name);
        if (!id)
            throw std::invalid_argument("unknown resource: " + name);
        alloc.set(*id, count);
    }
    return alloc;
}

/// The unified Solve_result stats table, identical across strategies
/// (multi_asic_bb counts allocation *pairs* in space/scored/pruned).
void print_solve_stats(std::ostream& os, const solver::Solve_result& r)
{
    util::Table_printer table({"stat", "value"});
    table.add_row({"strategy", r.strategy});
    table.add_row({"space", util::with_commas(r.space_size)});
    table.add_row({"scored", util::with_commas(r.n_evaluated)});
    table.add_row({"pruned", util::with_commas(r.n_pruned)});
    table.add_row({"cache hit rate", util::percent(r.cache_stats.hit_rate())});
    if (r.cache_stats.evictions > 0)
        table.add_row(
            {"cache evictions", util::with_commas(r.cache_stats.evictions)});
    if (r.dp_rows_swept > 0)
        table.add_row({"DP rows", util::with_commas(r.dp_rows_reused) +
                                      " reused / " +
                                      util::with_commas(r.dp_rows_swept) +
                                      " swept"});
    table.add_row({"threads", std::to_string(r.n_threads)});
    table.add_row({"kernels", util::simd::isa_name(util::simd::active_isa())});
    table.add_row({"seconds", util::fixed(r.seconds, 3)});
    if (r.status != util::Solve_status::complete) {
        table.add_row({"status", std::string(util::to_string(r.status)) +
                                     " (anytime result: best of the "
                                     "explored prefix)"});
        table.add_row({"abandoned",
                       util::with_commas(r.rows_abandoned) + " work units, " +
                           util::with_commas(r.chunks_abandoned) +
                           " chunks"});
    }
    table.print(os);
}

}  // namespace

int main(int argc, char** argv)
{
    util::Arg_parser args("lycos_cli",
                          "LYCOS hardware resource allocation flow");
    args.add_option("app", "", "built-in application: straight|hal|man|eigen");
    args.add_option("area", "", "ASIC area in gates (default: app preset or 8000)");
    args.add_option("ctrl", "real", "controller areas for evaluation: eca|real");
    args.add_option("policy", "min_area",
                    "module selection: min_area|min_latency|balanced");
    args.add_option("lib", "default",
                    "resource library: default|variants|<file> "
                    "(see hw/library_io.hpp for the file format)");
    args.add_option("set", "", "override counts, e.g. const_gen=1,divider=1");
    std::string search_help =
        "compare against the best allocation: none|auto";
    for (const auto* strategy : solver::strategies()) {
        search_help += '|';
        search_help += strategy->name();
    }
    args.add_option("search", "none", search_help);
    args.add_option("cache-cap", "0",
                    "entry cap per search evaluation cache (0 = unbounded; "
                    "bounded caches evict segment-wise, results identical)");
    args.add_option("pair-limit", "0",
                    "multi_asic_bb: soft cap on walked two-ASIC pairs; "
                    "pairs beyond it are skipped deterministically and "
                    "reported (0 = whole space)");
    args.add_option("deadline-ms", "0",
                    "wall-clock budget for --search in milliseconds; on "
                    "expiry the solve stops cooperatively and reports the "
                    "best of the explored prefix (0 = no deadline)");
    args.add_option("max-evals", "0",
                    "cap on scored points for --search; the solve degrades "
                    "to an anytime result when it trips (0 = unlimited)");
    args.add_option("serve-trace", "",
                    "replay a request trace file through the serving layer "
                    "and print the per-request outcomes and latency table, "
                    "then exit (see src/serve/trace.hpp for the format)");
    args.add_option("serve-workers", "2",
                    "worker threads for --serve-trace");
    args.add_option("serve-batch", "on",
                    "same-problem request batching for --serve-trace "
                    "(on|off); answers are bit-identical either way, the "
                    "latency table gains a batched-vs-unbatched row");
    args.add_option("coordinator", "",
                    "run --search distributed: listen on this port (0 = "
                    "OS-chosen) and lease unit ranges to connected workers; "
                    "the best tuple is bit-identical to a single-process "
                    "solve (docs/distributed.md)");
    args.add_option("dist-workers", "0",
                    "in-process worker threads the coordinator spawns "
                    "against its own port (external --worker processes may "
                    "join too)");
    args.add_option("dist-expect", "",
                    "worker hellos the coordinator waits for before "
                    "leasing (default: --dist-workers; raise it when "
                    "external --worker processes join)");
    args.add_option("worker", "",
                    "run as a distributed-search worker against "
                    "HOST:PORT until the coordinator finishes, then exit");
    args.add_option("dist-chaos", "0",
                    "non-zero seed kills one worker mid-range to exercise "
                    "lease reassignment; the best tuple must not change");
    args.add_option("lease-size", "0",
                    "units per range lease (0 = auto)");
    args.add_option("inputs", "",
                    "profile a MiniC file by execution with these inputs "
                    "(e.g. x=0,a=100,dx=5) and use the measured loop/branch "
                    "statistics instead of the source annotations");
    args.add_flag("storage", "charge estimated register/multiplexer area");
    args.add_flag("trace", "print the allocation step trace");
    args.add_flag("no-simd",
                  "dispatch the scalar kernel table only (A/B runs; results "
                  "are bit-identical, only speed changes)");
    args.add_flag("help", "show this help");

    try {
        args.parse(argc, argv);
    }
    catch (const std::exception& e) {
        std::cerr << e.what() << "\n";
        return 2;
    }
    if (args.flag("help")) {
        std::cout << args.usage();
        return 0;
    }
    if (args.flag("no-simd"))
        util::simd::force_isa(util::simd::Isa::scalar);

    // Worker mode: no application input of its own — the problem and
    // solve knobs arrive over the wire from the coordinator.
    if (!args.value("worker").empty()) {
        const std::string spec = args.value("worker");
        const auto colon = spec.rfind(':');
        if (colon == std::string::npos) {
            std::cerr << "error: --worker expects HOST:PORT\n";
            return 2;
        }
        try {
            const std::string host = spec.substr(0, colon);
            const int port = std::stoi(spec.substr(colon + 1));
            if (port <= 0 || port > 65535)
                throw std::invalid_argument("port out of range");
            return dist::run_worker(host,
                                    static_cast<std::uint16_t>(port)) == 0
                       ? 0
                       : 5;
        }
        catch (const std::exception& e) {
            std::cerr << "error: " << e.what() << "\n";
            return 2;
        }
    }

    // Trace replay mode: feed the serving layer from a request file
    // (the CI chaos job archives the latency table this prints).
    if (!args.value("serve-trace").empty()) {
        try {
            std::ifstream trace_file(args.value("serve-trace"));
            if (!trace_file)
                throw std::invalid_argument("cannot open trace file " +
                                            args.value("serve-trace"));
            serve::Trace_options trace_opts;
            trace_opts.n_workers = std::stoi(args.value("serve-workers"));
            const std::string batch = args.value("serve-batch");
            if (batch != "on" && batch != "off")
                throw std::invalid_argument(
                    "--serve-batch expects on|off, got \"" + batch + "\"");
            trace_opts.batching = batch == "on";
            return serve::run_trace(trace_file, std::cout, trace_opts);
        }
        catch (const std::invalid_argument& e) {
            std::cerr << "error: " << e.what() << "\n";
            return 3;
        }
        catch (const std::exception& e) {
            std::cerr << "error: " << e.what() << "\n";
            return 5;
        }
    }

    // --- load the application -----------------------------------------
    std::vector<bsb::Bsb> bsbs;
    double preset_area = 8000.0;
    std::string app_name;
    try {
        if (!args.value("app").empty()) {
            const std::string which = args.value("app");
            apps::App app;
            if (which == "straight")
                app = apps::make_straight();
            else if (which == "hal")
                app = apps::make_hal();
            else if (which == "man")
                app = apps::make_man();
            else if (which == "eigen")
                app = apps::make_eigen();
            else
                throw std::invalid_argument("unknown --app: " + which);
            bsbs = std::move(app.bsbs);
            preset_area = app.asic_area;
            app_name = which;
        }
        else if (!args.positional().empty()) {
            const std::string path = args.positional().front();
            std::ifstream in(path);
            if (!in)
                throw std::invalid_argument("cannot open " + path);
            std::ostringstream buf;
            buf << in.rdbuf();
            auto program = minic::parse(buf.str());
            if (!args.value("inputs").empty()) {
                // Dynamic profiling: execute, then overwrite the
                // trip/prob annotations with the measurements.
                std::map<std::string, long long> inputs;
                std::istringstream spec(args.value("inputs"));
                std::string item;
                while (std::getline(spec, item, ',')) {
                    const auto eq = item.find('=');
                    if (eq == std::string::npos)
                        throw std::invalid_argument(
                            "--inputs expects name=value pairs");
                    inputs[item.substr(0, eq)] =
                        std::stoll(item.substr(eq + 1));
                }
                const auto run_result = minic::run(program, inputs);
                const int updated =
                    minic::annotate_from_run(program, run_result);
                std::cout << "profiled: " << run_result.steps
                          << " statements executed, " << updated
                          << " annotations measured\n";
            }
            bsbs = bsb::extract_leaf_bsbs(minic::lower(program));
            app_name = path;
        }
        else {
            std::cerr << "no input: give --app <name> or a MiniC file\n\n"
                      << args.usage();
            return 2;
        }
    }
    catch (const std::exception& e) {
        std::cerr << "error: " << e.what() << "\n";
        return 3;
    }

    const double area =
        args.value("area").empty() ? preset_area : std::stod(args.value("area"));

    // --- run the flow ---------------------------------------------------
    try {
        hw::Hw_library lib;
        const std::string lib_spec = args.value("lib");
        if (lib_spec == "variants") {
            lib = core::make_variant_library();
        }
        else if (lib_spec == "default") {
            lib = hw::make_default_library();
        }
        else {
            std::ifstream lib_file(lib_spec);
            if (!lib_file)
                throw std::invalid_argument("cannot open library file " +
                                            lib_spec);
            lib = hw::read_library(lib_file);
        }
        const auto target = hw::make_default_target(area);
        const core::Allocator allocator(lib, target);
        const auto infos = core::analyze(bsbs, lib, target.gates);
        const auto restrictions = core::compute_restrictions(infos, lib);

        const auto result = allocator.run_analyzed(
            infos, {.area_budget = area,
                    .selection = parse_policy(args.value("policy")),
                    .record_trace = args.flag("trace")});

        std::cout << "application: " << app_name << " (" << bsbs.size()
                  << " BSBs, " << bsb::total_ops(bsbs) << " ops)\n";
        std::cout << "ASIC area:   " << util::fixed(area, 0) << " gates\n\n";

        util::Table_printer structure(
            {"BSB", "ops", "profile", "N", "ECA", "pseudo"});
        for (std::size_t i = 0; i < bsbs.size(); ++i)
            structure.add_row({bsbs[i].name,
                               std::to_string(bsbs[i].graph.size()),
                               util::fixed(bsbs[i].profile, 1),
                               std::to_string(infos[i].asap_length),
                               util::fixed(infos[i].eca, 0),
                               result.pseudo_in_hw[i] ? "HW" : "SW"});
        structure.print(std::cout);

        if (args.flag("trace")) {
            std::cout << "\ntrace:\n";
            for (const auto& step : result.trace)
                std::cout << "  "
                          << (step.kind == core::Alloc_step::Kind::move_to_hw
                                  ? "move "
                                  : "add  ")
                          << "B#" << step.bsb << "  +"
                          << step.added.to_string(lib) << "  spent "
                          << util::fixed(step.area_spent, 0) << ", left "
                          << util::fixed(step.remaining_after, 0) << "\n";
        }

        std::cout << "\nrestrictions: " << restrictions.to_string(lib) << "\n";
        std::cout << "allocation:   " << result.allocation.to_string(lib)
                  << "\n";

        core::Rmap final_alloc = result.allocation;
        if (!args.value("set").empty()) {
            final_alloc = apply_overrides(final_alloc, lib, args.value("set"));
            std::cout << "after --set:  " << final_alloc.to_string(lib)
                      << "\n";
        }

        const estimate::Storage_model storage_model;
        search::Eval_context ctx{bsbs, lib, target,
                                 parse_ctrl(args.value("ctrl")), 0.0};
        if (args.flag("storage"))
            ctx.storage = &storage_model;

        const auto ev = search::evaluate_allocation(ctx, final_alloc);
        std::cout << "\ndatapath area: " << util::fixed(ev.datapath_area, 0)
                  << " (" << util::percent(ev.size_fraction())
                  << " of used HW area)\n";
        std::cout << "partition:     " << ev.partition.n_in_hw << "/"
                  << bsbs.size() << " BSBs in HW\n";
        std::cout << "all-SW time:   "
                  << util::fixed(ev.partition.time_all_sw_ns / 1e3, 1)
                  << " us\n";
        std::cout << "hybrid time:   "
                  << util::fixed(ev.partition.time_hybrid_ns / 1e3, 1)
                  << " us\n";
        std::cout << "speed-up:      "
                  << util::speedup_percent(ev.speedup_pct()) << "\n";

        const std::string search_name = args.value("search");
        // Loud, not silent: the cap only means something to the pair
        // search (auto never picks it, "none" runs no search at all).
        if (std::stoll(args.value("pair-limit")) > 0 &&
            search_name != "multi_asic_bb") {
            std::cerr << "error: --pair-limit only applies to "
                         "--search multi_asic_bb\n";
            return 2;
        }
        if (search_name != "none") {
            if (search_name != "auto" &&
                solver::find_strategy(search_name) == nullptr) {
                std::cerr << "error: unknown --search strategy \""
                          << search_name << "\" (try auto";
                for (const auto* strategy : solver::strategies())
                    std::cerr << ", " << strategy->name();
                std::cerr << ")\n";
                return 2;
            }

            // One Session owns the thread pool, the shared cache and
            // the shared invariants for the coarse search and the fine
            // re-score of the winner (BSB schedules don't depend on
            // the PACE quantum, so the re-score runs on warm entries).
            solver::Problem problem;
            problem.bsbs = bsbs;
            problem.lib = &lib;
            problem.target = target;
            problem.restrictions = restrictions;
            problem.ctrl_mode = parse_ctrl(args.value("ctrl"));
            problem.area_quantum = area / 512.0;
            if (args.flag("storage"))
                problem.storage = &storage_model;
            solver::Session session(problem);

            solver::Solve_options opts;
            opts.cache_capacity = static_cast<std::size_t>(
                std::stoll(args.value("cache-cap")));
            opts.deadline_ms = std::stod(args.value("deadline-ms"));
            opts.max_evals = static_cast<std::uint64_t>(
                std::stoll(args.value("max-evals")));
            const auto pair_limit = std::stoll(args.value("pair-limit"));
            if (pair_limit > 0)
                opts.extras =
                    solver::Multi_asic_extras{.pair_limit = pair_limit};

            solver::Solve_result best;
            if (!args.value("coordinator").empty()) {
                if (search_name == "auto") {
                    std::cerr << "error: --coordinator needs an explicit "
                                 "leasable --search strategy "
                                 "(exhaustive_bb or multi_asic_bb)\n";
                    return 2;
                }
                dist::Coordinator_options copts;
                copts.strategy = search_name;
                copts.solve = opts;
                copts.port = static_cast<std::uint16_t>(
                    std::stoi(args.value("coordinator")));
                copts.n_workers =
                    args.value("dist-expect").empty()
                        ? std::stoi(args.value("dist-workers"))
                        : std::stoi(args.value("dist-expect"));
                copts.lease_units =
                    std::stoll(args.value("lease-size"));
                copts.chaos_seed = static_cast<std::uint64_t>(
                    std::stoull(args.value("dist-chaos")));
                // In-process workers connect once the port is known —
                // the same wire protocol external --worker processes
                // speak, just on threads of this process.
                std::vector<std::thread> worker_threads;
                const int n_inproc =
                    std::stoi(args.value("dist-workers"));
                copts.on_listen = [&worker_threads,
                                   n_inproc](std::uint16_t port) {
                    for (int i = 0; i < n_inproc; ++i)
                        worker_threads.emplace_back([port] {
                            dist::run_worker("127.0.0.1", port);
                        });
                };
                best = dist::solve_distributed(problem, copts);
                for (auto& t : worker_threads)
                    t.join();
            }
            else {
                best = search_name == "auto"
                           ? session.solve(opts)
                           : session.solve(search_name, opts);
            }

            std::cout << "\n";
            print_solve_stats(std::cout, best);
            if (best.multi.active) {
                const auto& m = best.multi;
                std::cout << "best two-ASIC allocation ("
                          << util::fixed(m.asic_areas[0], 0) << " + "
                          << util::fixed(m.asic_areas[1], 0)
                          << " gates):\n";
                for (std::size_t k = 0; k < 2; ++k)
                    std::cout << "  ASIC" << k << ": "
                              << m.datapaths[k].to_string(lib)
                              << " (datapath "
                              << util::fixed(m.datapath_area[k], 0)
                              << ", ctrl "
                              << util::fixed(
                                     m.partition.ctrl_area_used[k], 0)
                              << ")\n";
                std::cout << "  partition: " << m.partition.n_in_hw << "/"
                          << bsbs.size() << " BSBs in HW, speed-up "
                          << util::speedup_percent(m.partition.speedup_pct)
                          << " (at the search quantum)\n";
                std::cout << "  pair tree: "
                          << util::with_commas(m.rows_pruned) << "/"
                          << util::with_commas(m.rows_visited)
                          << " rows bound-killed";
                if (m.pairs_skipped > 0)
                    std::cout << ", " << util::with_commas(m.pairs_skipped)
                              << " pairs past --pair-limit skipped";
                // Two significant digits below 1%, so a nonzero
                // occupancy never rounds to 0%.
                const double occupancy =
                    m.dp_cells_dense > 0
                        ? static_cast<double>(m.dp_states_swept) /
                              static_cast<double>(m.dp_cells_dense)
                        : 0.0;
                const double pct = 100.0 * occupancy;
                const int digits =
                    pct > 0.0 && pct < 1.0
                        ? static_cast<int>(std::ceil(-std::log10(pct))) + 1
                        : 0;
                std::cout << "\n  sparse DP: "
                          << util::with_commas(m.dp_states_swept)
                          << " states swept ("
                          << util::percent(occupancy, digits)
                          << " of the dense grids), "
                          << util::with_commas(m.dp_states_dropped)
                          << " dropped by the saving floor\n";
                std::cout << "best: "
                          << util::fixed(m.partition.time_hybrid_ns / 1e3, 1)
                          << " us hybrid with ASIC0 "
                          << m.datapaths[0].to_string(lib) << ", ASIC1 "
                          << m.datapaths[1].to_string(lib) << "\n";
            }
            else {
                const auto best_ev = session.rescore(best.best.datapath);
                std::cout << "best: "
                          << util::speedup_percent(best_ev.speedup_pct())
                          << " with " << best_ev.datapath.to_string(lib)
                          << "\n";
            }
            if (best.dist.active) {
                const auto& d = best.dist;
                std::cout << "distributed: " << d.n_workers
                          << " workers, " << util::with_commas(d.leases_granted)
                          << " leases over " << util::with_commas(d.n_units)
                          << " units, " << d.leases_reassigned
                          << " reassigned, " << d.workers_lost << " lost, "
                          << util::with_commas(d.incumbent_broadcasts)
                          << " incumbent broadcasts, "
                          << d.leases_solved_locally << " solved locally\n";
                for (std::size_t i = 0; i < d.workers.size(); ++i)
                    std::cout << "  worker " << i << ": "
                              << d.workers[i].ranges_served << " ranges, "
                              << d.workers[i].incumbents_applied
                              << " incumbents applied, "
                              << util::with_commas(
                                     d.workers[i].remote_bound_kills)
                              << " remote-bound kills\n";
            }
            // The anytime incumbent was printed above; the exit code
            // still tells scripts the search was cut short.
            if (best.status != util::Solve_status::complete)
                return 4;
        }
        return 0;
    }
    catch (const std::invalid_argument& e) {
        std::cerr << "error: " << e.what() << "\n";
        return 3;
    }
    catch (const std::exception& e) {
        std::cerr << "error: " << e.what() << "\n";
        return 5;
    }
}

// §6 future-work bench: one ASIC vs two ASICs.
//
// For each application, compares
//   1x A      a single ASIC with the Table-1 area,
//   2x A/2    two ASICs with half the area each (same silicon total),
//   2x A      two full-size ASICs (double the silicon).
// Splitting the same total area across two chips duplicates functional
// units and forfeits cross-chip adjacency savings, so 2x A/2 should
// not beat 1x A; doubling the silicon should help the applications
// whose controllers were the bottleneck.
//
// A second table compares the production Pareto-sparse two-ASIC DP
// against the dense full-scan test oracle (tests/support/) at
// identical quantization:
// per-partition times, the sparse value-only screening time, stored
// state counts vs. the dense grid, and traceback bytes.  The driver
// asserts that both implementations return the identical placement.
#include <array>
#include <cstdlib>
#include <iostream>

#include "common.hpp"
#include "core/multi_allocator.hpp"
#include "pace/multi_asic.hpp"
#include "support/multi_pace_reference.hpp"
#include "util/format.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace {

using namespace lycos;

struct Two_asic_setup {
    std::vector<pace::Multi_bsb_cost> costs;
    pace::Multi_pace_options options;
};

Two_asic_setup make_setup(const apps::App& app, const hw::Hw_library& lib,
                          const hw::Target& target,
                          std::array<double, 2> budgets)
{
    const auto infos = core::analyze(app.bsbs, lib, target.gates);
    const auto alloc =
        core::allocate_two_asics(infos, lib, {.budgets = budgets});
    Two_asic_setup s;
    s.costs = pace::build_multi_cost_model(
        app.bsbs, lib, target, alloc.allocations[0], alloc.allocations[1],
        pace::Controller_mode::list_schedule);
    s.options.ctrl_area_budgets = {
        std::max(0.0, budgets[0] - alloc.datapath_area[0]),
        std::max(0.0, budgets[1] - alloc.datapath_area[1])};
    return s;
}

double two_asic_speedup(const apps::App& app, const hw::Hw_library& lib,
                        const hw::Target& target,
                        std::array<double, 2> budgets,
                        pace::Multi_pace_workspace& ws)
{
    const auto s = make_setup(app, lib, target, budgets);
    return pace::multi_pace_partition(s.costs, s.options, &ws).speedup_pct;
}

}  // namespace

int main()
{
    using util::fixed;

    std::cout << "§6 extension — one ASIC vs two ASICs\n\n";
    util::Table_printer table(
        {"Example", "1x A", "2x A/2", "2x A"});

    const auto lib = hw::make_default_library();
    pace::Multi_pace_workspace ws;

    std::vector<apps::App> apps_run;
    for (auto& app : apps::make_all_apps()) {
        const std::string name = app.name;
        const double area = app.asic_area;
        auto run = benchx::run_flow(std::move(app));

        const auto target = hw::make_default_target(area);
        const double split = two_asic_speedup(
            run.app, lib, target, {area / 2.0, area / 2.0}, ws);
        const double doubled =
            two_asic_speedup(run.app, lib, target, {area, area}, ws);

        table.add_row({
            name,
            fixed(run.heuristic.speedup_pct(), 0) + "%",
            fixed(split, 0) + "%",
            fixed(doubled, 0) + "%",
        });
        apps_run.push_back(std::move(run.app));
    }

    table.print(std::cout);
    std::cout <<
        "\nsame-total-silicon split (2x A/2) duplicates units and loses\n"
        "cross-chip adjacency savings; doubling silicon (2x A) helps\n"
        "where controllers were the binding constraint.\n";

    // --- DP implementation comparison (identical quantization) -------
    std::cout << "\ntwo-ASIC DP: dense vs Pareto-sparse\n\n";
    util::Table_printer dp_table({"Example", "dense ms", "sparse ms", "screen ms", "speedup",
                                  "states", "traceback", "match"});
    bool all_match = true;
    for (const auto& app : apps_run) {
        const auto target = hw::make_default_target(app.asic_area);
        const auto s = make_setup(
            app, lib, target, {app.asic_area / 2.0, app.asic_area / 2.0});

        auto sparse = pace::multi_pace_partition(s.costs, s.options, &ws);
        const int iters = 10;
        util::Wall_timer t_sparse;
        for (int i = 0; i < iters; ++i)
            sparse = pace::multi_pace_partition(s.costs, s.options, &ws);
        const double sparse_ms = t_sparse.seconds() / iters * 1e3;

        util::Wall_timer t_scr;
        double acc = 0.0;
        for (int i = 0; i < iters; ++i)
            acc += pace::multi_pace_best_saving(s.costs, s.options, &ws);
        const double scr_ms = t_scr.seconds() / iters * 1e3;
        (void)acc;

        util::Wall_timer t_dense;
        const auto dense =
            pace::multi_pace_partition_reference(s.costs, s.options);
        const double dense_ms = t_dense.seconds() * 1e3;

        const bool match = sparse.placement == dense.placement &&
                           sparse.time_hybrid_ns == dense.time_hybrid_ns;
        all_match = all_match && match;
        dp_table.add_row({
            app.name,
            fixed(dense_ms, 2),
            fixed(sparse_ms, 2),
            fixed(scr_ms, 2),
            fixed(dense_ms / std::max(1e-9, sparse_ms), 1) + "x",
            std::to_string(sparse.dp_states_stored) + " (" +
                fixed(100.0 * sparse.state_occupancy(), 2) + "%)",
            std::to_string(dense.traceback_bytes / 1024) + "K->" +
                std::to_string(sparse.traceback_bytes / 1024) + "K",
            match ? "yes" : "NO",
        });
    }
    dp_table.print(std::cout);
    std::cout << "\nboth share the unified auto quantum "
                 "(budget/4096, grid bounded by\nmax_dp_cells); states = "
                 "Pareto-maximal DP states stored (% of the dense\ngrid "
                 "swept); screen = sparse value-only "
                 "multi_pace_best_saving.\n";
    if (!all_match) {
        std::cerr << "error: sparse DP disagrees with the dense "
                     "reference\n";
        return 1;
    }
    return 0;
}

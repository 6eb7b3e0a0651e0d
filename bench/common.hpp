// Shared pipeline harness for the bench binaries: compile app, run the
// allocation algorithm, evaluate with PACE, and describe the search for
// the best allocation as a solver::Problem (Session::solve picks
// exhaustive search when the space is small, hill climbing otherwise —
// mirroring the paper's footnote 1 treatment of eigen).
#pragma once

#include <string>

#include "apps/apps.hpp"
#include "core/allocator.hpp"
#include "hw/target.hpp"
#include "solver/solver.hpp"
#include "util/timer.hpp"

namespace lycos::benchx {

/// Everything bench binaries need about one application run.
struct Run {
    apps::App app;
    hw::Hw_library lib = hw::make_default_library();
    hw::Target target;
    core::Rmap restrictions;
    core::Alloc_result alloc;
    search::Evaluation heuristic;   ///< PACE result for the algorithm's allocation
    double alloc_seconds = 0.0;     ///< Table 1 "CPU sec"
};

/// PACE area quantum used during searches (coarse for speed); the
/// final numbers are re-evaluated with the default fine quantum.
inline constexpr double k_search_quantum_divisor = 512.0;

/// The evaluation charges the *real* (list-schedule) controller areas:
/// the allocator plans with the optimistic ASAP-based ECA, but the
/// partitioning that scores an allocation sees the controllers that
/// would actually be synthesized (§5.1 discusses exactly this gap).
inline constexpr pace::Controller_mode k_eval_mode =
    pace::Controller_mode::list_schedule;

inline search::Eval_context context(const Run& r,
                                    pace::Controller_mode mode = k_eval_mode,
                                    double quantum = 0.0)
{
    return {r.app.bsbs, r.lib, r.target, mode, quantum};
}

/// Run the paper's flow for one application.
inline Run run_flow(apps::App app)
{
    Run r;
    r.app = std::move(app);
    r.target = hw::make_default_target(r.app.asic_area);

    const core::Allocator allocator(r.lib, r.target);
    util::Wall_timer timer;
    const auto infos = core::analyze(r.app.bsbs, r.lib, r.target.gates);
    r.restrictions = core::compute_restrictions(infos, r.lib);
    r.alloc = allocator.run_analyzed(
        infos, {.area_budget = r.target.asic.total_area});
    r.alloc_seconds = timer.seconds();

    r.heuristic = search::evaluate_allocation(context(r), r.alloc.allocation);
    return r;
}

/// The best-allocation search over `r`'s restriction space, at the
/// coarse search quantum; Session::rescore re-evaluates its winner at
/// the exact quantum.
inline solver::Problem search_problem(const Run& r)
{
    solver::Problem problem;
    problem.bsbs = r.app.bsbs;
    problem.lib = &r.lib;
    problem.target = r.target;
    problem.restrictions = r.restrictions;
    problem.ctrl_mode = k_eval_mode;
    problem.area_quantum =
        r.target.asic.total_area / k_search_quantum_divisor;
    return problem;
}

/// Share of application operations mapped to hardware (the paper's
/// HW/SW column reports how much of the application went to HW).
inline double hw_ops_fraction(const Run& r, const search::Evaluation& ev)
{
    std::size_t hw_ops = 0;
    std::size_t all_ops = 0;
    for (std::size_t i = 0; i < r.app.bsbs.size(); ++i) {
        all_ops += r.app.bsbs[i].graph.size();
        if (ev.partition.in_hw[i])
            hw_ops += r.app.bsbs[i].graph.size();
    }
    return all_ops == 0 ? 0.0
                        : static_cast<double>(hw_ops) /
                              static_cast<double>(all_ops);
}

}  // namespace lycos::benchx

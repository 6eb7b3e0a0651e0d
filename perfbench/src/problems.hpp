// The benchmark's inputs and answer checks.
//
// The problems are the paper's four Table 1 applications, compiled
// from their MiniC sources, under the default library and target.  An
// answer is compared as its objective tuple: hybrid time, data-path
// area and the data-path itself, all exactly.
#pragma once

#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "apps/apps.hpp"
#include "core/rmap.hpp"
#include "hw/resource.hpp"
#include "hw/target.hpp"
#include "search/evaluate.hpp"
#include "solver/solver.hpp"

namespace perfbench {

/// The default library and the four compiled applications.
struct Library {
    lycos::hw::Hw_library lib;
    std::vector<lycos::apps::App> apps;  ///< straight, hal, man, eigen

    const lycos::apps::App& app(std::string_view name) const;
};

Library make_library();

/// One application at one ASIC area, analyzed once: what a Problem
/// needs, outside any timed region.
struct Prepared {
    const lycos::apps::App* app = nullptr;
    double area = 0.0;
    lycos::hw::Target target;
    lycos::core::Rmap restrictions;
};

Prepared prepare(const Library& lib, const lycos::apps::App& app, double area);

/// The Problem `lycos_cli --search` builds: real controller areas and a
/// search quantum of area / 512.  References `lib` and the app.
lycos::solver::Problem make_problem(const Library& lib, const Prepared& p);

/// The objective tuple of an answer.
struct Tuple {
    double time_ns = 0.0;
    double area = 0.0;
    std::string datapath;  ///< "dp0 | dp1" for two-ASIC answers

    friend bool operator==(const Tuple&, const Tuple&) = default;
    std::string str() const;
};

Tuple tuple_of(const lycos::search::Evaluation& ev, const Library& lib);

/// The single-ASIC best, or the two-ASIC best when multi_asic_bb ran.
Tuple tuple_of(const lycos::solver::Solve_result& r, const Library& lib);

/// Reference for exhaustive_bb: a full scan of the allocation space in
/// enumeration order with search::evaluate_allocation, keeping the
/// first strictly better point (the search's own tie rule).
lycos::search::Evaluation full_scan(lycos::solver::Session& session,
                                    const Library& lib);

/// Reference for Session::rescore: the same point evaluated afresh at
/// the exact (quantum-free) settings, without a cache.
Tuple exact_evaluation(lycos::solver::Session& session,
                       const lycos::core::Rmap& datapath, const Library& lib);

/// Reference for hill_climb and multi_asic_bb: the same strategy on one
/// thread with every bound and prune off.
Tuple unpruned_solve(lycos::solver::Session& session, std::string_view strategy,
                     const lycos::solver::Solve_options& base,
                     const Library& lib);

/// Stored references, one "key time area | datapath" line each, for
/// references too slow to recompute every run.
std::map<std::string, Tuple> read_references(const std::string& path);
bool write_references(const std::string& path,
                      const std::map<std::string, Tuple>& refs);

}  // namespace perfbench

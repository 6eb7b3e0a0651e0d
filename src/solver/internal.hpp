// Internal seams between the solver translation units: the strategy
// singletons in strategies.cpp dispatch to these per-strategy engines,
// one file each (exhaustive_bb.cpp, hill_climb.cpp, multi_asic_bb.cpp).
// Every engine takes its pool, cache, invariants and DP workspaces
// from the Session.  Not part of the public API.
#pragma once

#include <stdexcept>
#include <string>

#include "solver/solver.hpp"

namespace lycos::solver::detail {

/// Extras accessor shared by the strategies: defaults on monostate, a
/// loud error on a mismatched alternative (a Multi_asic_extras handed
/// to hill_climb is a caller bug, not something to silently ignore).
template <typename Extras>
Extras extras_or_default(const Solve_options& options,
                         std::string_view strategy)
{
    if (std::holds_alternative<std::monostate>(options.extras))
        return Extras{};
    if (const auto* e = std::get_if<Extras>(&options.extras))
        return *e;
    throw std::invalid_argument(std::string(strategy) +
                                ": Solve_options::extras holds the wrong "
                                "alternative for this strategy");
}

Solve_result solve_exhaustive_bb(Session& session,
                                 const Solve_options& options);
Solve_result solve_hill_climb(Session& session,
                              const Solve_options& options);
Solve_result solve_multi_asic_bb(Session& session,
                                 const Solve_options& options);

/// The per-ASIC area budgets multi_asic_bb searches: the problem's
/// asic_areas, or an even split of the single target when unset.
std::array<double, 2> multi_asic_budgets(const Problem& problem);

}  // namespace lycos::solver::detail

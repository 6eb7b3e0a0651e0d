#include "solver/internal.hpp"

namespace lycos::solver {

namespace detail {

std::array<double, 2> multi_asic_budgets(const Problem& problem)
{
    if (problem.asic_areas[0] != 0.0 || problem.asic_areas[1] != 0.0)
        return problem.asic_areas;
    const double half = problem.target.asic.total_area / 2.0;
    return {half, half};
}

}  // namespace detail

namespace {

template <Solve_result (*Fn)(Session&, const Solve_options&)>
class Registered final : public Strategy {
public:
    Registered(std::string_view name, std::string_view description)
        : name_(name), description_(description)
    {
    }
    std::string_view name() const override { return name_; }
    std::string_view description() const override { return description_; }
    Solve_result solve(Session& session,
                       const Solve_options& options) const override
    {
        return Fn(session, options);
    }

private:
    std::string_view name_;
    std::string_view description_;
};

const Registered<detail::solve_exhaustive_bb> k_exhaustive_bb{
    "exhaustive_bb",
    "deterministic branch-and-bound over the full allocation space"};
const Registered<detail::solve_hill_climb> k_hill_climb{
    "hill_climb",
    "iterated steepest-ascent restarts with value-DP screening"};
const Registered<detail::solve_multi_asic_bb> k_multi_asic_bb{
    "multi_asic_bb",
    "branch-and-bound over two-ASIC allocation pairs (sparse DP)"};

const Strategy* const k_registry[] = {&k_exhaustive_bb, &k_hill_climb,
                                      &k_multi_asic_bb};

}  // namespace

std::span<const Strategy* const> strategies()
{
    return k_registry;
}

const Strategy* find_strategy(std::string_view name)
{
    for (const Strategy* s : k_registry)
        if (s->name() == name)
            return s;
    return nullptr;
}

}  // namespace lycos::solver

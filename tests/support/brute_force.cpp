#include "support/brute_force.hpp"

#include <cmath>
#include <stdexcept>

namespace lycos::pace {

Pace_result brute_force_partition(std::span<const Bsb_cost> costs,
                                  double ctrl_area_budget)
{
    const std::size_t n = costs.size();
    if (n > 24)
        throw std::invalid_argument("brute_force_partition: too many BSBs");
    if (ctrl_area_budget < 0.0)
        throw std::invalid_argument("brute_force_partition: negative budget");

    Pace_result best = evaluate_partition(costs, std::vector<bool>(n, false));

    std::vector<bool> in_hw(n, false);
    const std::uint64_t limit = std::uint64_t{1} << n;
    for (std::uint64_t mask = 1; mask < limit; ++mask) {
        double area = 0.0;
        bool feasible = true;
        for (std::size_t i = 0; i < n; ++i) {
            const bool hw = (mask >> i) & 1U;
            in_hw[i] = hw;
            if (hw) {
                if (std::isinf(costs[i].t_hw) ||
                    std::isinf(costs[i].ctrl_area)) {
                    feasible = false;
                    break;
                }
                area += costs[i].ctrl_area;
            }
        }
        if (!feasible || area > ctrl_area_budget)
            continue;
        const Pace_result r = evaluate_partition(costs, in_hw);
        if (r.time_hybrid_ns < best.time_hybrid_ns)
            best = r;
    }
    return best;
}

}  // namespace lycos::pace

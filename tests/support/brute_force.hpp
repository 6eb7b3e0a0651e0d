// Exact exponential partitioner, the test oracle of the PACE dynamic
// program.
//
// Enumerates all 2^L partitions and evaluates each with the exact
// (non-discretized) timing and area model.  The PACE tests and
// bench_scaling's DP-vs-brute-force case compare against it.  L is
// limited to 24.
#pragma once

#include <span>

#include "pace/pace.hpp"

namespace lycos::pace {

/// Optimal partition by exhaustive enumeration.  Throws
/// std::invalid_argument for more than 24 BSBs.
Pace_result brute_force_partition(std::span<const Bsb_cost> costs,
                                  double ctrl_area_budget);

}  // namespace lycos::pace

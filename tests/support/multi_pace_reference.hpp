// The dense two-ASIC DP, the test oracle of the Pareto-sparse
// pace::multi_pace_partition: a full w0 x w1 x 3 scan per BSB row
// with one byte each of decision and parent per cell.  It quantizes
// through the production pace::prepare_multi (auto quantum,
// max_dp_cells guard, rounding), so placement, time and quantum are
// comparable bit for bit.  It ignores Multi_pace_options::cancel and
// min_saving.
#pragma once

#include <span>

#include "pace/multi_asic.hpp"

namespace lycos::pace {

/// Optimal (up to area discretization) two-ASIC partition by a dense
/// scan of every (a0, a1, previous placement) cell of every row.
Multi_pace_result multi_pace_partition_reference(
    std::span<const Multi_bsb_cost> costs, const Multi_pace_options& options);

}  // namespace lycos::pace

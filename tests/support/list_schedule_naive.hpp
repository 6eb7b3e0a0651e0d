// The original cycle-stepping list scheduler, kept as the test oracle
// of the event-driven sched::list_schedule.  It steps every clock
// cycle, re-sorts the ready list by (ALAP, id) each cycle and binds
// each ready op to the most specialized free instance, so it costs
// O(cycles * ready * instances).  The production scheduler must give
// the identical schedule (feasibility, length, start steps and
// binding); tests/test_sched_equivalence.cpp and the exhaustive-search
// tests compare the two.
#pragma once

#include <span>

#include "dfg/dfg.hpp"
#include "hw/resource.hpp"
#include "sched/list_scheduler.hpp"

namespace lycos::sched {

/// Schedule `g` on `counts[r]` instances of each resource type `r` of
/// `lib`, one cycle at a time.  Same contract as list_schedule.
List_schedule list_schedule_naive(const dfg::Dfg& g,
                                  const hw::Hw_library& lib,
                                  std::span<const int> counts);

}  // namespace lycos::sched

// Registry of every reproduction scenario (DESIGN.md §11).
//
// `campaign scenario <name>` runs a scenario directly and the campaign
// runner resolves `"bench": "<name>"` spec entries against the same
// registry — both run the identical Scenario object through
// run_scenario(), which is what keeps their JSON reports byte-identical.
#pragma once

#include <string>
#include <vector>

#include "bench_common.hpp"

namespace razorbus::bench {

// All registered scenarios, in the DESIGN.md §4 experiment-index order.
const std::vector<Scenario>& all_scenarios();

// Lookup by scenario name ("fig4_voltage_sweep", ..., "engine"); throws
// std::invalid_argument listing the known names on a miss.
const Scenario& scenario_by_name(const std::string& name);

}  // namespace razorbus::bench

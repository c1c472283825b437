// Scenario factories: one per reproduction harness.
//
// Each bench/scenarios/*.cpp builds one Scenario (name, banner, paper
// reference, default cycle budget, run body). `campaign scenario <name>`
// and campaign "bench" jobs both fetch them through scenario_registry.hpp,
// so the two execute the exact same code path — which is what makes their
// JSON reports byte-identical (tests/campaign_test.cpp pins fig4, fig8 and
// table1 in tests/golden/).
#pragma once

#include "bench_common.hpp"

namespace razorbus::bench {

Scenario make_fig4_voltage_sweep_scenario();
Scenario make_fig5_pvt_gains_scenario();
Scenario make_fig6_voltage_distribution_scenario();
Scenario make_fig8_dvs_trace_scenario();
Scenario make_fig10_modified_bus_scenario();
Scenario make_table1_dvs_gains_scenario();
Scenario make_ablation_controller_scenario();
Scenario make_ablation_encoding_scenario();
Scenario make_ablation_pvt_sampling_scenario();
Scenario make_ablation_repeater_scenario();
Scenario make_scaling_study_scenario();
Scenario make_width_sweep_scenario();

}  // namespace razorbus::bench

#include "scenario_registry.hpp"

#include <stdexcept>

#include "scenarios/scenarios.hpp"

namespace razorbus::bench {

const std::vector<Scenario>& all_scenarios() {
  static const std::vector<Scenario> scenarios = [] {
    std::vector<Scenario> out;
    out.push_back(make_fig4_voltage_sweep_scenario());
    out.push_back(make_fig5_pvt_gains_scenario());
    out.push_back(make_fig6_voltage_distribution_scenario());
    out.push_back(make_fig8_dvs_trace_scenario());
    out.push_back(make_table1_dvs_gains_scenario());
    out.push_back(make_fig10_modified_bus_scenario());
    out.push_back(make_ablation_controller_scenario());
    out.push_back(make_ablation_encoding_scenario());
    out.push_back(make_ablation_pvt_sampling_scenario());
    out.push_back(make_ablation_repeater_scenario());
    out.push_back(make_scaling_study_scenario());
    out.push_back(make_width_sweep_scenario());
    return out;
  }();
  return scenarios;
}

const Scenario& scenario_by_name(const std::string& name) {
  for (const auto& scenario : all_scenarios())
    if (scenario.name == name) return scenario;
  std::string known;
  for (const auto& scenario : all_scenarios())
    known += (known.empty() ? "" : ", ") + scenario.name;
  throw std::invalid_argument("unknown scenario '" + name + "' (known: " + known + ")");
}

}  // namespace razorbus::bench

#include "core/system.hpp"

#include <cmath>
#include <stdexcept>

namespace razorbus::core {

DvsBusSystem::DvsBusSystem(interconnect::BusDesign design)
    : DvsBusSystem(std::move(design), SystemOptions{}) {}

DvsBusSystem::DvsBusSystem(interconnect::BusDesign design, const SystemOptions& options)
    : design_(std::move(design)), driver_(design_.node) {
  design_.validate();
  if (design_.repeater_size <= 0.0) {
    if (options.use_cache)
      lut::size_repeaters_from_store(design_, driver_, options.sizing_corner);
    else
      interconnect::size_repeaters(design_, driver_, options.sizing_corner);
  }

  if (options.use_cache)
    table_ = lut::build_or_load(design_, driver_, options.lut_config, options.progress);
  else
    table_ = lut::DelayEnergyTable::build(design_, driver_, options.lut_config,
                                          options.progress);
}

bus::BusSimulator DvsBusSystem::make_simulator(const tech::PvtCorner& environment) const {
  return bus::BusSimulator(design_, table_, environment);
}

double DvsBusSystem::dvs_floor(tech::ProcessCorner process) const {
  return dvs::dvs_floor_voltage(design_, table_, process);
}

double DvsBusSystem::fixed_vs_supply(tech::ProcessCorner process) const {
  return dvs::fixed_vs_voltage(design_, table_, process);
}

double DvsBusSystem::shadow_floor(const tech::PvtCorner& environment) const {
  const int worst = lut::PatternClass::encode(
      lut::VictimActivity::rise, lut::NeighborActivity::fall,
      lut::NeighborActivity::fall);
  const auto& grid = table_.grid();
  const double limit = design_.shadow_capture_limit();
  const double step = 0.020;
  double best = design_.node.vdd_nominal;
  bool found = false;
  for (double v = design_.node.vdd_nominal; v > grid.vmin() - 1e-9; v -= step) {
    const double v_eff = environment.effective_supply(v);
    if (v_eff < grid.vmin() - 1e-9) break;
    const double d = table_.delay(worst, environment.process, environment.temp_c, v_eff);
    if (std::isnan(d) || std::isinf(d) || d > limit) break;
    best = v;
    found = true;
  }
  if (!found) throw std::runtime_error("shadow_floor: bus unsafe even at nominal supply");
  return best;
}

double DvsBusSystem::nominal_worst_delay(const tech::PvtCorner& environment) const {
  const int worst = lut::PatternClass::encode(
      lut::VictimActivity::rise, lut::NeighborActivity::fall,
      lut::NeighborActivity::fall);
  return table_.delay(worst, environment.process, environment.temp_c,
                      environment.effective_supply(design_.node.vdd_nominal));
}

}  // namespace razorbus::core

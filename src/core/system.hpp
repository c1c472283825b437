// DvsBusSystem: the library's primary entry point.
//
// Bundles a sized bus design, its driver model and its characterised
// delay/energy tables, and exposes the experiments of the paper:
//   * static voltage sweeps (Fig. 4),
//   * minimum-voltage search for a target error rate (Fig. 5 / Fig. 10),
//   * oracle windowed voltage selection (Fig. 6),
//   * closed-loop DVS runs with the threshold controller and a ramping
//     regulator (Table 1 / Fig. 8), and
//   * the fixed-VS baseline.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "bus/simulator.hpp"
#include "dvs/controller.hpp"
#include "dvs/fixed_vs.hpp"
#include "dvs/oracle.hpp"
#include "interconnect/bus_design.hpp"
#include "interconnect/rc_builder.hpp"
#include "lut/cache.hpp"
#include "lut/table.hpp"
#include "tech/corner.hpp"
#include "tech/device.hpp"
#include "trace/trace.hpp"

namespace razorbus::core {

struct SystemOptions {
  lut::LutConfig lut_config{};
  // Corner the repeaters are sized at (the paper's worst case).
  tech::PvtCorner sizing_corner = tech::worst_case_corner();
  // Use the on-disk characterization cache for the tables and the repeater
  // sizing (recommended).
  bool use_cache = true;
  // Progress callback for characterization (done, total).
  std::function<void(int, int)> progress{};
};

class DvsBusSystem {
 public:
  // Sizes the repeaters of `design` (if not already sized) and builds or
  // loads the delay/energy tables. This is the expensive constructor — a
  // cache miss costs thousands of transient circuit simulations.
  // The one-argument form takes the default SystemOptions.
  explicit DvsBusSystem(interconnect::BusDesign design);
  DvsBusSystem(interconnect::BusDesign design, const SystemOptions& options);

  const interconnect::BusDesign& design() const { return design_; }
  const lut::DelayEnergyTable& table() const { return table_; }
  const tech::DriverModel& driver() const { return driver_; }

  // Fresh cycle simulator for an environment.
  bus::BusSimulator make_simulator(const tech::PvtCorner& environment) const;

  // Regulator floor for a process corner (shadow-safe under conservative
  // worst-case temperature and IR drop).
  double dvs_floor(tech::ProcessCorner process) const;
  // Fixed-VS baseline voltage for a process corner.
  double fixed_vs_supply(tech::ProcessCorner process) const;

  // Lowest supply at which the worst-case pattern still reaches the shadow
  // latch for the SPECIFIC environment (used by static studies, Fig. 5).
  double shadow_floor(const tech::PvtCorner& environment) const;

  // Non-DVS reference: worst-case in-to-out delay at the nominal supply
  // for an environment (the Fig. 5 X axis).
  double nominal_worst_delay(const tech::PvtCorner& environment) const;

 private:
  interconnect::BusDesign design_;
  tech::DriverModel driver_;
  lut::DelayEnergyTable table_;
};

}  // namespace razorbus::core

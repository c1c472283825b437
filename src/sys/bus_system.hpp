// Multi-bus shared-supply system (docs/campaigns.md `multi_bus`,
// docs/architecture.md layer map).
//
// The paper evaluates one bus; a realistic SoC deployment hangs several
// buses of different widths and lengths off ONE regulator with ONE DVS
// controller. `BusSystem` models exactly that: N independent
// `bus::BusSimulator`s (each its own design, receiver bank and trace
// stream) advance in lockstep under a shared supply, each bus counts its
// own receiver-bank errors per controller window, and a pluggable
// arbitration policy (dvs::fuse_window_errors) fuses the N window counts
// into the single count the threshold controller sees.
//
// BusSystem validates the lanes and runs core::ClosedLoop — the one
// closed loop every single-bus driver runs too (core/closed_loop.hpp) —
// once over N sources. Contracts, in the spirit of DESIGN.md §5/§12:
//
//  * N=1 PARITY: a one-bus BusSystem report is bit-identical to the
//    single-bus closed-loop drivers (core::run_closed_loop{,_streamed}) —
//    by construction, since both are one ClosedLoop lane and every
//    arbitration policy reduces to the identity at N=1.
//    tests/system_test.cpp keeps checking it for every policy and engine.
//  * STREAM PARITY: the materialized form runs view sources through the
//    same loop, so streamed reports equal materialized ones by
//    construction; the loop serves logical segments across block refills,
//    so block boundaries never move a control decision.
//  * DRIFT: an enabled drift::Schedule re-derives the operating corner at
//    every controller-window boundary and applies it to all lanes AND
//    their nominal meters (the gain under drift compares the
//    DVS bus against a conventional bus aging in the same environment).
//    A disabled schedule executes the exact static-corner code path, so
//    zero-drift runs are byte-identical to static runs
//    (tests/drift_test.cpp). Window-granular application keeps a
//    10^9-cycle streamed drift run at ~10^5 table re-slices and O(block)
//    resident trace memory.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/closed_loop.hpp"
#include "core/experiments.hpp"
#include "core/scenario_spec.hpp"
#include "drift/schedule.hpp"
#include "tech/corner.hpp"
#include "trace/source.hpp"
#include "trace/trace.hpp"

namespace razorbus::sys {

// One bus of the system. `system` is non-owning and must outlive the
// BusSystem; `weight` is read by the `weighted` arbitration policy.
using BusLane = core::LoopLane;

// A core::DvsRunConfig (so a single-bus config maps 1:1 onto the N=1
// parity case) plus the system knobs `arbitration` and `drift`.
using SystemRunConfig = core::LoopConfig;

struct SystemRunReport {
  // Per-lane reports in lane order. At N=1, per_bus[0] is bit-identical
  // to the single-bus driver's DvsRunReport (series lives below instead).
  std::vector<core::DvsRunReport> per_bus;
  // One series for the whole system: the shared supply and the FUSED
  // window error rate at each completed window boundary.
  std::vector<core::WindowSample> series;
  std::uint64_t cycles = 0;   // lockstep cycles executed (per lane)
  std::uint64_t windows = 0;  // completed controller windows
  double floor_supply = 0.0;
  double average_supply = 0.0;  // cycle-weighted shared supply
  // Wall-tracking error of the controller: mean |fused window error rate
  // - band midpoint| over completed windows — how tightly the shared
  // loop holds the paper's [low, high] band under arbitration and drift.
  double wall_tracking_error = 0.0;
  std::uint64_t env_updates = 0;  // drift corner changes actually applied

  double total_energy() const {
    double e = 0.0;
    for (const auto& r : per_bus) e += r.totals.total_energy();
    return e;
  }
  double baseline_bus_energy() const {
    double e = 0.0;
    for (const auto& r : per_bus) e += r.baseline_bus_energy;
    return e;
  }
  double energy_gain() const {
    const double base = baseline_bus_energy();
    return base > 0.0 ? 1.0 - total_energy() / base : 0.0;
  }
  double error_rate() const {
    std::uint64_t cyc = 0, err = 0;
    for (const auto& r : per_bus) {
      cyc += r.totals.cycles;
      err += r.totals.errors;
    }
    return cyc ? static_cast<double>(err) / static_cast<double>(cyc) : 0.0;
  }
};

class BusSystem {
 public:
  // Throws std::invalid_argument on an empty lane list, a null lane
  // system, a non-positive weight, or lanes whose designs disagree on the
  // nominal supply (one regulator, one rail).
  explicit BusSystem(std::vector<BusLane> lanes);

  const std::vector<BusLane>& lanes() const { return lanes_; }

  // One trace per lane, lockstep, through view sources; the run ends when
  // the shortest trace does. Traces wider than their lane throw (the
  // single-bus width rule, per lane).
  SystemRunReport run_closed_loop(const tech::PvtCorner& environment,
                                  const std::vector<trace::Trace>& traces,
                                  const SystemRunConfig& config = {}) const;

  // One source per lane, cloned and drained block by block in lockstep;
  // ends when the first source does.
  SystemRunReport run_closed_loop_streamed(
      const tech::PvtCorner& environment,
      const std::vector<std::unique_ptr<trace::TraceSource>>& sources,
      const SystemRunConfig& config = {}, const core::StreamConfig& stream = {},
      core::StreamStats* stats = nullptr) const;

 private:
  std::vector<BusLane> lanes_;
};

// Resolve a declarative drift spec (core::DriftSpec, docs/campaigns.md
// `drift`) into a schedule: the linear form ramps over `cycles` (the
// job's resolved budget), the piecewise form uses its breakpoints as-is.
// A disabled spec yields a disabled schedule.
drift::Schedule schedule_from_spec(const core::DriftSpec& spec,
                                   std::uint64_t cycles);

}  // namespace razorbus::sys

// Builds and runs the 3-wire characterization clusters.
//
// To characterise one bus wire under a given neighbor switching pattern, we
// simulate a victim wire together with its two physical neighbors over the
// full 6 mm repeated line (n_segments repeater stages, distributed RC with
// coupling). The victim's in-to-out delay and the rail energy drawn by the
// victim's own repeaters are the quantities the lookup tables store — the
// same quantities the paper tabulates with HSPICE.
#pragma once

#include <functional>

#include "interconnect/bus_design.hpp"
#include "spice/netlist.hpp"
#include "spice/transient.hpp"
#include "tech/corner.hpp"
#include "tech/device.hpp"

namespace razorbus::interconnect {

// What a wire does during a characterization cycle. `hold` keeps the wire
// at logic low, `hold_high` at logic high — the distinction matters only
// for energy (a held-high victim recharges crosstalk droop from the rail).
enum class WireActivity { rise, fall, hold, shield, hold_high };

inline bool switches(WireActivity a) {
  return a == WireActivity::rise || a == WireActivity::fall;
}

struct ClusterSpec {
  WireActivity victim = WireActivity::rise;  // must not be `shield`
  WireActivity left = WireActivity::hold;
  WireActivity right = WireActivity::hold;
  double vdd = 1.2;                  // rail voltage seen by the drivers (V)
  tech::ProcessCorner corner = tech::ProcessCorner::typical;
  double temp_c = 25.0;
};

struct ClusterResult {
  // Victim in-to-out delay (s). Negative when the victim did not switch
  // (hold patterns) or never reached the receiver threshold.
  double delay = -1.0;
  // Rail energy drawn by the victim wire's repeaters during the event (J).
  double victim_energy = 0.0;
  // True when all wires settled to within 5% of a rail by simulation end.
  bool settled = false;
};

class ClusterCharacterizer {
 public:
  ClusterCharacterizer(BusDesign design, tech::DriverModel driver);

  const BusDesign& design() const { return design_; }

  // Run one transient characterization.
  ClusterResult run(const ClusterSpec& spec) const;

  // In-to-out delay for the worst-case pattern (victim rises, both
  // neighbors fall) at the given conditions.
  double worst_case_delay(double vdd, tech::ProcessCorner corner, double temp_c) const;
  // Fastest switching pattern delay (both neighbors rising with the victim).
  double best_case_delay(double vdd, tech::ProcessCorner corner, double temp_c) const;

  // Sections per repeater segment in the distributed RC model.
  static constexpr int kSectionsPerSegment = 3;

 private:
  BusDesign design_;
  tech::DriverModel driver_;
};

// The worst-case switching pattern (victim rises, both neighbors fall) at
// the given conditions: the pattern repeater sizing targets.
ClusterSpec worst_case_spec(double vdd, tech::ProcessCorner corner, double temp_c);

// Runs `spec` on a candidate design: the transient simulation itself, or
// an answer from a store of earlier runs (lut::size_repeaters_from_store).
using ClusterRunner =
    std::function<ClusterResult(const BusDesign& candidate, const ClusterSpec& spec)>;

// Sizes `design.repeater_size` (in place) so that the worst-case in-to-out
// delay equals `design.main_capture_limit()` at the worst-case corner and
// nominal supply (net of the corner's IR drop), reproducing the paper's
// sizing philosophy: a doubling bracket from `lo`, then a bisection, each
// step one `run` of the worst_case_spec on a candidate size. Returns the
// chosen size. Throws std::invalid_argument unless 0 < lo < hi, and
// std::runtime_error if no size in [lo, hi] meets the target.
double size_repeaters(BusDesign& design, const ClusterRunner& run,
                      const tech::PvtCorner& sizing_corner, double lo = 8.0,
                      double hi = 512.0);

// The same sizing, simulating every candidate directly.
double size_repeaters(BusDesign& design, const tech::DriverModel& driver,
                      const tech::PvtCorner& sizing_corner, double lo = 8.0,
                      double hi = 512.0);

}  // namespace razorbus::interconnect

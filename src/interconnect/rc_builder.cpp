#include "interconnect/rc_builder.hpp"

#include <cmath>
#include <stdexcept>
#include <string>
#include <vector>

#include "interconnect/elmore.hpp"
#include "util/units.hpp"

namespace razorbus::interconnect {

namespace {

constexpr double kEventTime = 50e-12;  // first-stage switch time in the run
constexpr double kDt = 1e-12;

// Per-wire bookkeeping produced while building the cluster circuit.
struct BuiltWire {
  std::vector<std::size_t> driver_indices;  // one per repeater stage
  spice::NodeId out_node = spice::kNoNode;  // receiver-end node
  bool starts_low = true;                   // logic value before the event
  std::vector<spice::NodeId> all_nodes;
};

}  // namespace

ClusterCharacterizer::ClusterCharacterizer(BusDesign design, tech::DriverModel driver)
    : design_(std::move(design)), driver_(std::move(driver)) {
  design_.validate();
  if (design_.repeater_size <= 0.0)
    throw std::invalid_argument("ClusterCharacterizer: repeater_size not set");
}

ClusterResult ClusterCharacterizer::run(const ClusterSpec& spec) const {
  if (spec.victim == WireActivity::shield)
    throw std::invalid_argument("cluster: victim cannot be a shield");
  if (!driver_.conducts(spec.corner, spec.temp_c, spec.vdd))
    throw std::domain_error("cluster: drivers do not conduct at this supply");

  const int n_seg = design_.n_segments;
  const int k_sec = kSectionsPerSegment;
  const double r_seg = design_.parasitics.r_per_m * design_.segment_length();
  const double cg_seg = design_.parasitics.cg_per_m * design_.segment_length();
  const double cc_seg = design_.parasitics.cc_per_m * design_.segment_length();
  const double r_drv = driver_.effective_resistance(design_.repeater_size, spec.corner,
                                                    spec.temp_c, spec.vdd);
  const double c_self = driver_.self_capacitance(design_.repeater_size);
  const double c_in = driver_.input_capacitance(design_.repeater_size);
  const double c_rx = driver_.input_capacitance(design_.receiver_size);

  spice::Circuit circuit;
  const spice::NodeId vdd_rail = circuit.add_fixed_node("vdd", spec.vdd);
  const spice::NodeId shield = circuit.add_fixed_node("shield", 0.0);

  // Fraction of segment capacitance attached to each node along a segment:
  // half-section shares at the ends, full sections inside.
  std::vector<double> cap_share(static_cast<std::size_t>(k_sec) + 1);
  for (int i = 0; i <= k_sec; ++i)
    cap_share[static_cast<std::size_t>(i)] =
        (i == 0 || i == k_sec) ? 0.5 / k_sec : 1.0 / k_sec;

  auto build_wire = [&](const std::string& name, WireActivity activity) -> BuiltWire {
    BuiltWire wire;
    const bool starts_low =
        activity != WireActivity::fall && activity != WireActivity::hold_high;
    wire.starts_low = starts_low;

    spice::NodeId prev_seg_end = spice::kNoNode;
    for (int s = 0; s < n_seg; ++s) {
      // Stage driver.
      spice::Driver drv;
      drv.vdd_rail = vdd_rail;
      drv.r_up = r_drv;
      drv.r_dn = r_drv;
      // Wire level at segment s alternates with stage parity.
      const bool seg_high = (s % 2 == 0) ? !starts_low : starts_low;
      drv.initial_up = seg_high;
      if (s == 0) {
        if (switches(activity))
          drv.schedule.push_back({kEventTime, !drv.initial_up});
      } else {
        drv.in = prev_seg_end;
        // Input gate load of this repeater sits on the previous segment end.
        circuit.add_capacitor(prev_seg_end, shield, c_in);
      }

      // Segment RC ladder: node 0 is the driver output.
      std::vector<spice::NodeId> seg_nodes;
      for (int i = 0; i <= k_sec; ++i) {
        seg_nodes.push_back(
            circuit.add_node(name + ".s" + std::to_string(s) + ".n" + std::to_string(i)));
        wire.all_nodes.push_back(seg_nodes.back());
      }
      drv.out = seg_nodes.front();
      wire.driver_indices.push_back(circuit.add_driver(std::move(drv)));
      circuit.add_capacitor(seg_nodes.front(), shield, c_self);

      for (int i = 0; i < k_sec; ++i)
        circuit.add_resistor(seg_nodes[static_cast<std::size_t>(i)],
                             seg_nodes[static_cast<std::size_t>(i) + 1],
                             r_seg / k_sec);
      for (int i = 0; i <= k_sec; ++i)
        circuit.add_capacitor(seg_nodes[static_cast<std::size_t>(i)], shield,
                              cg_seg * cap_share[static_cast<std::size_t>(i)]);
      prev_seg_end = seg_nodes.back();
    }
    circuit.add_capacitor(prev_seg_end, shield, c_rx);
    wire.out_node = prev_seg_end;
    return wire;
  };

  // Couple two built wires (or a wire to the shield when `b` is null).
  auto couple = [&](const BuiltWire& a, const BuiltWire* b) {
    for (std::size_t i = 0; i < a.all_nodes.size(); ++i) {
      const double share = cap_share[i % (static_cast<std::size_t>(k_sec) + 1)];
      const spice::NodeId other = b ? b->all_nodes[i] : shield;
      circuit.add_capacitor(a.all_nodes[i], other, cc_seg * share);
    }
  };

  const BuiltWire victim = build_wire("victim", spec.victim);
  BuiltWire left_wire;
  BuiltWire right_wire;
  const bool left_is_wire = spec.left != WireActivity::shield;
  const bool right_is_wire = spec.right != WireActivity::shield;
  if (left_is_wire) left_wire = build_wire("left", spec.left);
  if (right_is_wire) right_wire = build_wire("right", spec.right);

  couple(victim, left_is_wire ? &left_wire : nullptr);
  couple(victim, right_is_wire ? &right_wire : nullptr);
  // Aggressors' far sides are adjacent to further bus wires; approximating
  // them as quiet (shield-like) keeps the cluster small while preserving
  // the victim's coupling environment.
  if (left_is_wire) couple(left_wire, nullptr);
  if (right_is_wire) couple(right_wire, nullptr);

  // Simulation horizon: generous multiple of the first-order delay estimate.
  const double est = repeated_line_delay(r_drv, c_self, c_in, r_seg,
                                         cg_seg + 4.0 * cc_seg, c_rx, n_seg);
  spice::TransientConfig config;
  config.dt = kDt;
  config.t_stop = std::min(5e-9, std::max(1.0e-9, kEventTime + 3.0 * est));

  spice::TransientSimulator sim(circuit, config);
  const spice::TransientResult result = sim.run();

  ClusterResult out;
  for (const auto di : victim.driver_indices)
    out.victim_energy += result.driver_rail_energy(di);

  if (switches(spec.victim)) {
    // Direction at the receiver: first stage follows the event direction,
    // each further stage inverts.
    const bool out_rises = (spec.victim == WireActivity::rise) == ((n_seg - 1) % 2 == 0);
    const auto cross = out_rises ? result.last_rise_crossing(victim.out_node)
                                 : result.last_fall_crossing(victim.out_node);
    out.delay = cross ? (*cross - kEventTime) : -1.0;
  }

  out.settled = true;
  auto check_settled = [&](const BuiltWire& wire) {
    for (const auto node : wire.all_nodes) {
      const double v = result.final_voltage(node);
      if (v > 0.05 * spec.vdd && v < 0.95 * spec.vdd) out.settled = false;
    }
  };
  check_settled(victim);
  if (left_is_wire) check_settled(left_wire);
  if (right_is_wire) check_settled(right_wire);
  return out;
}

ClusterSpec worst_case_spec(double vdd, tech::ProcessCorner corner, double temp_c) {
  ClusterSpec spec;
  spec.victim = WireActivity::rise;
  spec.left = WireActivity::fall;
  spec.right = WireActivity::fall;
  spec.vdd = vdd;
  spec.corner = corner;
  spec.temp_c = temp_c;
  return spec;
}

double ClusterCharacterizer::worst_case_delay(double vdd, tech::ProcessCorner corner,
                                              double temp_c) const {
  const ClusterResult r = run(worst_case_spec(vdd, corner, temp_c));
  if (r.delay < 0.0) throw std::runtime_error("worst_case_delay: victim never switched");
  return r.delay;
}

double ClusterCharacterizer::best_case_delay(double vdd, tech::ProcessCorner corner,
                                             double temp_c) const {
  ClusterSpec spec = worst_case_spec(vdd, corner, temp_c);
  spec.left = WireActivity::rise;
  spec.right = WireActivity::rise;
  const ClusterResult r = run(spec);
  if (r.delay < 0.0) throw std::runtime_error("best_case_delay: victim never switched");
  return r.delay;
}

double size_repeaters(BusDesign& design, const ClusterRunner& run,
                      const tech::PvtCorner& sizing_corner, double lo, double hi) {
  design.validate();
  // The bracket doubles from lo: lo <= 0 would never grow.
  if (!(lo > 0.0) || !(hi > lo))
    throw std::invalid_argument("size_repeaters: need 0 < lo < hi");
  const double target = design.main_capture_limit();
  const ClusterSpec spec =
      worst_case_spec(sizing_corner.effective_supply(design.node.vdd_nominal),
                      sizing_corner.process, sizing_corner.temp_c);

  auto delay_for = [&](double size) {
    BusDesign candidate = design;
    candidate.repeater_size = size;
    const ClusterResult r = run(candidate, spec);
    if (r.delay < 0.0)
      throw std::runtime_error("size_repeaters: victim never switched");
    return r.delay;
  };

  // Find a bracket [lo_size (too slow), hi_size (fast enough)].
  double lo_size = lo;
  if (delay_for(lo_size) <= target)
    throw std::runtime_error("size_repeaters: minimum size already meets target");
  double hi_size = lo;
  bool bracketed = false;
  while (hi_size < hi) {
    hi_size = std::min(hi, hi_size * 2.0);
    if (delay_for(hi_size) <= target) {
      bracketed = true;
      break;
    }
    lo_size = hi_size;
  }
  if (!bracketed)
    throw std::runtime_error("size_repeaters: no size in range meets the delay target");

  for (int iter = 0; iter < 24 && (hi_size - lo_size) > 0.25; ++iter) {
    const double mid = 0.5 * (lo_size + hi_size);
    if (delay_for(mid) <= target)
      hi_size = mid;
    else
      lo_size = mid;
  }
  design.repeater_size = hi_size;
  return hi_size;
}

double size_repeaters(BusDesign& design, const tech::DriverModel& driver,
                      const tech::PvtCorner& sizing_corner, double lo, double hi) {
  const ClusterRunner simulate = [&driver](const BusDesign& candidate,
                                           const ClusterSpec& spec) {
    return ClusterCharacterizer(candidate, driver).run(spec);
  };
  return size_repeaters(design, simulate, sizing_corner, lo, hi);
}

}  // namespace razorbus::interconnect

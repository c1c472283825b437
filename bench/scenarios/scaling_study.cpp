// Section 6 technology-scaling study: with scaled nodes, wire resistance
// grows while capacitance per length stays roughly flat, so the delay
// spread between worst-case and typical switching patterns widens (the
// R * Cc term of eq. 2 grows) — and with it the energy-gain opportunity of
// error-tolerant DVS. The paper argues the approach "scales well"; this
// bench quantifies that claim on 130 nm / 90 nm / 65 nm buses, each sized
// for its own worst case at the same 1.5 GHz target.
#include <iostream>

#include "scenarios/scenarios.hpp"

namespace razorbus::bench {

Scenario make_scaling_study_scenario() {
  Scenario scenario;
  scenario.name = "scaling_study";
  scenario.description = "DVS opportunity across technology nodes";
  scenario.paper_ref = "Section 6 (technology scaling discussion)";
  scenario.default_cycles = 100000;
  scenario.run = [](ScenarioContext& ctx) {
    const auto traces = suite_traces(ctx.cycles);
    const auto corner = tech::typical_corner();

    Table table({"Node", "R (ohm/mm)", "Cc/Cg", "Repeaters", "Worst/best delay*",
                 "Spread (%)", "Gain 2% @typ (%)"});

    for (const auto* name : {"130nm", "90nm", "65nm"}) {
      std::fprintf(stderr, "[node %s]\n", name);
      const tech::TechnologyNode node = tech::node_by_name(name);

      // Scaled wires are far more resistive, so the same 6 mm needs denser
      // repeater insertion to hold the 600 ps contract — find the smallest
      // repeater count that can meet timing (the classic scaling response).
      interconnect::BusDesign design = interconnect::BusDesign::scaled_bus(node);
      const tech::DriverModel driver(node);
      for (int segments : {4, 6, 8, 10, 12}) {
        design.n_segments = segments;
        design.repeater_size = 0.0;
        try {
          lut::size_repeaters_from_store(design, driver, tech::worst_case_corner());
          break;
        } catch (const std::runtime_error&) {
          if (segments == 12) throw;  // even 12 repeaters cannot make timing
        }
      }
      const core::DvsBusSystem system(design, options_with_progress(name));

      const double vnom = system.design().node.vdd_nominal;
      const tech::PvtCorner eval{corner.process, corner.temp_c, corner.ir_drop_fraction};
      const double worst = system.nominal_worst_delay(eval);
      const int best_cls = lut::PatternClass::encode(
          lut::VictimActivity::rise, lut::NeighborActivity::rise,
          lut::NeighborActivity::rise);
      const double best = system.table().delay(best_cls, eval.process, eval.temp_c, vnom);

      const auto gains = core::gains_for_targets(
          core::static_voltage_sweep(system, eval, traces), {0.02});

      table.row()
          .add(name)
          .add(system.design().parasitics.r_per_m / 1e3, 1)
          .add(system.design().parasitics.cc_to_cg_ratio(), 2)
          .add(static_cast<long long>(system.design().n_segments))
          .add(format_fixed(to_ps(worst), 0) + " / " + format_fixed(to_ps(best), 0) +
               " ps")
          .add(100.0 * (worst - best) / worst, 1)
          .add(100.0 * gains[0].energy_gain, 1);
      ctx.metric(std::string(name) + "_gain_2pct", gains[0].energy_gain);
      ctx.metric(std::string(name) + "_delay_spread", (worst - best) / worst);
    }
    ctx.table("scaling", table);
    std::printf("* at each node's own nominal supply\n");

    std::printf(
        "\nExpected shape (paper): resistance per length grows with scaling while\n"
        "capacitance stays roughly flat, so the worst-vs-typical delay spread\n"
        "widens and the achievable gains do not degrade - the approach scales\n"
        "favourably with technology.\n");
  };
  return scenario;
}

}  // namespace razorbus::bench

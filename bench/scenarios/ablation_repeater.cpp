// Ablation: repeater sizing vs DVS opportunity.
//
// The paper sizes repeaters purely for the worst-case delay target (600 ps)
// and cites power-optimal repeater methodologies ([3],[4]) as orthogonal.
// This bench quantifies the interaction: undersized repeaters burn less
// repeater cap but leave no timing slack to convert into voltage; oversized
// ones are faster but pay gate capacitance on every transition. For each
// sizing (relative to the paper's delay-sized value) we report the
// worst-case delay, the per-cycle energy at nominal, and the closed-loop
// DVS gain — when the design still meets the 600 ps worst-case contract.
#include <iostream>

#include "scenarios/scenarios.hpp"

namespace razorbus::bench {

Scenario make_ablation_repeater_scenario() {
  Scenario scenario;
  scenario.name = "ablation_repeater";
  scenario.description = "repeater sizing vs the DVS opportunity";
  scenario.paper_ref = "sizing philosophy of Section 3 (related work [3],[4])";
  scenario.default_cycles = 300000;
  scenario.run = [](ScenarioContext& ctx) {
    const double nominal_size = paper_system().design().repeater_size;
    // The reference pass reads the words and every sizing replays them, so
    // the benchmark is captured once.
    const trace::Trace workload = cpu::benchmark_by_name("vortex").capture(ctx.cycles);
    const auto corner = tech::typical_corner();
    const auto worst = tech::worst_case_corner();

    Table table({"Size (x delay-opt)", "Repeater size", "Worst delay @WC (ps)",
                 "Meets 600ps", "E/cycle @nom (pJ)", "DVS gain (%)"});

    for (const double mult : {0.6, 0.8, 1.0, 1.4}) {
      interconnect::BusDesign design = interconnect::BusDesign::paper_bus();
      design.repeater_size = nominal_size * mult;
      char label[32];
      std::snprintf(label, sizeof(label), "repeaters x%.1f", mult);
      const core::DvsBusSystem system(design, options_with_progress(label));

      const double wc_delay = system.nominal_worst_delay(worst);
      const bool meets = wc_delay <= design.main_capture_limit() * 1.001;

      // Per-cycle energy at the nominal supply on the reference bus.
      const auto ref = bus::BusSimulator::run_reference(system.design(), system.table(),
                                                        corner, workload.words);
      const double e_cycle = ref.bus_energy / static_cast<double>(ref.cycles);

      double gain = 0.0;
      if (meets) {
        const auto dvs = core::run_closed_loop_streamed(
            system, corner, *trace::make_trace_view_source(workload));
        gain = dvs.energy_gain();
        ctx.metric("gain_x" + format_fixed(mult, 1), gain);
      }

      table.row()
          .add(mult, 1)
          .add(design.repeater_size, 1)
          .add(to_ps(wc_delay), 0)
          .add(meets ? "yes" : "NO")
          .add(to_pJ(e_cycle), 2)
          .add(meets ? format_fixed(100.0 * gain, 1) : "n/a");
    }
    ctx.table("repeater_sizing", table);

    std::printf(
        "\nReading the table: the paper's delay-sized repeaters (x1.0) are the\n"
        "smallest that meet the worst-case contract; oversizing buys little\n"
        "extra DVS headroom but pays gate capacitance on every switch, while\n"
        "undersizing violates the 600 ps design contract outright.\n");
  };
  return scenario;
}

}  // namespace razorbus::bench

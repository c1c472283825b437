// Fig. 4: normalized energy and error rate vs statically scaled supply,
// for (a) slow process / 100C / 10% IR drop and (b) typical process / 100C /
// no IR drop, with all 10 benchmarks combined.
#include <iostream>

#include "scenarios/scenarios.hpp"

namespace razorbus::bench {

namespace {

void sweep_for(ScenarioContext& ctx, const tech::PvtCorner& corner,
               const trace::TraceSource& suite) {
  const core::StaticSweepResult sweep =
      core::static_voltage_sweep_streamed(paper_system(), corner, suite);

  std::printf("\nPVT corner: %s  (shadow-safe floor %.0f mV)\n", corner.name().c_str(),
              to_mV(sweep.floor_supply));
  Table table({"Supply (mV)", "Error Rate (%)", "Bus Energy (norm)",
               "Bus+Recovery (norm)"});
  for (auto it = sweep.points.rbegin(); it != sweep.points.rend(); ++it) {
    table.row()
        .add(to_mV(it->supply), 0)
        .add(100.0 * it->error_rate, 2)
        .add(it->norm_bus_energy, 3)
        .add(it->norm_total_energy, 3);
  }
  ctx.table(corner.name(), table);
  ctx.metric(corner.name() + "_floor_mV", to_mV(sweep.floor_supply));
  ctx.metric(corner.name() + "_norm_energy_at_floor",
             sweep.points.front().norm_total_energy);
}

}  // namespace

Scenario make_fig4_voltage_sweep_scenario() {
  Scenario scenario;
  scenario.name = "fig4_voltage_sweep";
  scenario.description = "energy & error rate vs scaled supply";
  scenario.paper_ref = "Fig. 4(a) and 4(b)";
  scenario.default_cycles = 200000;
  scenario.run = [](ScenarioContext& ctx) {
    std::printf("Combined trace: 10 benchmarks x %zu cycles "
                "(paper: 10M each; raise with --cycles=N)\n", ctx.cycles);

    const auto suite = trace::concatenate_sources(suite_sources(ctx.cycles), "suite");
    sweep_for(ctx, tech::worst_case_corner(), *suite);  // Fig. 4(a)
    sweep_for(ctx, tech::typical_corner(), *suite);     // Fig. 4(b)

    std::printf(
        "\nExpected shape (paper): at the worst corner errors appear immediately\n"
        "below 1200 mV; at the typical corner the bus is error-free down to\n"
        "~980 mV; energy falls roughly quadratically; the recovery overhead\n"
        "curve sits just above the bus energy curve.\n");
  };
  return scenario;
}

}  // namespace razorbus::bench

// Table 1: per-benchmark energy gains of fixed voltage scaling (error-free,
// process-corner-aware only) vs the proposed closed-loop DVS scheme, at the
// worst-case corner (slow, 100C, 10% IR) and the typical corner (typical,
// 100C, no IR).
#include <iostream>

#include "scenarios/scenarios.hpp"

namespace razorbus::bench {

namespace {

void table_for(ScenarioContext& ctx, const tech::PvtCorner& corner,
               const std::vector<std::unique_ptr<trace::TraceSource>>& sources) {
  const double fixed_supply = paper_system().fixed_vs_supply(corner.process);
  std::printf("\nPVT corner: %s\n", corner.name().c_str());
  std::printf("Fixed VS supply: %.0f mV, DVS floor: %.0f mV\n", to_mV(fixed_supply),
              to_mV(paper_system().dvs_floor(corner.process)));

  Table table({"Benchmark", "Fixed VS gain (%)", "DVS gain (%)", "DVS avg err (%)",
               "DVS avg V (mV)"});
  double fixed_total_base = 0.0, fixed_total = 0.0;
  double dvs_total_base = 0.0, dvs_total = 0.0;
  std::uint64_t total_errors = 0, total_cycles = 0;

  // One independent closed-loop run per benchmark: sharded across the
  // executor (one simulator per trace), reports back in Table 1 order.
  std::fprintf(stderr, "[running %zu benchmarks @ %s]\n", sources.size(),
               corner.name().c_str());
  const std::vector<core::DvsRunReport> fixed_reports =
      core::run_fixed_vs_suite_streamed(paper_system(), corner, sources);
  const std::vector<core::DvsRunReport> dvs_reports =
      core::run_closed_loop_suite_streamed(paper_system(), corner, sources);

  for (std::size_t t = 0; t < sources.size(); ++t) {
    const core::DvsRunReport& fixed = fixed_reports[t];
    const core::DvsRunReport& dvs = dvs_reports[t];

    table.row()
        .add(sources[t]->name())
        .add(100.0 * fixed.energy_gain(), 1)
        .add(100.0 * dvs.energy_gain(), 1)
        .add(100.0 * dvs.error_rate(), 2)
        .add(to_mV(dvs.average_supply), 0);

    fixed_total_base += fixed.baseline_bus_energy;
    fixed_total += fixed.totals.total_energy();
    dvs_total_base += dvs.baseline_bus_energy;
    dvs_total += dvs.totals.total_energy();
    total_errors += dvs.totals.errors;
    total_cycles += dvs.totals.cycles;
  }
  const double fixed_gain = 1.0 - fixed_total / fixed_total_base;
  const double dvs_gain = 1.0 - dvs_total / dvs_total_base;
  table.row()
      .add("Total")
      .add(100.0 * fixed_gain, 1)
      .add(100.0 * dvs_gain, 1)
      .add(100.0 * static_cast<double>(total_errors) /
               static_cast<double>(total_cycles),
           2)
      .add("-");
  ctx.table(corner.name(), table);
  ctx.metric(corner.name() + "_fixed_vs_gain", fixed_gain);
  ctx.metric(corner.name() + "_dvs_gain", dvs_gain);
}

}  // namespace

Scenario make_table1_dvs_gains_scenario() {
  Scenario scenario;
  scenario.name = "table1_dvs_gains";
  scenario.description = "fixed VS vs proposed DVS per benchmark";
  scenario.paper_ref = "Table 1";
  scenario.default_cycles = 1000000;
  scenario.run = [](ScenarioContext& ctx) {
    std::printf(
        "Cycles per benchmark: %zu (paper: 10M; raise with --cycles=N).\n"
        "DVS starts at the nominal 1.2 V, so short runs under-report its\n"
        "steady-state gain (the descent transient is amortised in longer runs).\n",
        ctx.cycles);
    const auto sources = suite_sources(ctx.cycles);
    table_for(ctx, tech::worst_case_corner(), sources);
    table_for(ctx, tech::typical_corner(), sources);

    std::printf(
        "\nExpected shape (paper): worst corner - fixed VS gains exactly 0,\n"
        "DVS gains ~1-17%% depending on program activity; typical corner -\n"
        "fixed VS ~17%% uniformly, DVS 35-45%%; average error rates ~2%%.\n");
  };
  return scenario;
}

}  // namespace razorbus::bench

// Fig. 8: supply voltage and instantaneous (10k-cycle window) error rate
// while the 10 benchmarks run back to back under the closed-loop DVS
// controller at the typical corner (typical process, 100C, no IR drop).
#include <algorithm>
#include <iostream>

#include "scenarios/scenarios.hpp"

namespace razorbus::bench {

Scenario make_fig8_dvs_trace_scenario() {
  Scenario scenario;
  scenario.name = "fig8_dvs_trace";
  scenario.description = "closed-loop supply & error-rate time series";
  scenario.paper_ref = "Fig. 8";
  scenario.default_cycles = 1000000;
  scenario.extra_flags = {"max_rows"};
  scenario.run = [](ScenarioContext& ctx) {
    const auto max_rows = static_cast<std::size_t>(ctx.flags().get_int("max_rows", 120));
    std::printf("Cycles per benchmark: %zu (paper: 10M; raise with --cycles=N)\n",
                ctx.cycles);

    const auto corner = tech::typical_corner();
    const auto sources = suite_sources(ctx.cycles);

    core::DvsRunConfig cfg;
    cfg.record_series = true;
    const core::ConsecutiveRunReport report =
        core::run_consecutive_streamed(paper_system(), corner, sources, cfg);

    // Per-program summary (regions 1..10 of the figure).
    Table summary({"#", "Benchmark", "Avg V (mV)", "Avg err (%)", "Gain (%)"});
    for (std::size_t i = 0; i < sources.size(); ++i) {
      const auto& r = report.per_trace[i];
      summary.row()
          .add(static_cast<long long>(i + 1))
          .add(sources[i]->name())
          .add(to_mV(r.average_supply), 0)
          .add(100.0 * r.totals.error_rate(), 2)
          .add(100.0 * r.energy_gain(), 1);
      ctx.metric(sources[i]->name() + "_gain", r.energy_gain());
    }
    ctx.table("per_program", summary);

    // Subsampled window series.
    std::printf(
        "\nWindow series (subsampled to <= %zu rows; full series has %zu windows):\n",
        max_rows, report.series.size());
    Table series({"Cycle (k)", "Supply (mV)", "Window err (%)"});
    const std::size_t stride = std::max<std::size_t>(1, report.series.size() / max_rows);
    double max_window = 0.0;
    for (std::size_t i = 0; i < report.series.size(); ++i) {
      max_window = std::max(max_window, report.series[i].error_rate);
      if (i % stride) continue;
      const auto& s = report.series[i];
      series.row()
          .add(static_cast<double>(s.end_cycle) / 1000.0, 0)
          .add(to_mV(s.supply), 0)
          .add(100.0 * s.error_rate, 2);
    }
    ctx.table("window_series", series);
    ctx.metric("peak_window_error_rate", max_window);
    std::printf("\nPeak instantaneous (10k-window) error rate: %.2f%%\n",
                100.0 * max_window);

    std::printf(
        "\nExpected shape (paper): the supply descends from 1.2 V, settles at a\n"
        "program-specific level, and visibly re-adapts at program boundaries;\n"
        "per-program average error rates stay ~<=2%% while instantaneous rates\n"
        "can spike to ~6%% because of the regulator ramp delay.\n");
  };
  return scenario;
}

}  // namespace razorbus::bench

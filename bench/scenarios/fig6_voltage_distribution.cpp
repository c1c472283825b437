// Fig. 6: with oracle (future-knowledge) voltage selection at a fixed
// target error rate, the % of execution time spent at each supply voltage
// for crafty, vortex and mgrid (typical process, 100C, no IR drop).
#include <array>
#include <iostream>
#include <map>

#include "scenarios/scenarios.hpp"

namespace razorbus::bench {

Scenario make_fig6_voltage_distribution_scenario() {
  Scenario scenario;
  scenario.name = "fig6_voltage_distribution";
  scenario.description = "oracle supply distribution per program";
  scenario.paper_ref = "Fig. 6";
  scenario.default_cycles = 1000000;
  scenario.run = [](ScenarioContext& ctx) {
    const auto corner = tech::typical_corner();

    for (const double target : {0.02, 0.05}) {
      std::printf("\nTarget error rate <= %.0f%%  (%s)\n", 100.0 * target,
                  corner.name().c_str());
      Table table({"Supply (mV)", "crafty (%)", "vortex (%)", "mgrid (%)"});

      // Collect distributions, then join on voltage.
      std::map<double, std::array<double, 3>> rows;
      const char* names[3] = {"crafty", "vortex", "mgrid"};
      std::array<double, 3> achieved{};
      for (int p = 0; p < 3; ++p) {
        const core::VoltageDistribution d = core::oracle_voltage_distribution(
            paper_system(), corner, *cpu::benchmark_by_name(names[p]).stream(ctx.cycles),
            target);
        achieved[static_cast<std::size_t>(p)] = d.achieved_error_rate;
        for (const auto& [v, frac] : d.time_at_voltage)
          rows[v][static_cast<std::size_t>(p)] = 100.0 * frac;
      }
      for (const auto& [v, fractions] : rows) {
        table.row().add(to_mV(v), 0);
        for (const double f : fractions) table.add(f, 1);
      }
      const std::string label = "target_" + format_fixed(100.0 * target, 0) + "pct";
      ctx.table(label, table);
      for (int p = 0; p < 3; ++p)
        ctx.metric(label + "_" + names[p] + "_err",
                   achieved[static_cast<std::size_t>(p)]);
      std::printf("Achieved error rates: crafty %.2f%%, vortex %.2f%%, mgrid %.2f%%\n",
                  100.0 * achieved[0], 100.0 * achieved[1], 100.0 * achieved[2]);
    }

    std::printf(
        "\nExpected shape (paper): at 2%% crafty spends most of its time near\n"
        "900 mV while mgrid cannot drop below ~980 mV even at a 5%% target;\n"
        "vortex falls in between.\n");
  };
  return scenario;
}

}  // namespace razorbus::bench

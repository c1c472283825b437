// Fig. 10 / Section 6: the modified interconnect architecture (Cc/Cg ratio
// x1.95 at constant wire R and constant worst-case load). The worst-case
// delay — and hence the 0%-error curve — is unchanged; the 2% and 5% curves
// gain, and the closed-loop DVS average gain at the worst corner improves
// (paper: 6.3% -> 8.2%).
#include <iostream>
#include <stdexcept>
#include <string>

#include "scenarios/scenarios.hpp"
#include "util/parallel.hpp"

namespace razorbus::bench {

Scenario make_fig10_modified_bus_scenario() {
  Scenario scenario;
  scenario.name = "fig10_modified_bus";
  scenario.description = "interconnect architecture study";
  scenario.paper_ref = "Fig. 10 + Sec. 6";
  scenario.default_cycles = 100000;
  scenario.extra_flags = {"dvs_cycles", "ratio"};
  scenario.run = [](ScenarioContext& ctx) {
    // Checked like --cycles: a streamed suite would run a wrapped negative
    // budget (about 2^64 cycles) effectively forever.
    const std::int64_t dvs_flag = ctx.flags().get_int("dvs_cycles", 500000);
    if (dvs_flag < 1)
      throw std::invalid_argument("--dvs_cycles must be >= 1, got " +
                                  std::to_string(dvs_flag));
    const auto dvs_cycles = static_cast<std::size_t>(dvs_flag);
    const double ratio = ctx.flags().get_double("ratio", 1.95);

    static const core::DvsBusSystem modified(interconnect::BusDesign::modified_bus(ratio),
                                             options_with_progress("modified bus"));
    std::printf(
        "Original bus Cc/Cg: %.2f; modified: %.2f (x%.2f), worst-case load held\n",
        paper_system().design().parasitics.cc_to_cg_ratio(),
        modified.design().parasitics.cc_to_cg_ratio(), ratio);

    const auto suite = trace::concatenate_sources(suite_sources(ctx.cycles), "suite");
    const auto corners = tech::fig5_corners();
    const core::DvsBusSystem* designs[2] = {&paper_system(), &modified};

    // Every (corner, design) sweep is an independent pass over the streamed
    // suite, so they run one per shard, each draining its own clone of the
    // suite; the results do not depend on the thread count (DESIGN.md §9).
    const auto gains = util::parallel_map(
        util::global_pool(), 2 * corners.size(), [&](std::size_t s) {
          const auto sweep = core::static_voltage_sweep_streamed(
              *designs[s % 2], corners[s / 2], *suite);
          return core::gains_for_targets(sweep, {0.0, 0.02, 0.05});
        });

    Table table({"PVT corner", "Delay@1.2V orig/mod (ps)", "Gain 0%: orig/mod (%)",
                 "Gain 2%: orig/mod (%)", "Gain 5%: orig/mod (%)"});
    for (std::size_t c = 0; c < corners.size(); ++c) {
      const auto& corner = corners[c];
      const auto& orig = gains[2 * c];
      const auto& mod = gains[2 * c + 1];
      auto pair = [](double a, double b) {
        return format_fixed(100.0 * a, 1) + " / " + format_fixed(100.0 * b, 1);
      };
      table.row()
          .add(corner.name())
          .add(format_fixed(to_ps(paper_system().nominal_worst_delay(corner)), 0) +
               " / " + format_fixed(to_ps(modified.nominal_worst_delay(corner)), 0))
          .add(pair(orig[0].energy_gain, mod[0].energy_gain))
          .add(pair(orig[1].energy_gain, mod[1].energy_gain))
          .add(pair(orig[2].energy_gain, mod[2].energy_gain));
    }
    ctx.table("static_gains", table);

    // Section 6 closed-loop claim at the worst corner.
    std::printf("\nClosed-loop DVS at the worst corner (%zu cycles/benchmark):\n",
                dvs_cycles);
    const auto corner = tech::worst_case_corner();
    const auto dvs_sources = suite_sources(dvs_cycles);
    const auto orig_reports =
        core::run_closed_loop_suite_streamed(paper_system(), corner, dvs_sources);
    const auto mod_reports =
        core::run_closed_loop_suite_streamed(modified, corner, dvs_sources);
    double orig_base = 0.0, orig_tot = 0.0, mod_base = 0.0, mod_tot = 0.0;
    for (std::size_t t = 0; t < dvs_sources.size(); ++t) {
      orig_base += orig_reports[t].baseline_bus_energy;
      orig_tot += orig_reports[t].totals.total_energy();
      mod_base += mod_reports[t].baseline_bus_energy;
      mod_tot += mod_reports[t].totals.total_energy();
    }
    const double orig_gain = 1.0 - orig_tot / orig_base;
    const double mod_gain = 1.0 - mod_tot / mod_base;
    ctx.metric("worst_corner_dvs_gain_original", orig_gain);
    ctx.metric("worst_corner_dvs_gain_modified", mod_gain);
    std::printf("Average DVS gain: original %.1f%%, modified %.1f%%\n", 100.0 * orig_gain,
                100.0 * mod_gain);

    std::printf(
        "\nExpected shape (paper): the 0%% column is unchanged (worst-case delay\n"
        "held constant); 2%%/5%% columns slightly higher for the modified bus;\n"
        "worst-corner closed-loop average gain improves (paper: 6.3%% -> 8.2%%).\n");
  };
  return scenario;
}

}  // namespace razorbus::bench

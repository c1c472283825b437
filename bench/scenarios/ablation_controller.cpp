// Ablations of the design choices called out in DESIGN.md section 6:
//   (a) controller error-rate band and window size (paper: [1%, 2%], 10k),
//   (b) regulator ramp delay (paper: 2 us = 3000 cycles),
//   (c) shadow clock delay budget (paper: 33% of the cycle), which sets the
//       regulator's safe floor through the shadow-latch constraint.
#include <iostream>

#include "dvs/fixed_vs.hpp"
#include "scenarios/scenarios.hpp"

namespace razorbus::bench {

namespace {

struct LoopResult {
  double gain;
  double err;
  double avg_v;
};

LoopResult run(const trace::Trace& trace, const core::DvsRunConfig& cfg) {
  const auto r =
      core::run_closed_loop(paper_system(), tech::typical_corner(), trace, cfg);
  return {100.0 * r.energy_gain(), 100.0 * r.error_rate(), to_mV(r.average_supply)};
}

}  // namespace

Scenario make_ablation_controller_scenario() {
  Scenario scenario;
  scenario.name = "ablation_controller";
  scenario.description = "controller/regulator/shadow-delay ablations";
  scenario.paper_ref = "design-choice ablations (DESIGN.md section 6)";
  scenario.default_cycles = 600000;
  scenario.run = [](ScenarioContext& ctx) {
    // A single mid-activity benchmark keeps the comparison legible.
    const trace::Trace trace = cpu::benchmark_by_name("vortex").capture(ctx.cycles);
    std::printf("Workload: vortex, %zu cycles, %s\n", ctx.cycles,
                tech::typical_corner().name().c_str());

    // (a) Controller band / window.
    {
      Table table({"Band (low-high %)", "Window (cycles)", "Gain (%)", "Err (%)",
                   "Avg V (mV)"});
      struct Case {
        double lo, hi;
        std::uint64_t window;
      };
      for (const Case& c : {Case{0.01, 0.02, 10000},   // paper default
                            Case{0.005, 0.01, 10000},  // tighter band
                            Case{0.02, 0.05, 10000},   // looser band
                            Case{0.01, 0.02, 2000},    // short window: noisy estimate
                            Case{0.01, 0.02, 50000}}) {  // slow reaction
        core::DvsRunConfig cfg;
        cfg.controller.low_threshold = c.lo;
        cfg.controller.high_threshold = c.hi;
        cfg.controller.window_cycles = c.window;
        const LoopResult r = run(trace, cfg);
        table.row()
            .add(format_fixed(100.0 * c.lo, 1) + "-" + format_fixed(100.0 * c.hi, 1))
            .add(static_cast<long long>(c.window))
            .add(r.gain, 1)
            .add(r.err, 2)
            .add(r.avg_v, 0);
      }
      std::printf("\n(a) Controller error-rate band and window:\n");
      ctx.table("controller_band", table);
    }

    // (b) Regulator ramp delay.
    {
      Table table({"Ramp delay (cycles)", "Gain (%)", "Err (%)", "Avg V (mV)"});
      for (const std::uint64_t delay : {0ull, 3000ull, 15000ull, 60000ull}) {
        core::DvsRunConfig cfg;
        cfg.regulator_delay_cycles = delay;
        const LoopResult r = run(trace, cfg);
        table.row()
            .add(static_cast<long long>(delay))
            .add(r.gain, 1)
            .add(r.err, 2)
            .add(r.avg_v, 0);
      }
      std::printf("\n(b) Regulator ramp delay (paper: 3000 cycles = 2 us):\n");
      ctx.table("regulator_ramp", table);
    }

    // (c) Shadow clock delay budget: a smaller delayed-clock budget raises the
    // shadow-safe floor (less recoverable slack); a larger one deepens it but
    // tightens the short-path constraint. Report the resulting floors.
    {
      Table table({"Shadow delay (% of cycle)", "DVS floor (mV)", "Fixed VS (mV)",
                   "Min-path limit (ps)"});
      for (const double frac : {0.20, 1.0 / 3.0, 0.40}) {
        interconnect::BusDesign design = paper_system().design();
        design.shadow_delay_fraction = frac;
        const double floor = dvs::dvs_floor_voltage(design, paper_system().table(),
                                                    tech::ProcessCorner::typical);
        const double fixed = dvs::fixed_vs_voltage(design, paper_system().table(),
                                                   tech::ProcessCorner::typical);
        table.row()
            .add(100.0 * frac, 0)
            .add(to_mV(floor), 0)
            .add(to_mV(fixed), 0)
            .add(to_ps(frac * design.clock_period()), 0);
      }
      std::printf("\n(c) Shadow clock delay budget vs regulator floor:\n");
      ctx.table("shadow_delay", table);
      std::printf("Paper: 33%% was the most that still met the short-path (hold)\n"
                  "constraint on this bus; the floor deepens with the budget.\n");
    }

    // (d) Threshold controller vs the proportional controller the paper
    // discusses and rejects: is the added mechanism worth it?
    {
      Table table({"Controller", "Gain (%)", "Err (%)", "Avg V (mV)"});
      {
        const LoopResult r = run(trace, core::DvsRunConfig{});
        table.row()
            .add("threshold [1%,2%] (paper)")
            .add(r.gain, 1)
            .add(r.err, 2)
            .add(r.avg_v, 0);
        ctx.metric("threshold_gain", r.gain / 100.0);
      }
      for (const double gain : {1.0, 2.0, 6.0}) {
        core::DvsRunConfig cfg;
        cfg.proportional.emplace().gain = gain;
        const LoopResult r = run(trace, cfg);
        table.row()
            .add("proportional, k=" + format_fixed(gain, 1))
            .add(r.gain, 1)
            .add(r.err, 2)
            .add(r.avg_v, 0);
      }
      std::printf(
          "\n(d) Threshold vs proportional control (paper Section 5 argument):\n");
      ctx.table("controller_kind", table);
      std::printf("The proportional gains depend on a constant that cannot be derived\n"
                  "(the transfer function is non-linear and program-dependent); the\n"
                  "simple threshold scheme matches it without that tuning burden.\n");
    }
  };
  return scenario;
}

}  // namespace razorbus::bench

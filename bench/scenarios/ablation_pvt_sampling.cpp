// Ablation / extension: Monte-Carlo PVT sampling.
//
// The paper treats process, temperature and IR drop as independent worst
// cases and notes that "incorporating such dependencies would involve
// complex models". As an extension we sample a population of operating
// conditions (discrete process corner, continuous temperature and IR drop)
// and report the distribution of closed-loop DVS gains — the expected
// energy saving for a part drawn at random, rather than at hand-picked
// corners. The sampling itself lives in core::pvt_sample_gains_streamed,
// sharded one sample per shard with a per-sample Rng stream (DESIGN.md §9),
// so the population is identical at any --threads=N.
#include <iostream>

#include "scenarios/scenarios.hpp"
#include "util/stats.hpp"

namespace razorbus::bench {

Scenario make_ablation_pvt_sampling_scenario() {
  Scenario scenario;
  scenario.name = "ablation_pvt_sampling";
  scenario.description = "DVS gain distribution over random PVT";
  scenario.paper_ref = "extension of Section 4 (the paper sweeps corners only)";
  scenario.default_cycles = 300000;
  scenario.extra_flags = {"samples", "seed"};
  scenario.run = [](ScenarioContext& ctx) {
    core::PvtSampleConfig config;
    config.samples = static_cast<int>(ctx.flags().get_int("samples", 24));
    config.seed = static_cast<std::uint64_t>(ctx.flags().get_int("seed", 2025));

    // Every sample replays the same benchmark, so it is captured once and
    // served through a view.
    const trace::Trace trace = cpu::benchmark_by_name("vortex").capture(ctx.cycles);
    std::printf("Workload: vortex, %zu cycles, %d sampled operating points\n", ctx.cycles,
                config.samples);

    const core::PvtSampleResult result = core::pvt_sample_gains_streamed(
        paper_system(), *trace::make_trace_view_source(trace), config);

    Histogram gain_hist(0.0, 0.6, 12);
    Table table({"#", "Process", "Temp (C)", "IR drop (%)", "Gain (%)", "Err (%)"});
    for (std::size_t s = 0; s < result.samples.size(); ++s) {
      const core::PvtSample& sample = result.samples[s];
      gain_hist.add(sample.report.energy_gain());
      table.row()
          .add(static_cast<long long>(s + 1))
          .add(tech::to_string(sample.corner.process))
          .add(sample.corner.temp_c, 0)
          .add(100.0 * sample.corner.ir_drop_fraction, 1)
          .add(100.0 * sample.report.energy_gain(), 1)
          .add(100.0 * sample.report.error_rate(), 2);
    }
    ctx.table("samples", table);
    ctx.metric("gain_mean", result.gain_stats.mean());
    ctx.metric("gain_stddev", result.gain_stats.stddev());
    ctx.metric("gain_min", result.gain_stats.min());
    ctx.metric("gain_max", result.gain_stats.max());
    ctx.metric("err_mean", result.err_stats.mean());

    std::printf(
        "\nGain distribution: mean %.1f%%, stddev %.1f%%, min %.1f%%, max %.1f%%\n",
        100.0 * result.gain_stats.mean(), 100.0 * result.gain_stats.stddev(),
        100.0 * result.gain_stats.min(), 100.0 * result.gain_stats.max());
    std::printf("Average error rate across samples: %.2f%%\n",
                100.0 * result.err_stats.mean());
    std::printf("\nHistogram (gain bucket -> share of samples):\n");
    for (std::size_t b = 0; b < gain_hist.bins(); ++b) {
      // razorlint: allow(float-eq): bucket counts are sums of exact 1.0
      // increments, so "empty bucket" is an exact 0.0.
      if (gain_hist.count(b) == 0.0) continue;
      std::printf("  %4.0f-%4.0f%% : %5.1f%%\n", 100.0 * gain_hist.bin_lo(b),
                  100.0 * gain_hist.bin_hi(b), 100.0 * gain_hist.fraction(b));
    }
    std::printf(
        "\nReading the output: every sampled part saves energy (the controller\n"
        "adapts), with most of the population well above the worst-corner\n"
        "result — the expected-case argument for error-tolerant DVS.\n");
  };
  return scenario;
}

}  // namespace razorbus::bench

// Trace tooling walkthrough: capture, SimPoint reduction, file round-trip,
// and the streaming pipeline.
//
// The paper evaluates 10M-instruction SimPoint windows of SPEC2000. This
// example shows the equivalent workflow in this library: capture a long
// trace from a benchmark kernel, select representative windows, verify that
// an experiment on the reduced trace approximates the full result, and
// save/reload the trace from disk.
//
//   $ ./examples/trace_tools --benchmark=mgrid --cycles=800000
//
// --stream switches to the streaming demonstration (DESIGN.md §12,
// docs/architecture.md): a closed-loop DVS run over a synthetic stream of
// --stream_cycles cycles (default 10^8 — materialized, that trace would be
// ~1.6 GB) executed through one --block-word buffer, with the block
// accounting printed at the end:
//
//   $ ./examples/trace_tools --stream --stream_cycles=100000000
#include <cstdio>
#include <filesystem>

#include "core/experiments.hpp"
#include "core/system.hpp"
#include "cpu/kernels.hpp"
#include "cpu/simpoint.hpp"
#include "trace/io.hpp"
#include "trace/source.hpp"
#include "trace/synthetic.hpp"
#include "util/cli.hpp"
#include "util/units.hpp"

namespace {

// A 10^8-cycle closed-loop scenario at bounded memory: the trace is never
// materialized — the generator state (an Rng and the previous word) and
// one block buffer are all that exists, however many cycles stream.
int run_streaming_demo(const razorbus::CliFlags& flags) {
  using namespace razorbus;

  trace::SyntheticConfig cfg;
  cfg.style = trace::synthetic_style_from_string(flags.get("style", "uniform"));
  cfg.cycles = static_cast<std::size_t>(flags.get_int("stream_cycles", 100000000));
  cfg.seed = static_cast<std::uint64_t>(flags.get_int("seed", 24101));
  const auto block = static_cast<std::size_t>(
      flags.get_int("block", static_cast<std::int64_t>(trace::kDefaultBlockCycles)));
  flags.reject_unused();

  const auto source = trace::make_synthetic_source(cfg, trace::to_string(cfg.style));
  std::printf("streaming %zu cycles of '%s' traffic through a %zu-word buffer\n",
              cfg.cycles, source->name().c_str(), block);
  std::printf("  materialized, this trace would hold %.2f GiB of BusWords;\n",
              static_cast<double>(cfg.cycles) * sizeof(razorbus::BusWord) /
                  (1024.0 * 1024.0 * 1024.0));
  std::printf("  streamed, trace memory is %.2f MiB, independent of length\n\n",
              static_cast<double>(block) * sizeof(razorbus::BusWord) /
                  (1024.0 * 1024.0));

  core::DvsBusSystem system(interconnect::BusDesign::paper_bus());
  const auto corner = tech::typical_corner();
  core::DvsRunConfig run_cfg;
  run_cfg.start_supply = system.dvs_floor(corner.process) + 0.1;  // skip the descent

  core::StreamStats stats;
  const core::DvsRunReport report = core::run_closed_loop_streamed(
      system, corner, *source, run_cfg, core::StreamConfig{block}, &stats);

  std::printf("closed-loop DVS over the stream:\n");
  std::printf("  energy gain  %.1f%%  (error rate %.2f%%)\n",
              100.0 * report.energy_gain(), 100.0 * report.error_rate());
  std::printf("  avg supply   %.0f mV (floor %.0f mV)\n", to_mV(report.average_supply),
              to_mV(report.floor_supply));
  std::printf("block accounting (the BENCH_*.json stream_* metrics):\n");
  std::printf("  cycles streamed    %llu\n",
              static_cast<unsigned long long>(stats.cycles));
  std::printf("  blocks pulled      %llu\n",
              static_cast<unsigned long long>(stats.blocks));
  std::printf("  peak trace buffer  %zu words (%.2f MiB)\n", stats.peak_buffer_words,
              static_cast<double>(stats.peak_buffer_words) *
                  sizeof(razorbus::BusWord) / (1024.0 * 1024.0));
  if (stats.peak_buffer_words > block) {
    std::fprintf(stderr, "FAIL: trace buffer exceeded the configured block\n");
    return 1;
  }
  return 0;
}

int run(const razorbus::CliFlags& flags) {
  using namespace razorbus;

  if (flags.get_bool("stream", false)) return run_streaming_demo(flags);

  const std::string name = flags.get("benchmark", "mgrid");
  const auto cycles = static_cast<std::size_t>(flags.get_int("cycles", 800000));
  flags.reject_unused();

  // 1. Capture the full trace.
  const trace::Trace full = cpu::benchmark_by_name(name).capture(cycles);
  const trace::TraceStats stats = trace::compute_stats(full);
  std::printf("%s: %zu cycles, toggle rate %.3f, worst-pattern rate %.4f\n",
              full.name.c_str(), full.cycles(), stats.toggle_rate,
              stats.worst_pattern_rate);

  // 2. SimPoint selection: 10k-cycle windows, 5 clusters.
  cpu::SimPointConfig spc;
  spc.window_cycles = 10000;
  spc.clusters = 5;
  const cpu::SimPointResult points = cpu::select_simpoints(full, spc);
  std::printf("\nselected %zu simpoints out of %zu windows:\n", points.points.size(),
              points.total_windows);
  for (const auto& p : points.points)
    std::printf("  window %3zu (cycle %7zu)  weight %.2f\n", p.window_index,
                p.begin_cycle, p.weight);
  const trace::Trace reduced = cpu::materialize_simpoints(full, points, 10);

  // 3. Cross-check: a closed-loop DVS run on the reduced trace approximates
  //    the full-trace result at a fraction of the simulation cost.
  core::DvsBusSystem system(interconnect::BusDesign::paper_bus());
  const auto corner = tech::typical_corner();
  core::DvsRunConfig cfg;
  cfg.start_supply = system.dvs_floor(corner.process) + 0.1;  // skip the descent
  const auto on_full = core::run_closed_loop_streamed(
      system, corner, *trace::make_trace_view_source(full), cfg);
  const auto on_reduced = core::run_closed_loop_streamed(
      system, corner, *trace::make_trace_view_source(reduced), cfg);
  std::printf(
      "\nDVS gain: full trace %.1f%% (%zu cycles) vs simpoints %.1f%% (%zu cycles)\n",
              100.0 * on_full.energy_gain(), full.cycles(),
              100.0 * on_reduced.energy_gain(), reduced.cycles());

  // 4. File round-trip.
  const std::string path = "./" + full.name + ".rbtrace";
  trace::save_trace_file(full, path);
  const trace::Trace loaded = trace::load_trace_file(path);
  std::printf("\nsaved and reloaded %s (%zu cycles, %.1f MiB)\n", path.c_str(),
              loaded.cycles(),
              static_cast<double>(std::filesystem::file_size(path)) / (1024.0 * 1024.0));
  std::filesystem::remove(path);
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return razorbus::cli_main(argc, argv, run); }

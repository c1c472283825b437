// Domain example: the paper's motivating scenario, scaled to a 64-wire
// memory bus.
//
// An Alpha-style execution core issues loads; pairs of consecutive 32-bit
// data words are packed into 64-bit flits and travel over the 6 mm memory
// read bus into double-sampling flip-flops at the memory unit (paper
// Fig. 1, at 2x the paper's width — the width-generic datapath makes this
// a config change, DESIGN.md §10). This example runs the whole
// SPEC2000-substitute suite back to back under the closed-loop controller
// — at a PVT corner of your choice — and reports per-program energy, error
// and voltage numbers, i.e. a miniature Table 1 + Fig. 8 on a 64-wire bus.
//
// At the default configuration the report is asserted against a golden
// summary, so any regression in the wide datapath fails the example run.
//
//   $ ./examples/memory_read_bus --corner=typical --temp=100 --ir=0 --cycles=500000
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <memory>

#include "core/experiments.hpp"
#include "core/system.hpp"
#include "cpu/kernels.hpp"
#include "trace/source.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

namespace {

constexpr int kBusBits = 64;

struct Summary {
  std::uint64_t cycles = 0;
  std::uint64_t errors = 0;
  std::uint64_t shadow_failures = 0;
  double total_gain = 0.0;   // suite-wide energy gain vs nominal baseline
  double avg_supply = 0.0;   // cycle-weighted average across the suite (V)
};

// Golden summary of the default run (typical corner, 100C, no IR drop,
// 500k captured cycles per benchmark -> 250k 64-bit flits each). Counts
// are exact — the simulation is deterministic; the analog aggregates get
// a small tolerance so table re-characterization noise cannot flake it.
constexpr Summary kGolden = {2500000u, 114436u, 0u, 0.364788, 0.936904};

int check_against_golden(const Summary& s) {
  int failures = 0;
  const auto fail = [&failures](const char* what, double got, double want) {
    std::fprintf(stderr, "GOLDEN MISMATCH: %s = %.6g, expected %.6g\n", what, got, want);
    ++failures;
  };
  if (s.cycles != kGolden.cycles)
    fail("cycles", static_cast<double>(s.cycles), static_cast<double>(kGolden.cycles));
  if (s.errors != kGolden.errors)
    fail("errors", static_cast<double>(s.errors), static_cast<double>(kGolden.errors));
  if (s.shadow_failures != kGolden.shadow_failures)
    fail("shadow_failures", static_cast<double>(s.shadow_failures),
         static_cast<double>(kGolden.shadow_failures));
  if (std::abs(s.total_gain - kGolden.total_gain) > 0.005)
    fail("total_gain", s.total_gain, kGolden.total_gain);
  if (std::abs(s.avg_supply - kGolden.avg_supply) > 0.005)
    fail("avg_supply", s.avg_supply, kGolden.avg_supply);
  return failures;
}

int run(const razorbus::CliFlags& flags) {
  using namespace razorbus;

  tech::PvtCorner corner;
  corner.process = tech::process_corner_from_string(flags.get("corner", "typical"));
  corner.temp_c = flags.get_double("temp", 100.0);
  corner.ir_drop_fraction = flags.get_double("ir", 0.0);
  const auto cycles = static_cast<std::size_t>(flags.get_int("cycles", 500000));
  flags.reject_unused();
  // razorlint: allow(float-eq): detects the untouched default flag values —
  // exact constants parsed from defaults, never arithmetic results.
  const bool default_run = corner.temp_c == 100.0 && corner.ir_drop_fraction == 0.0 &&
                           corner.process == tech::ProcessCorner::typical &&
                           cycles == 500000;

  core::DvsBusSystem system(interconnect::BusDesign::wide_bus(kBusBits));
  std::printf("%d-wire memory read bus at %s\n", kBusBits, corner.name().c_str());
  std::printf("  fixed-VS supply %4.0f mV | DVS floor %4.0f mV | worst delay %3.0f ps\n",
              to_mV(system.fixed_vs_supply(corner.process)),
              to_mV(system.dvs_floor(corner.process)),
              to_ps(system.nominal_worst_delay(corner)));

  // Two consecutive 32-bit load words form one 64-bit flit.
  std::vector<std::unique_ptr<trace::TraceSource>> sources;
  for (const auto& bench : cpu::spec2000_suite())
    sources.push_back(trace::widen_source(bench.stream(cycles), kBusBits / 32));

  core::DvsRunConfig cfg;
  cfg.record_series = true;
  const core::ConsecutiveRunReport report =
      core::run_consecutive_streamed(system, corner, sources, cfg);

  Table table({"Benchmark", "Gain (%)", "Avg err (%)", "Avg V (mV)", "Errors", "Cycles"});
  Summary summary;
  double energy = 0.0;
  double baseline = 0.0;
  double supply_cycles = 0.0;
  for (std::size_t i = 0; i < sources.size(); ++i) {
    const auto& r = report.per_trace[i];
    table.row()
        .add(sources[i]->name())
        .add(100.0 * r.energy_gain(), 1)
        .add(100.0 * r.totals.error_rate(), 2)
        .add(to_mV(r.average_supply), 0)
        .add(static_cast<long long>(r.totals.errors))
        .add(static_cast<long long>(r.totals.cycles));
    summary.cycles += r.totals.cycles;
    summary.errors += r.totals.errors;
    summary.shadow_failures += r.totals.shadow_failures;
    energy += r.totals.total_energy();
    baseline += r.baseline_bus_energy;
    supply_cycles += r.average_supply * static_cast<double>(r.totals.cycles);
  }
  table.print(std::cout);
  summary.total_gain = baseline > 0.0 ? 1.0 - energy / baseline : 0.0;
  summary.avg_supply =
      summary.cycles ? supply_cycles / static_cast<double>(summary.cycles) : 0.0;
  std::printf("\nSuite: %.1f%% energy gain, %llu corrected errors, %llu silent "
              "corruptions, %4.0f mV average\n",
              100.0 * summary.total_gain,
              static_cast<unsigned long long>(summary.errors),
              static_cast<unsigned long long>(summary.shadow_failures),
              to_mV(summary.avg_supply));

  // A coarse "strip chart" of the supply voltage across the whole run.
  std::printf("\nSupply voltage over time (each char = %zu windows):\n",
              std::max<std::size_t>(1, report.series.size() / 72));
  const std::size_t stride = std::max<std::size_t>(1, report.series.size() / 72);
  std::string strip;
  for (std::size_t i = 0; i < report.series.size(); i += stride) {
    const double v = report.series[i].supply;
    // Map 0.84..1.20 V to '0'..'9'.
    const int level =
        std::max(0, std::min(9, static_cast<int>((v - 0.84) / (1.20 - 0.84) * 9.99)));
    strip += static_cast<char>('0' + level);
  }
  std::printf("  1.2V=9 .. 0.84V=0 : %s\n", strip.c_str());

  // Invariants hold for any configuration; the golden summary only for the
  // default one.
  if (summary.shadow_failures != 0) {
    std::fprintf(stderr, "FAIL: silent corruptions above the regulator floor\n");
    return 1;
  }
  if (default_run) {
    const int failures = check_against_golden(summary);
    if (failures != 0) return 1;
    std::printf("\n[golden summary check: OK]\n");
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return razorbus::cli_main(argc, argv, run); }

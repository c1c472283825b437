// Ablation: low-power bus coding vs (and combined with) Razor DVS.
//
// The paper cites encoding schemes (e.g. bus-invert) as orthogonal related
// work: they reduce switching activity at a fixed supply, while the DVS
// approach reduces the supply itself. This bench quantifies that claim:
//   1. bus-invert alone (nominal supply),
//   2. razor DVS alone,
//   3. both combined,
// all against the plain bus at nominal supply. The invert line is modelled
// as a 33rd, shielded wire (a one-bit bus of the same length and repeater
// design), so its energy and its own timing behaviour are accounted.
#include <iostream>

#include "bus/businvert.hpp"
#include "scenarios/scenarios.hpp"

namespace razorbus::bench {

namespace {

// A one-bit sidecar bus for the invert line (same wire/repeater design,
// shielded both sides).
const core::DvsBusSystem& invert_line_system() {
  static const core::DvsBusSystem system = [] {
    interconnect::BusDesign design = interconnect::BusDesign::paper_bus();
    design.n_bits = 1;
    design.repeater_size = paper_system().design().repeater_size;
    return core::DvsBusSystem(design, options_with_progress("invert line"));
  }();
  return system;
}

trace::Trace line_trace(const std::vector<bool>& invert_line) {
  trace::Trace t;
  t.name = "invert_line";
  t.n_bits = 1;
  t.words.reserve(invert_line.size());
  for (const bool b : invert_line) t.words.push_back(b ? 1u : 0u);
  return t;
}

}  // namespace

Scenario make_ablation_encoding_scenario() {
  Scenario scenario;
  scenario.name = "ablation_encoding";
  scenario.description = "bus-invert coding vs/plus razor DVS";
  scenario.paper_ref = "orthogonality claim of Section 1 (related work [5])";
  scenario.default_cycles = 400000;
  scenario.run = [](ScenarioContext& ctx) {
    const auto corner = tech::typical_corner();
    const auto traces = suite_traces(ctx.cycles);

    Table table({"Benchmark", "Invert-only gain (%)", "DVS-only gain (%)",
                 "Combined gain (%)", "Inversion rate (%)"});

    double sums[3] = {0.0, 0.0, 0.0};
    double base_sum = 0.0;
    for (const auto& raw : traces) {
      std::fprintf(stderr, "[%s]\n", raw.name.c_str());
      const bus::BusInvertResult enc = bus::bus_invert_encode(raw);
      const trace::Trace side = line_trace(enc.invert_line);

      // (2) DVS on the raw trace; its nominal meter prices the baseline,
      // the plain bus at nominal supply, in the same pass.
      const core::DvsRunReport dvs =
          core::run_closed_loop(paper_system(), corner, raw, core::DvsRunConfig{});
      const double base = dvs.baseline_bus_energy;

      // (3) DVS on the encoded trace.
      const core::DvsRunReport dvs_enc = core::run_closed_loop(
          paper_system(), corner, enc.encoded, core::DvsRunConfig{});

      // (1) bus-invert at nominal supply (the encoded run's baseline) + the
      // invert line's energy.
      const double invert_only =
          dvs_enc.baseline_bus_energy +
          bus::BusSimulator::run_reference(invert_line_system().design(),
                                           invert_line_system().table(), corner,
                                           side.words)
              .bus_energy;

      // (3) + the invert line at the DVS average supply (the line shares
      // the bus supply rail).
      bus::BusSimulator line_sim = invert_line_system().make_simulator(corner);
      line_sim.set_supply(dvs_enc.average_supply);
      line_sim.run(side.words);
      const double combined =
          dvs_enc.totals.total_energy() + line_sim.totals().bus_energy;

      const double g1 = 1.0 - invert_only / base;
      const double g2 = dvs.energy_gain();
      const double g3 = 1.0 - combined / base;
      table.row()
          .add(raw.name)
          .add(100.0 * g1, 1)
          .add(100.0 * g2, 1)
          .add(100.0 * g3, 1)
          .add(100.0 * static_cast<double>(enc.inversions) /
                   static_cast<double>(raw.words.size()),
               1);
      sums[0] += invert_only;
      sums[1] += dvs.totals.total_energy();
      sums[2] += combined;
      base_sum += base;
    }
    table.row()
        .add("Total")
        .add(100.0 * (1.0 - sums[0] / base_sum), 1)
        .add(100.0 * (1.0 - sums[1] / base_sum), 1)
        .add(100.0 * (1.0 - sums[2] / base_sum), 1)
        .add("-");
    ctx.table("encoding", table);
    ctx.metric("invert_only_gain", 1.0 - sums[0] / base_sum);
    ctx.metric("dvs_only_gain", 1.0 - sums[1] / base_sum);
    ctx.metric("combined_gain", 1.0 - sums[2] / base_sum);

    std::printf(
        "\nReading the table: coding alone helps high-activity programs a little\n"
        "(and quiet programs not at all); voltage scaling dominates; the two\n"
        "compose — supporting the paper's claim that encoding approaches are\n"
        "orthogonal to DVS with error correction.\n");
  };
  return scenario;
}

}  // namespace razorbus::bench

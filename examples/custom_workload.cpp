// Domain example: bring your own workload.
//
// Shows the two ways to feed the bus: (1) write a program for the mini-ISA
// and capture its memory-read-bus trace, and (2) drive the cycle simulator
// directly with raw words. Useful as a template for evaluating the DVS bus
// on traffic that is not part of the built-in suite.
//
//   $ ./examples/custom_workload
#include <cstdio>

#include "bus/simulator.hpp"
#include "core/experiments.hpp"
#include "core/system.hpp"
#include "cpu/machine.hpp"
#include "cpu/program.hpp"
#include "util/cli.hpp"
#include "util/units.hpp"

namespace {

int run(const razorbus::CliFlags& flags) {
  using namespace razorbus;

  // Takes no flags: anything on the command line is a typo and fails
  // loudly rather than silently running the default configuration.
  flags.reject_unused();

  core::DvsBusSystem system(interconnect::BusDesign::paper_bus());
  const auto corner = tech::typical_corner();

  // --- (1) A custom mini-ISA program: strided array sum. ------------------
  // r1 = index, r2 = base, r7 = accumulator.
  cpu::ProgramBuilder builder("strided_sum");
  builder.label("loop")
      .andi(1, 1, 1023)
      .add(3, 2, 1)
      .load(4, 3, 0)     // data word -> memory read bus
      .add(7, 7, 4)
      .addi(1, 1, 17)    // stride 17 words
      .jmp("loop");
  cpu::Machine machine(builder.build());
  // Fill the array with a sawtooth (low switching between neighbours).
  for (std::uint32_t i = 0; i < 1024; ++i) machine.set_mem(i, (i * 3) & 0xFF);

  const trace::Trace trace = cpu::capture_bus_trace(machine, 400000, "strided_sum");
  const core::DvsRunReport report = core::run_closed_loop_streamed(
      system, corner, *trace::make_trace_view_source(trace));
  std::printf("custom program '%s': %.1f%% energy gain, %.2f%% errors, avg %4.0f mV\n",
              trace.name.c_str(), 100.0 * report.energy_gain(),
              100.0 * report.error_rate(), to_mV(report.average_supply));

  // --- (2) Raw words straight into the cycle simulator. -------------------
  bus::BusSimulator sim = system.make_simulator(corner);
  sim.set_supply(0.96);  // a hand-picked aggressive operating point
  std::uint64_t errors = 0;
  const std::uint32_t frames[4] = {0x00FF00FFu, 0x0000FFFFu, 0x00FF00FFu, 0xFFFF0000u};
  for (int i = 0; i < 100000; ++i)
    if (sim.step(frames[i & 3]).error) ++errors;

  std::printf("raw frame loop at 960 mV: %.2f%% error rate, %.1f pJ/cycle bus energy\n",
              100.0 * static_cast<double>(errors) / 1e5,
              to_pJ(sim.totals().bus_energy / static_cast<double>(sim.totals().cycles)));
  std::printf("  (%llu unrecoverable captures — must be zero above the shadow floor "
              "of %4.0f mV)\n",
              static_cast<unsigned long long>(sim.totals().shadow_failures),
              to_mV(system.shadow_floor(corner)));
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return razorbus::cli_main(argc, argv, run); }

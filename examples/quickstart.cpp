// Quickstart: build the paper's bus, run closed-loop DVS on one benchmark,
// and print the headline numbers.
//
//   $ ./examples/quickstart
//
// The first run characterises the bus with transient circuit simulations
// (~half a minute); results are cached on disk for subsequent runs.
#include <cstdio>

#include "core/experiments.hpp"
#include "core/system.hpp"
#include "cpu/kernels.hpp"
#include "util/cli.hpp"
#include "util/units.hpp"

namespace {

int run(const razorbus::CliFlags& flags) {
  using namespace razorbus;

  // Takes no flags: anything on the command line is a typo and fails
  // loudly rather than silently running the default configuration.
  flags.reject_unused();

  // 1. The paper's bus: 32 bits, 6 mm, 0.8 um pitch, shields every 4 wires,
  //    repeaters every 1.5 mm, 1.5 GHz. The constructor sizes the repeaters
  //    for 600 ps worst-case delay and characterises delay/energy tables.
  core::DvsBusSystem system(interconnect::BusDesign::paper_bus());
  std::printf("Bus ready: repeater size %.0fx unit inverter, worst-case delay %.0f ps\n",
              system.design().repeater_size,
              to_ps(system.nominal_worst_delay(tech::worst_case_corner())));

  // 2. A workload: the crafty (chess) kernel's memory-read-bus trace,
  //    streamed — the kernel runs block by block as the drivers pull.
  const auto workload = cpu::benchmark_by_name("crafty").stream(1000000);

  // 3. Closed-loop DVS at the typical corner: double-sampling flops detect
  //    and correct timing errors while the controller holds the error rate
  //    in the [1%, 2%] band.
  const auto corner = tech::typical_corner();
  const core::DvsRunReport dvs =
      core::run_closed_loop_streamed(system, corner, *workload);

  // 4. Compare with the conventional alternative (fixed voltage scaling).
  const core::DvsRunReport fixed = core::run_fixed_vs_streamed(system, corner, *workload);

  std::printf("\nWorkload: %s, %llu cycles at %s\n", workload->name().c_str(),
              static_cast<unsigned long long>(dvs.totals.cycles), corner.name().c_str());
  std::printf("  fixed VS   : %5.1f%% energy gain at %4.0f mV (error-free)\n",
              100.0 * fixed.energy_gain(), to_mV(fixed.average_supply));
  std::printf("  razor DVS  : %5.1f%% energy gain at %4.0f mV average "
              "(%.2f%% errors corrected, %llu unrecoverable)\n",
              100.0 * dvs.energy_gain(), to_mV(dvs.average_supply),
              100.0 * dvs.error_rate(),
              static_cast<unsigned long long>(dvs.totals.shadow_failures));
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return razorbus::cli_main(argc, argv, run); }

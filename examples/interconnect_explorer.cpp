// Domain example: interconnect architecture exploration (paper Section 6).
//
// Sweeps the Cc/Cg coupling ratio of the bus (holding the worst-case load
// and wire resistance constant, so the worst-case delay never changes) and
// reports how the typical-case delay, the shadow-safe voltage floor, and
// the achievable 2%-error-rate gain respond. This is the experiment behind
// the paper's claim that coupling-dominated wires — i.e. scaled technology
// nodes — favour error-tolerant DVS.
//
//   $ ./examples/interconnect_explorer --ratios=1.0,1.5,1.95,2.5
#include <cstdio>
#include <iostream>
#include <sstream>

#include "core/experiments.hpp"
#include "core/system.hpp"
#include "trace/synthetic.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

namespace {

int run(const razorbus::CliFlags& flags) {
  using namespace razorbus;

  const std::string ratio_list = flags.get("ratios", "1.0,1.5,1.95,2.5");
  const auto cycles = static_cast<std::size_t>(flags.get_int("cycles", 150000));
  flags.reject_unused();

  std::vector<double> ratios;
  std::stringstream ss(ratio_list);
  for (std::string item; std::getline(ss, item, ',');) ratios.push_back(std::stod(item));

  // A mid-activity synthetic workload keeps the comparison apples-to-apples
  // across bus variants.
  trace::SyntheticConfig tcfg;
  tcfg.style = trace::SyntheticStyle::uniform;
  tcfg.cycles = cycles;
  tcfg.load_rate = 0.35;
  const auto workload = trace::make_synthetic_source(tcfg, "uniform");

  const auto corner = tech::typical_corner();
  std::printf("Coupling-ratio sweep at %s, workload: %zu uniform cycles\n",
              corner.name().c_str(), cycles);

  Table table({"Cc/Cg multiplier", "Cc/Cg", "Worst delay (ps)", "Best delay (ps)",
               "Shadow floor (mV)", "Gain @2% (%)"});

  for (const double ratio : ratios) {
    std::fprintf(stderr, "[characterising ratio %.2f]\n", ratio);
    interconnect::BusDesign design = interconnect::BusDesign::modified_bus(ratio);
    const core::DvsBusSystem system(design);

    const double worst = system.nominal_worst_delay(corner);
    const int best_cls = lut::PatternClass::encode(
        lut::VictimActivity::rise, lut::NeighborActivity::rise,
        lut::NeighborActivity::rise);
    const double best = system.table().delay(best_cls, corner.process, corner.temp_c,
                                             design.node.vdd_nominal);
    const auto gains = core::gains_for_targets(
        core::static_voltage_sweep_streamed(system, corner, *workload), {0.02});

    table.row()
        .add(ratio, 2)
        .add(system.design().parasitics.cc_to_cg_ratio(), 2)
        .add(to_ps(worst), 0)
        .add(to_ps(best), 0)
        .add(to_mV(system.shadow_floor(corner)), 0)
        .add(100.0 * gains[0].energy_gain, 1);
  }
  table.print(std::cout);

  std::printf(
      "\nReading the table: the worst-case delay is invariant by construction;\n"
      "higher coupling ratios speed up the typical case, deepening the voltage\n"
      "the bus can run at for the same error budget.\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return razorbus::cli_main(argc, argv, run); }

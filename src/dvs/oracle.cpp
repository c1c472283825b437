#include "dvs/oracle.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace razorbus::dvs {

OracleSelector::OracleSelector(const interconnect::BusDesign& design,
                               const lut::DelayEnergyTable& table,
                               tech::PvtCorner environment)
    : design_(design), table_(table), environment_(environment), classifier_(design) {
  const auto& grid = table_.grid();
  const double limit = design_.main_capture_limit();
  class_critical_index_.assign(lut::PatternClass::kCount, 0);

  // For each class, find the lowest REGULATOR voltage (we reuse the table
  // grid for regulator settings) whose IR-drooped driver voltage still
  // meets the main capture limit.
  for (int cls = 0; cls < lut::PatternClass::kCount; ++cls) {
    if (!lut::PatternClass::victim_switches(cls)) {
      class_critical_index_[static_cast<std::size_t>(cls)] = 0;
      continue;
    }
    std::size_t critical = grid.size();  // pessimistic: fails everywhere
    for (std::size_t vi = 0; vi < grid.size(); ++vi) {
      const double v_eff = environment_.effective_supply(grid.voltage(vi));
      const double d =
          table_.delay(cls, environment_.process, environment_.temp_c, v_eff);
      if (!std::isnan(d) && !std::isinf(d) && d <= limit) {
        critical = vi;
        break;
      }
    }
    class_critical_index_[static_cast<std::size_t>(cls)] = critical;
  }
}

std::size_t OracleSelector::critical_grid_index(const BusWord& prev,
                                                const BusWord& cur) const {
  // Bit-parallel: the max over wires is the max over the classes present
  // in the transition's mask set (hold-victim classes carry a critical
  // index of 0, so visiting them never changes the max).
  std::size_t critical = 0;
  bus::for_each_present_class(
      classifier_.masks(prev, cur), [&](int cls, const BusWord&) {
        critical =
            std::max(critical, class_critical_index_[static_cast<std::size_t>(cls)]);
      });
  return critical;
}

OracleResult OracleSelector::select(trace::TraceSource& source,
                                    const OracleConfig& config,
                                    std::size_t block_cycles) const {
  if (config.window_cycles == 0) throw std::invalid_argument("oracle: zero window");
  if (block_cycles == 0)
    throw std::invalid_argument("oracle: block_cycles must be > 0");
  // Same guard as the core experiment drivers: a trace wider than the bus
  // would silently drop its high lanes in the classifier masks.
  if (source.n_bits() > design_.n_bits)
    throw std::invalid_argument("oracle: trace '" + source.name() +
                                "' is wider than the bus");
  const auto& grid = table_.grid();
  const std::size_t floor_index = config.vmin > 0.0 ? grid.index_of(config.vmin) : 0;

  OracleResult result;
  std::uint64_t total_errors = 0;
  std::uint64_t total_cycles = 0;

  std::vector<std::size_t> histogram(grid.size() + 1, 0);
  BusWord prev;
  std::size_t in_window = 0;
  std::fill(histogram.begin(), histogram.end(), 0);

  auto close_window = [&](std::size_t cycles_in_window) {
    if (cycles_in_window == 0) return;
    const auto budget = static_cast<std::uint64_t>(
        config.target_error_rate * static_cast<double>(cycles_in_window));
    // Count, from the top of the grid downward, how many cycles would err
    // at each voltage; stop at the lowest voltage within budget.
    std::uint64_t errors_above = 0;
    std::size_t chosen = grid.size() - 1;
    for (std::size_t vi = grid.size(); vi-- > 0;) {
      // Cycles whose critical index exceeds vi error at voltage vi.
      errors_above += histogram[vi + 1];
      if (vi < floor_index) break;
      if (errors_above <= budget)
        chosen = vi;
      else
        break;
    }
    // Errors actually incurred at the chosen voltage.
    std::uint64_t errors = 0;
    for (std::size_t ci = chosen + 1; ci <= grid.size(); ++ci) errors += histogram[ci];
    total_errors += errors;
    total_cycles += cycles_in_window;

    const double v = grid.voltage(chosen);
    result.window_voltages.push_back(v);
    result.time_at_voltage.add(v, static_cast<double>(cycles_in_window));
    std::fill(histogram.begin(), histogram.end(), 0);
  };

  std::vector<BusWord> block(block_cycles);
  for (;;) {
    const std::size_t n = source.next_block(block.data(), block.size());
    if (n == 0) break;
    for (std::size_t i = 0; i < n; ++i) {
      const BusWord& cur = block[i];
      ++histogram[critical_grid_index(prev, cur)];
      prev = cur;
      if (++in_window == config.window_cycles) {
        close_window(in_window);
        in_window = 0;
      }
    }
  }
  close_window(in_window);

  result.achieved_error_rate =
      total_cycles ? static_cast<double>(total_errors) / static_cast<double>(total_cycles)
                   : 0.0;
  return result;
}

}  // namespace razorbus::dvs

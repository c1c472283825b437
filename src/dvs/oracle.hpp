// Oracle (future-knowledge) optimal voltage selection — paper Fig. 6.
//
// To expose how much of the opportunity a real controller captures, the
// paper first selects, per execution window, the lowest supply voltage that
// keeps that window's error rate at or below a target — using knowledge of
// the future switching activity. We implement this exactly: per cycle the
// bus has a "critical supply" (the lowest grid voltage at which no wire
// misses the main flop); a window's optimal voltage is the lowest grid
// point at which the number of cycles whose critical supply lies above it
// stays within the target error budget.
#pragma once

#include <cstdint>
#include <vector>

#include "bus/classify.hpp"
#include "interconnect/bus_design.hpp"
#include "lut/table.hpp"
#include "tech/corner.hpp"
#include "trace/source.hpp"
#include "util/stats.hpp"

namespace razorbus::dvs {

struct OracleConfig {
  std::uint64_t window_cycles = 10000;
  double target_error_rate = 0.02;
  // Regulator floor (shadow-latch safety); voltages below are never chosen.
  double vmin = 0.0;
};

struct OracleResult {
  // Chosen supply per window, in execution order.
  std::vector<double> window_voltages;
  // Fraction of execution time spent at each chosen grid voltage (Fig. 6).
  DiscreteHistogram time_at_voltage;
  // Overall error rate actually incurred at the chosen voltages.
  double achieved_error_rate = 0.0;
};

class OracleSelector {
 public:
  OracleSelector(const interconnect::BusDesign& design,
                 const lut::DelayEnergyTable& table, tech::PvtCorner environment);

  // Per-cycle critical grid index: the smallest grid voltage index at which
  // this prev->cur transition produces no timing error. Index grid.size()
  // means "errors even at the top grid voltage".
  std::size_t critical_grid_index(const BusWord& prev, const BusWord& cur) const;

  // Windowed selection over a block-buffered stream (DESIGN.md §12):
  // per-window histograms are the only state, so the oracle windows
  // arbitrarily long captures in O(block) memory. The source is consumed
  // (not cloned); per-window voltages still accumulate O(windows) entries.
  OracleResult select(trace::TraceSource& source, const OracleConfig& config,
                      std::size_t block_cycles = trace::kDefaultBlockCycles) const;

  // Lowest passing grid voltage per pattern class (exposed for tests).
  const std::vector<std::size_t>& class_critical_index() const {
    return class_critical_index_;
  }

 private:
  const interconnect::BusDesign& design_;
  const lut::DelayEnergyTable& table_;
  tech::PvtCorner environment_;
  bus::WireClassifier classifier_;
  std::vector<std::size_t> class_critical_index_;  // per pattern class
};

}  // namespace razorbus::dvs

// Proportional error-rate controller (paper Section 5, discussed and
// rejected).
//
// The paper notes a proportional controller — voltage change proportional
// to the difference between target and sampled error rate — could react
// faster, but argues the bus's strongly non-linear, program-dependent
// error-vs-voltage transfer function makes its gain constant impossible to
// derive, and shows the simple threshold scheme suffices. We implement it
// so the claim can be tested (the ablation_controller scenario).
#pragma once

#include <cstdint>

#include "dvs/controller.hpp"

namespace razorbus::dvs {

struct ProportionalConfig {
  std::uint64_t window_cycles = 10000;
  double target_error_rate = 0.015;  // middle of the paper's [1%, 2%] band
  // Volts of requested change per unit of error-rate difference. With 2.0,
  // a one-percentage-point overshoot requests +20 mV. The paper's point is
  // precisely that no single value of this constant works well across
  // programs (the transfer function is non-linear and program-dependent).
  double gain = 2.0;
  // Requested steps are quantised to the regulator grid and clamped.
  double step_quantum = 0.020;
  double max_step = 0.060;
};

class ProportionalController {
 public:
  explicit ProportionalController(ProportionalConfig config);

  const ProportionalConfig& config() const { return config_; }

  // Feed one cycle's error flag. Returns the requested voltage delta at
  // window boundaries (0 mid-window or when the window is on target).
  // Positive = raise the supply.
  double observe_cycle(bool error) { return observe_segment(1, error ? 1 : 0); }

  // Batched feed (see ThresholdController::observe_segment): a segment of
  // `cycles` cycles with `errors` errors, not crossing a window boundary.
  double observe_segment(std::uint64_t cycles, std::uint64_t errors);

  // Cycles until the current window closes (never zero).
  std::uint64_t cycles_remaining_in_window() const {
    return config_.window_cycles - cycle_in_window_;
  }

  double last_window_error_rate() const { return last_rate_; }
  std::uint64_t windows_completed() const { return windows_; }

 private:
  ProportionalConfig config_;
  std::uint64_t cycle_in_window_ = 0;
  std::uint64_t errors_in_window_ = 0;
  double last_rate_ = 0.0;
  std::uint64_t windows_ = 0;
};

}  // namespace razorbus::dvs

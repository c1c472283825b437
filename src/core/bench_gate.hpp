// Bench-regression gate (DESIGN.md §11).
//
// The gate reads the benchmark's result line (perfbench/run.py prints it
// last):
//   {"correct": true, "attempted": N, "failed": 0,
//    "metrics": {"<workload>/<name>": {"value": V, "unit": "1/s"}, ...}}
// and compares every metric whose unit is "1/s" — throughput, where a DROP
// is the regression — against a window of earlier result lines. Metrics in
// other units (seconds, megabytes) are never compared.
#pragma once

#include <string>
#include <vector>

#include "util/json.hpp"

namespace razorbus::core {

struct BenchGateFinding {
  std::string name;  // metric key, e.g. "closed_loop_stream/sim_cycles_per_s"
  double baseline = 0.0;
  double current = 0.0;
  double ratio = 0.0;       // current / baseline
  bool regression = false;  // ratio < 1 - threshold
};

struct BenchGateResult {
  std::vector<BenchGateFinding> compared;  // metrics present on both sides
  std::vector<std::string> missing;        // in the history only (workload removed?)
  std::vector<std::string> added;          // in the current line only (new workload)

  bool ok() const { return regressions() == 0; }
  std::size_t regressions() const {
    std::size_t n = 0;
    for (const auto& finding : compared) n += finding.regression ? 1 : 0;
    return n;
  }
};

// Gates `current` against `history` (oldest first). Each metric's baseline
// is the LOWER MEDIAN of its values across the entries that carry it, so
// one anomalously fast (or slow) entry — a quiet CI runner, a thermal
// throttle — cannot move the bar. A metric regresses when current <
// baseline * (1 - threshold); a zero baseline never fails. Metrics on one
// side only are reported but never fail; improvements never fail. An
// empty history compares nothing (ok() is true); callers decide whether
// that passes (see bench_gate --allow-missing-baseline).
//
// Throws std::invalid_argument when any line is not a passing result
// line: "correct" is not true, "metrics" is not an object, or a metric is
// not {"value": number, "unit": string}.
BenchGateResult compare_bench_history(const std::vector<Json>& history,
                                      const Json& current, double threshold = 0.20);

}  // namespace razorbus::core

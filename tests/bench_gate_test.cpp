// The CI bench-regression gate (core::compare_bench_history) over the
// benchmark's result line: the acceptance contract is that a synthetic 25%
// throughput drop fails at the default 20% threshold and an unchanged
// rerun passes.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "core/bench_gate.hpp"
#include "util/json.hpp"

namespace razorbus {
namespace {

Json metric(double value, const char* unit) {
  Json out = Json::object();
  out.set("value", value);
  out.set("unit", unit);
  return out;
}

// A perfbench/run.py result line for two workloads: two throughput
// metrics (unit "1/s"), plus metrics in other units the gate must ignore.
Json result_line(double stream_cps, double sweep_cps) {
  Json metrics = Json::object();
  metrics.set("closed_loop_stream/sim_cycles_per_s", metric(stream_cps, "1/s"));
  metrics.set("closed_loop_stream/wall_s", metric(27.0, "s"));
  metrics.set("closed_loop_stream/peak_rss_mb", metric(6.5, "MB"));
  metrics.set("sweep_suite_simd/sim_cycles_per_s", metric(sweep_cps, "1/s"));
  metrics.set("sweep_suite_simd/setup_s", metric(0.006, "s"));

  Json line = Json::object();
  line.set("correct", true);
  line.set("attempted", 40);
  line.set("failed", 0);
  line.set("metrics", std::move(metrics));
  return line;
}

const core::BenchGateFinding& finding(const core::BenchGateResult& result,
                                      const std::string& name) {
  for (const auto& f : result.compared)
    if (f.name == name) return f;
  throw std::out_of_range("no finding " + name);
}

TEST(BenchGate, UnchangedRerunPassesAndIgnoresOtherUnits) {
  const Json line = result_line(16e6, 300e6);
  const core::BenchGateResult result = core::compare_bench_history({line}, line, 0.20);
  EXPECT_TRUE(result.ok());
  EXPECT_EQ(result.regressions(), 0u);
  // Exactly the two 1/s metrics are compared, never seconds or megabytes.
  ASSERT_EQ(result.compared.size(), 2u);
  EXPECT_EQ(result.compared[0].name, "closed_loop_stream/sim_cycles_per_s");
  EXPECT_EQ(result.compared[1].name, "sweep_suite_simd/sim_cycles_per_s");
  for (const auto& f : result.compared) EXPECT_DOUBLE_EQ(f.ratio, 1.0);
  EXPECT_TRUE(result.missing.empty());
  EXPECT_TRUE(result.added.empty());
}

TEST(BenchGate, SyntheticQuarterDropFails) {
  const Json baseline = result_line(16e6, 300e6);
  const Json current = result_line(0.75 * 16e6, 300e6);  // injected 25% drop
  const core::BenchGateResult result =
      core::compare_bench_history({baseline}, current, 0.20);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.regressions(), 1u);
  const auto& dropped = finding(result, "closed_loop_stream/sim_cycles_per_s");
  EXPECT_TRUE(dropped.regression);
  EXPECT_NEAR(dropped.ratio, 0.75, 1e-12);
  EXPECT_FALSE(finding(result, "sweep_suite_simd/sim_cycles_per_s").regression);
}

TEST(BenchGate, DropWithinThresholdPasses) {
  const Json baseline = result_line(16e6, 300e6);
  // 15% down and 10% down: noisy runners, not regressions at 20%.
  const Json current = result_line(0.85 * 16e6, 0.90 * 300e6);
  EXPECT_TRUE(core::compare_bench_history({baseline}, current, 0.20).ok());
  // The same drop IS a regression at a 10% threshold.
  EXPECT_FALSE(core::compare_bench_history({baseline}, current, 0.10).ok());
}

TEST(BenchGate, ImprovementsNeverFail) {
  const core::BenchGateResult result = core::compare_bench_history(
      {result_line(16e6, 300e6)}, result_line(3.0 * 16e6, 2.0 * 300e6), 0.20);
  EXPECT_TRUE(result.ok());
  EXPECT_EQ(result.compared.size(), 2u);
}

TEST(BenchGate, AddedAndRemovedMetricsAreNotedNotFailed) {
  const auto line = [](const char* only) {
    Json metrics = Json::object();
    metrics.set("shared/jobs_per_s", metric(50.0, "1/s"));
    metrics.set(only, metric(10e6, "1/s"));
    Json out = Json::object();
    out.set("correct", true);
    out.set("metrics", std::move(metrics));
    return out;
  };
  const core::BenchGateResult result =
      core::compare_bench_history({line("old/sim_cycles_per_s")},
                                  line("new/sim_cycles_per_s"), 0.20);
  EXPECT_TRUE(result.ok());
  ASSERT_EQ(result.compared.size(), 1u);
  EXPECT_EQ(result.compared[0].name, "shared/jobs_per_s");
  ASSERT_EQ(result.missing.size(), 1u);
  EXPECT_EQ(result.missing[0], "old/sim_cycles_per_s");
  ASSERT_EQ(result.added.size(), 1u);
  EXPECT_EQ(result.added[0], "new/sim_cycles_per_s");
}

// Each metric's baseline is the LOWER MEDIAN across the window, so a single
// anomalously fast main-branch entry (a quiet CI runner) cannot raise the
// bar and fail an honest current run the way diffing the last entry alone
// would.
TEST(BenchGate, HistoryLowerMedianShrugsOffOneNoisyEntry) {
  const std::vector<Json> history = {
      result_line(16e6, 300e6),
      result_line(17e6, 310e6),
      result_line(32e6, 600e6),  // the noisy outlier, 2x everything
      result_line(15e6, 290e6),
  };
  const Json current = result_line(15.5e6, 300e6);

  // Against the outlier alone, an honest run "regresses" by ~50%.
  EXPECT_FALSE(core::compare_bench_history({history[2]}, current, 0.20).ok());
  // Against the window it passes: 4 values sorted (15, [16], 17, 32), so the
  // lower median is index 1.
  const core::BenchGateResult result =
      core::compare_bench_history(history, current, 0.20);
  EXPECT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ(finding(result, "closed_loop_stream/sim_cycles_per_s").baseline, 16e6);
  EXPECT_DOUBLE_EQ(finding(result, "sweep_suite_simd/sim_cycles_per_s").baseline, 300e6);

  // A real 25% drop still fails against the median baseline.
  EXPECT_FALSE(
      core::compare_bench_history(history, result_line(0.75 * 16e6, 300e6), 0.20).ok());
}

// A metric that only entered the line mid-window is judged on the entries
// that carry it.
TEST(BenchGate, PartialWindowUsesTheEntriesThatCarryAMetric) {
  Json newest = result_line(16e6, 300e6);
  Json metrics = newest.at("metrics");
  metrics.set("campaign_short_jobs/jobs_per_s", metric(50.0, "1/s"));
  newest.set("metrics", std::move(metrics));
  const core::BenchGateResult result =
      core::compare_bench_history({result_line(16e6, 300e6), newest}, newest, 0.20);
  EXPECT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ(finding(result, "campaign_short_jobs/jobs_per_s").baseline, 50.0);
}

// An empty history compares nothing: ok() is true and the CLI decides
// whether "no baseline" passes (--allow-missing-baseline).
TEST(BenchGate, EmptyHistoryComparesNothing) {
  const core::BenchGateResult result =
      core::compare_bench_history({}, result_line(16e6, 300e6), 0.20);
  EXPECT_TRUE(result.ok());
  EXPECT_TRUE(result.compared.empty());
  // Every current throughput metric is "added": reported, never failed.
  EXPECT_EQ(result.added.size(), 2u);
}

TEST(BenchGate, ZeroBaselineNeverDividesOrFails) {
  const core::BenchGateResult result = core::compare_bench_history(
      {result_line(0.0, 300e6)}, result_line(16e6, 300e6), 0.20);
  EXPECT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ(finding(result, "closed_loop_stream/sim_cycles_per_s").ratio, 1.0);
}

// Only a passing result line is gated: a failed run, a line without a
// metrics object or a metric without value and unit is malformed input
// (bench_gate exits 2), on either side of the comparison.
TEST(BenchGate, MalformedLinesAreRejected) {
  const Json good = result_line(16e6, 300e6);

  Json failed = good;
  failed.set("correct", false);
  Json no_correct = Json::object();
  no_correct.set("metrics", good.at("metrics"));
  Json no_metrics = good;
  no_metrics.set("metrics", 1.0);
  Json bare = Json::object();
  bare.set("correct", true);
  Json bad_metric = good;
  Json metrics = good.at("metrics");
  metrics.set("closed_loop_stream/sim_cycles_per_s", 16e6);  // no value/unit object
  bad_metric.set("metrics", std::move(metrics));
  Json no_unit = good;
  Json unitless = Json::object();
  unitless.set("value", 1.0);
  Json metrics2 = good.at("metrics");
  metrics2.set("x/y", std::move(unitless));
  no_unit.set("metrics", std::move(metrics2));

  for (const Json* line :
       {&failed, &no_correct, &no_metrics, &bare, &bad_metric, &no_unit}) {
    EXPECT_THROW(core::compare_bench_history({good}, *line, 0.20), std::invalid_argument);
    EXPECT_THROW(core::compare_bench_history({}, *line, 0.20), std::invalid_argument);
    EXPECT_THROW(core::compare_bench_history({*line}, good, 0.20), std::invalid_argument);
  }
  EXPECT_THROW(core::compare_bench_history({}, Json(1.0), 0.20), std::invalid_argument);
}

}  // namespace
}  // namespace razorbus

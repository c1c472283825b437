// End-to-end reproduction checks: the qualitative claims of each paper
// table/figure, at reduced cycle counts (the registered scenarios run the full
// versions; these tests assert the SHAPE of every headline result).
#include <gtest/gtest.h>

#include <map>
#include <memory>

#include "core/experiments.hpp"
#include "cpu/kernels.hpp"
#include "test_support.hpp"
#include "trace/source.hpp"
#include "util/units.hpp"

namespace razorbus::core {
namespace {

using test_support::paper_system;

constexpr std::size_t kCycles = 150000;

// One benchmark's stream at the test budget, as the scenarios pass it.
std::unique_ptr<trace::TraceSource> trace_of(const std::string& name) {
  return cpu::benchmark_by_name(name).stream(kCycles);
}

std::vector<std::unique_ptr<trace::TraceSource>> traces_of(
    const std::vector<std::string>& names) {
  std::vector<std::unique_ptr<trace::TraceSource>> out;
  for (const auto& name : names) out.push_back(trace_of(name));
  return out;
}

// ------------------------------------------------------------------ Fig. 4

TEST(Fig4, WorstCornerErrorsStartImmediatelyBelowNominal) {
  // Paper: the bus is designed error-free exactly at the worst corner, so
  // error rates rise as soon as the supply drops below 1.2 V.
  const StaticSweepResult sweep = static_voltage_sweep_streamed(
      paper_system(), tech::worst_case_corner(), *trace_of("mgrid"));
  const auto& points = sweep.points;
  ASSERT_GE(points.size(), 3u);
  EXPECT_DOUBLE_EQ(points.back().error_rate, 0.0);          // at 1.2 V
  EXPECT_GT(points[points.size() - 2].error_rate, 0.0005);  // at 1.18 V
}

TEST(Fig4, TypicalCornerErrorFreeDownToAbout980mV) {
  const StaticSweepResult sweep = static_voltage_sweep_streamed(
      paper_system(), tech::typical_corner(), *trace_of("mgrid"));
  double lowest_error_free = 1.2;
  for (const auto& p : sweep.points)
    // razorlint: allow(float-eq): "error-free" is an exact zero count / count.
    if (p.error_rate == 0.0) lowest_error_free = std::min(lowest_error_free, p.supply);
  EXPECT_NEAR(to_mV(lowest_error_free), 980.0, 45.0);  // paper: 980 mV
}

TEST(Fig4, EnergyCurveIsRoughlyQuadraticInSupply) {
  const StaticSweepResult sweep = static_voltage_sweep_streamed(
      paper_system(), tech::typical_corner(), *trace_of("applu"));
  for (const auto& p : sweep.points) {
    const double quadratic = (p.supply * p.supply) / (1.2 * 1.2);
    EXPECT_NEAR(p.norm_bus_energy, quadratic, 0.12) << "at " << p.supply;
  }
}

TEST(Fig4, RecoveryOverheadSmallComparedToSavings) {
  const StaticSweepResult sweep = static_voltage_sweep_streamed(
      paper_system(), tech::typical_corner(), *trace_of("swim"));
  for (const auto& p : sweep.points)
    EXPECT_LT(p.norm_total_energy - p.norm_bus_energy, 0.10);
}

// ------------------------------------------------------------------ Fig. 5

TEST(Fig5, GainsGrowAsCornersGetFaster) {
  std::vector<double> gains_at_2pct;
  for (const auto& corner : tech::fig5_corners()) {
    const StaticSweepResult sweep =
        static_voltage_sweep_streamed(paper_system(), corner, *trace_of("vortex"));
    gains_at_2pct.push_back(gains_for_targets(sweep, {0.02})[0].energy_gain);
  }
  // Monotone (non-strictly) along the slowest -> fastest corner order.
  for (std::size_t i = 1; i < gains_at_2pct.size(); ++i)
    EXPECT_GE(gains_at_2pct[i], gains_at_2pct[i - 1] - 1e-9) << "corner " << i;
  EXPECT_GT(gains_at_2pct.back(), 0.35);  // fast/25C well above 35%
}

TEST(Fig5, ZeroAndTwoPercentTargetsNearlyIndistinguishable) {
  // Paper: "gains from 0% and 2% error rates are indistinguishable" —
  // error rates jump straight from 0 past 2% on the 20 mV grid.
  const StaticSweepResult sweep = static_voltage_sweep_streamed(
      paper_system(), tech::typical_corner(), *trace_of("mgrid"));
  const auto gains = gains_for_targets(sweep, {0.0, 0.02, 0.05});
  EXPECT_NEAR(gains[0].energy_gain, gains[1].energy_gain, 0.06);
  EXPECT_GE(gains[2].energy_gain, gains[1].energy_gain - 1e-12);
}

// ------------------------------------------------------------------ Fig. 6

TEST(Fig6, CraftyRunsAtLowerVoltageThanMgrid) {
  const auto corner = tech::typical_corner();
  const VoltageDistribution crafty =
      oracle_voltage_distribution(paper_system(), corner, *trace_of("crafty"), 0.02);
  const VoltageDistribution mgrid =
      oracle_voltage_distribution(paper_system(), corner, *trace_of("mgrid"), 0.02);
  auto mean_voltage = [](const VoltageDistribution& d) {
    double acc = 0.0;
    for (const auto& [v, f] : d.time_at_voltage) acc += v * f;
    return acc;
  };
  EXPECT_LT(mean_voltage(crafty) + 0.02, mean_voltage(mgrid));
}

TEST(Fig6, MgridCannotDropMuchEvenAtFivePercent) {
  const VoltageDistribution d = oracle_voltage_distribution(
      paper_system(), tech::typical_corner(), *trace_of("mgrid"), 0.05);
  // Paper: mgrid stays at/above ~980 mV even with a 5% error budget.
  for (const auto& [v, f] : d.time_at_voltage) {
    if (f > 0.01) {
      EXPECT_GT(to_mV(v), 925.0);
    }
  }
}

// -------------------------------------------------------------- Table 1

TEST(Table1, WorstCornerFixedVsGainsAreZeroDvsPositive) {
  const auto corner = tech::worst_case_corner();
  const auto quiet = trace_of("mesa");

  const DvsRunReport fixed = run_fixed_vs_streamed(paper_system(), corner, *quiet);
  EXPECT_NEAR(fixed.energy_gain(), 0.0, 1e-9);

  DvsRunConfig cfg;
  const DvsRunReport dvs = run_closed_loop_streamed(paper_system(), corner, *quiet, cfg);
  EXPECT_GT(dvs.energy_gain(), 0.02);  // program-activity gains even here
  EXPECT_LT(dvs.error_rate(), 0.03);
}

TEST(Table1, TypicalCornerDvsBeatsFixedVsClearly) {
  const auto corner = tech::typical_corner();
  // Long enough that the ~180k-cycle descent from nominal does not dominate
  // the average (the paper runs 10M cycles per benchmark).
  const auto t = cpu::benchmark_by_name("gap").stream(600000);
  const double fixed_gain =
      run_fixed_vs_streamed(paper_system(), corner, *t).energy_gain();
  const double dvs_gain =
      run_closed_loop_streamed(paper_system(), corner, *t).energy_gain();
  EXPECT_GT(fixed_gain, 0.10);             // ~17% in the paper
  EXPECT_GT(dvs_gain, fixed_gain + 0.08);  // 35-45% in the paper
}

TEST(Table1, QuietProgramsGainMoreThanNoisyOnesAtWorstCorner) {
  const auto corner = tech::worst_case_corner();
  DvsRunConfig cfg;
  const double quiet_gain =
      run_closed_loop_streamed(paper_system(), corner, *trace_of("mesa"), cfg)
          .energy_gain();
  const double noisy_gain =
      run_closed_loop_streamed(paper_system(), corner, *trace_of("swim"), cfg)
          .energy_gain();
  // Paper Table 1: mesa 17.5% vs swim 1.2% at the worst corner.
  EXPECT_GT(quiet_gain, noisy_gain + 0.02);
}

TEST(Table1, AverageErrorRatesStayNearTheTarget) {
  DvsRunConfig cfg;
  for (const char* name : {"crafty", "vortex", "applu"}) {
    const DvsRunReport r = run_closed_loop_streamed(
        paper_system(), tech::typical_corner(), *trace_of(name), cfg);
    EXPECT_LT(r.error_rate(), 0.035) << name;  // paper: slightly above 2% possible
    EXPECT_EQ(r.totals.shadow_failures, 0u) << name;
  }
}

// ------------------------------------------------------------------ Fig. 8

TEST(Fig8, InstantaneousErrorRateCanOvershootTarget) {
  // The regulator ramp delay lets windows overshoot the 2% band (paper:
  // spikes up to ~6%) even though the average stays near the target.
  DvsRunConfig cfg;
  cfg.record_series = true;
  const ConsecutiveRunReport r =
      run_consecutive_streamed(paper_system(), tech::typical_corner(),
                               traces_of({"crafty", "mgrid", "mesa"}), cfg);

  double max_window_rate = 0.0;
  for (const auto& s : r.series)
    max_window_rate = std::max(max_window_rate, s.error_rate);
  EXPECT_GT(max_window_rate, 0.02);  // overshoot happens...
  for (const auto& t : r.per_trace)
    EXPECT_LT(t.totals.error_rate(), 0.05);  // per-program averages stay close
}

TEST(Fig8, SupplyAdaptsAcrossProgramTransitions) {
  DvsRunConfig cfg;
  cfg.record_series = true;
  const ConsecutiveRunReport r = run_consecutive_streamed(
      paper_system(), tech::typical_corner(), traces_of({"mesa", "swim"}), cfg);
  ASSERT_EQ(r.per_trace.size(), 2u);
  ASSERT_GE(r.series.size(), 8u);

  // Settled supply = average of each phase's last three windows (the first
  // phase additionally pays the descent from nominal, so averages over the
  // whole phase would mislead).
  auto settled = [&](std::size_t begin_cycle, std::size_t end_cycle) {
    std::vector<double> voltages;
    for (const auto& s : r.series)
      if (s.end_cycle > begin_cycle && s.end_cycle <= end_cycle)
        voltages.push_back(s.supply);
    double acc = 0.0;
    std::size_t n = std::min<std::size_t>(3, voltages.size());
    for (std::size_t i = voltages.size() - n; i < voltages.size(); ++i)
      acc += voltages[i];
    return acc / static_cast<double>(n);
  };
  const double mesa_settled = settled(0, kCycles);
  const double swim_settled = settled(kCycles, 2 * kCycles);
  // mesa (quiet) settles low; swim (noisy FP) forces the supply back up.
  EXPECT_GT(swim_settled, mesa_settled + 0.02);
}

// ----------------------------------------------------- Fig. 10 / Section 6

TEST(Fig10, ModifiedBusGainsAtLeastMatchOriginalAtNonZeroTargets) {
  static const DvsBusSystem modified(interconnect::BusDesign::modified_bus(1.95));

  const auto corner = tech::worst_case_corner();
  const StaticSweepResult orig_sweep =
      static_voltage_sweep_streamed(paper_system(), corner, *trace_of("vortex"), 4e-12);
  const StaticSweepResult mod_sweep =
      static_voltage_sweep_streamed(modified, corner, *trace_of("vortex"), 4e-12);

  const double orig2 = gains_for_targets(orig_sweep, {0.02})[0].energy_gain;
  const double mod2 = gains_for_targets(mod_sweep, {0.02})[0].energy_gain;
  // Paper: the 2%/5% curves of the modified bus sit slightly higher.
  EXPECT_GE(mod2, orig2 - 0.01);

  // Worst-case delay (the 0%-error behaviour at the worst corner) does not
  // improve: the transform holds R and Cg + 4 Cc constant.
  const double d_orig = paper_system().nominal_worst_delay(corner);
  const double d_mod = modified.nominal_worst_delay(corner);
  EXPECT_NEAR(d_mod, d_orig, 0.05 * d_orig);
}

}  // namespace
}  // namespace razorbus::core

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "core/experiments.hpp"
#include "core/system.hpp"
#include "test_support.hpp"
#include "trace/synthetic.hpp"
#include "util/units.hpp"

namespace razorbus::core {
namespace {

using test_support::paper_system;

std::unique_ptr<trace::TraceSource> uniform_trace(std::size_t cycles,
                                                  double load_rate = 0.4,
                                                  std::uint64_t seed = 7) {
  trace::SyntheticConfig cfg;
  cfg.style = trace::SyntheticStyle::uniform;
  cfg.cycles = cycles;
  cfg.load_rate = load_rate;
  cfg.seed = seed;
  return trace::make_synthetic_source(cfg, "uniform");
}

// ---------------------------------------------------------------- system

TEST(System, SizedAndCharacterised) {
  const DvsBusSystem& sys = paper_system();
  EXPECT_GT(sys.design().repeater_size, 10.0);
  EXPECT_LT(sys.design().repeater_size, 400.0);
  EXPECT_FALSE(sys.table().empty());
}

TEST(System, WorstDelayAtSizingCornerIsThePaperTarget) {
  const double d = paper_system().nominal_worst_delay(tech::worst_case_corner());
  EXPECT_NEAR(to_ps(d), 600.0, 8.0);
}

TEST(System, NominalWorstDelaySpreadAcrossFig5Corners) {
  // Fig. 5 X axis: roughly 420-600 ps from fastest to slowest corner.
  double prev = 1.0;  // seconds; larger than any delay
  for (const auto& corner : tech::fig5_corners()) {
    const double d = paper_system().nominal_worst_delay(corner);
    EXPECT_LT(d, prev) << corner.name();  // strictly faster along the list
    prev = d;
  }
  EXPECT_NEAR(to_ps(paper_system().nominal_worst_delay(tech::fig5_corners()[0])), 600, 8);
  const double fastest =
      to_ps(paper_system().nominal_worst_delay(tech::fig5_corners()[4]));
  EXPECT_GT(fastest, 380);
  EXPECT_LT(fastest, 500);
}

TEST(System, FloorsOrderedByProcessSpeed) {
  const DvsBusSystem& sys = paper_system();
  EXPECT_GT(sys.dvs_floor(tech::ProcessCorner::slow),
            sys.dvs_floor(tech::ProcessCorner::typical));
  EXPECT_GT(sys.dvs_floor(tech::ProcessCorner::typical),
            sys.dvs_floor(tech::ProcessCorner::fast));
  EXPECT_GT(sys.fixed_vs_supply(tech::ProcessCorner::typical),
            sys.dvs_floor(tech::ProcessCorner::typical));
}

TEST(System, ShadowFloorBelowFixedVsForSameCorner) {
  const auto corner = tech::typical_corner();
  EXPECT_LT(paper_system().shadow_floor(corner),
            paper_system().fixed_vs_supply(corner.process));
}

// ---------------------------------------------------------------- sweep

class SweepTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    sweep_ = new StaticSweepResult(static_voltage_sweep_streamed(
        paper_system(), tech::typical_corner(), *uniform_trace(40000)));
  }
  static void TearDownTestSuite() {
    delete sweep_;
    sweep_ = nullptr;
  }
  static StaticSweepResult* sweep_;
};

StaticSweepResult* SweepTest::sweep_ = nullptr;

TEST_F(SweepTest, PointsAscendFromFloorToNominal) {
  ASSERT_FALSE(sweep_->points.empty());
  EXPECT_NEAR(sweep_->points.back().supply, 1.2, 1e-12);
  EXPECT_GE(sweep_->points.front().supply, sweep_->floor_supply - 1e-12);
  for (std::size_t i = 1; i < sweep_->points.size(); ++i)
    EXPECT_GT(sweep_->points[i].supply, sweep_->points[i - 1].supply);
}

TEST_F(SweepTest, ErrorRateDecreasesWithSupply) {
  for (std::size_t i = 1; i < sweep_->points.size(); ++i)
    EXPECT_LE(sweep_->points[i].error_rate, sweep_->points[i - 1].error_rate + 1e-12);
  EXPECT_DOUBLE_EQ(sweep_->points.back().error_rate, 0.0);  // nominal: error free
}

TEST_F(SweepTest, EnergyIncreasesWithSupply) {
  for (std::size_t i = 1; i < sweep_->points.size(); ++i)
    EXPECT_GT(sweep_->points[i].bus_energy, sweep_->points[i - 1].bus_energy);
}

TEST_F(SweepTest, NormalisationAnchorsAtNominal) {
  EXPECT_NEAR(sweep_->points.back().norm_bus_energy, 1.0, 1e-12);
  // Total (with recovery overhead) sits on or slightly above the bus-only
  // curve; strictly above once errors appear.
  for (const auto& p : sweep_->points) {
    EXPECT_GE(p.norm_total_energy, p.norm_bus_energy);
    if (p.error_rate > 0.0) {
      EXPECT_GT(p.norm_total_energy, p.norm_bus_energy);
    }
  }
}

TEST_F(SweepTest, LowestPointSavesSubstantialEnergy) {
  // Scaling from 1.2 V to the typical-corner floor (~0.74 V) saves > 40%.
  EXPECT_LT(sweep_->points.front().norm_bus_energy, 0.6);
}

TEST_F(SweepTest, GainsForTargetsMonotoneInTarget) {
  const auto gains = gains_for_targets(*sweep_, {0.0, 0.02, 0.05});
  ASSERT_EQ(gains.size(), 3u);
  EXPECT_LE(gains[0].energy_gain, gains[1].energy_gain + 1e-12);
  EXPECT_LE(gains[1].energy_gain, gains[2].energy_gain + 1e-12);
  EXPECT_LE(gains[0].achieved_error_rate, 0.0 + 1e-12);
  EXPECT_LE(gains[1].chosen_supply, 1.2);
  // At the typical corner, even 0%-error static scaling recovers the margin
  // (paper: gains of ~1/3 at the typical corner with no errors).
  EXPECT_GT(gains[0].energy_gain, 0.15);
}

TEST_F(SweepTest, GainsEmptySweepRejected) {
  StaticSweepResult empty;
  EXPECT_THROW(gains_for_targets(empty, {0.0}), std::invalid_argument);
}

// ---------------------------------------------------------------- oracle

TEST(OracleDistribution, FractionsSumToOneAndRespectTarget) {
  const VoltageDistribution d = oracle_voltage_distribution(
      paper_system(), tech::typical_corner(), *uniform_trace(50000), 0.02);
  double total = 0.0;
  for (const auto& [v, f] : d.time_at_voltage) {
    EXPECT_GE(v, 0.6);
    EXPECT_LE(v, 1.25);
    total += f;
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
  EXPECT_LE(d.achieved_error_rate, 0.02 + 1e-9);
  EXPECT_EQ(d.benchmark, "uniform");
}

// ---------------------------------------------------------------- closed loop

TEST(ClosedLoop, ConvergesToFloorOnIdleTraffic) {
  // Descending from nominal takes one 20 mV step per 10k-cycle window:
  // ~18 windows to the typical-corner floor, so run well past that.
  trace::Trace idle{"idle", std::vector<BusWord>(300000, BusWord())};
  DvsRunConfig cfg;
  cfg.record_series = true;
  const DvsRunReport r = run_closed_loop_streamed(
      paper_system(), tech::typical_corner(), *trace::make_trace_view_source(idle), cfg);
  // No errors ever: every window steps down 20 mV until the floor.
  EXPECT_EQ(r.totals.errors, 0u);
  EXPECT_NEAR(r.floor_supply, paper_system().dvs_floor(tech::ProcessCorner::typical),
              1e-12);
  ASSERT_FALSE(r.series.empty());
  EXPECT_NEAR(r.series.back().supply, r.floor_supply, 1e-9);  // settled at the floor
  EXPECT_LT(r.average_supply, 1.05);  // average includes the descent
  EXPECT_GT(r.energy_gain(), 0.0);
}

TEST(ClosedLoop, ErrorRateStaysNearTargetBand) {
  const DvsRunReport r = run_closed_loop_streamed(
      paper_system(), tech::typical_corner(), *uniform_trace(200000), DvsRunConfig{});
  EXPECT_LT(r.error_rate(), 0.03);  // average close to the 2% ceiling
  EXPECT_EQ(r.totals.shadow_failures, 0u);
  EXPECT_GT(r.energy_gain(), 0.0);
}

TEST(ClosedLoop, SeriesRecordedWhenRequested) {
  DvsRunConfig cfg;
  cfg.record_series = true;
  const DvsRunReport r = run_closed_loop_streamed(
      paper_system(), tech::typical_corner(), *uniform_trace(50000), cfg);
  ASSERT_EQ(r.series.size(), 5u);  // one sample per 10k window
  for (const auto& s : r.series) {
    EXPECT_GE(s.supply, r.floor_supply - 1e-9);
    EXPECT_LE(s.supply, 1.2 + 1e-9);
    EXPECT_GE(s.error_rate, 0.0);
  }
  // Voltage descends over the first windows (starts at nominal).
  EXPECT_LT(r.series.back().supply, r.series.front().supply);
}

TEST(ClosedLoop, StartSupplyHonoured) {
  DvsRunConfig cfg;
  cfg.start_supply = 1.0;
  cfg.record_series = true;
  const DvsRunReport r = run_closed_loop_streamed(
      paper_system(), tech::typical_corner(), *uniform_trace(20000), cfg);
  ASSERT_FALSE(r.series.empty());
  EXPECT_LE(r.series.front().supply, 1.0 + 1e-9);
}

TEST(ClosedLoop, VoltageNeverLeavesRegulatorRange) {
  DvsRunConfig cfg;
  cfg.record_series = true;
  cfg.timing_jitter_sigma = 4e-12;
  const DvsRunReport r = run_closed_loop_streamed(
      paper_system(), tech::worst_case_corner(), *uniform_trace(150000, 0.6, 3), cfg);
  for (const auto& s : r.series) {
    EXPECT_GE(s.supply, r.floor_supply - 1e-9);
    EXPECT_LE(s.supply, 1.2 + 1e-9);
  }
  EXPECT_EQ(r.totals.shadow_failures, 0u);  // the floor keeps recovery safe
}

TEST(ClosedLoop, ConsecutiveRunsShareRegulatorState) {
  std::vector<std::unique_ptr<trace::TraceSource>> traces;
  traces.push_back(uniform_trace(60000, 0.4, 1));
  traces.push_back(uniform_trace(60000, 0.4, 2));
  DvsRunConfig cfg;
  cfg.record_series = true;
  const ConsecutiveRunReport r =
      run_consecutive_streamed(paper_system(), tech::typical_corner(), traces, cfg);
  ASSERT_EQ(r.per_trace.size(), 2u);
  EXPECT_EQ(r.per_trace[0].totals.cycles, 60000u);
  EXPECT_EQ(r.per_trace[1].totals.cycles, 60000u);
  // The second trace starts at the first trace's settled voltage, not at
  // nominal: its average supply is lower than the first's (which paid the
  // descent transient).
  EXPECT_LT(r.per_trace[1].average_supply, r.per_trace[0].average_supply);
  EXPECT_EQ(r.series.size(), 12u);  // stitched windows across both traces
}

// ---------------------------------------------------------------- fixed VS

TEST(FixedVsRun, ErrorFreeAndGainsMatchSupplySquared) {
  const DvsRunReport r =
      run_fixed_vs_streamed(paper_system(), tech::typical_corner(),
                            *uniform_trace(30000));
  EXPECT_EQ(r.totals.errors, 0u);
  const double v = paper_system().fixed_vs_supply(tech::ProcessCorner::typical);
  EXPECT_DOUBLE_EQ(r.average_supply, v);
  // Dynamic energy ~ V^2: the gain should be near 1 - (v/1.2)^2.
  const double expected = 1.0 - (v * v) / (1.2 * 1.2);
  EXPECT_NEAR(r.energy_gain(), expected, 0.05);
}

TEST(FixedVsRun, SlowProcessGainsAreZero) {
  tech::PvtCorner worst = tech::worst_case_corner();
  const DvsRunReport r =
      run_fixed_vs_streamed(paper_system(), worst, *uniform_trace(20000));
  EXPECT_DOUBLE_EQ(r.average_supply, 1.2);
  EXPECT_NEAR(r.energy_gain(), 0.0, 1e-9);
  EXPECT_EQ(r.totals.errors, 0u);
}

TEST(FixedVsRun, DvsBeatsFixedVsAtTheTypicalCorner) {
  const auto t = uniform_trace(200000, 0.3, 11);
  const DvsRunReport fixed =
      run_fixed_vs_streamed(paper_system(), tech::typical_corner(), *t);
  const DvsRunReport dvs =
      run_closed_loop_streamed(paper_system(), tech::typical_corner(), *t);
  EXPECT_GT(dvs.energy_gain(), fixed.energy_gain());
}

}  // namespace
}  // namespace razorbus::core

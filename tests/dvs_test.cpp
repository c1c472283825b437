#include <gtest/gtest.h>

#include "dvs/controller.hpp"
#include "dvs/fixed_vs.hpp"
#include "dvs/oracle.hpp"
#include "util/rng.hpp"
#include "dvs/proportional.hpp"
#include "dvs/regulator.hpp"
#include "test_support.hpp"
#include "trace/synthetic.hpp"

namespace razorbus::dvs {
namespace {

using test_support::small_system;

// ---------------------------------------------------------------- regulator

TEST(Regulator, AppliesChangeAfterRampDelay) {
  VoltageRegulator reg(1.2, 0.9, 1.2, 3000);
  EXPECT_TRUE(reg.request_change(-0.020, 0));
  EXPECT_DOUBLE_EQ(reg.advance(2999), 1.2);  // still ramping
  EXPECT_DOUBLE_EQ(reg.advance(3000), 1.18);
  EXPECT_FALSE(reg.change_pending());
}

TEST(Regulator, IgnoresRequestsWhileRamping) {
  VoltageRegulator reg(1.2, 0.9, 1.2, 3000);
  EXPECT_TRUE(reg.request_change(-0.020, 0));
  EXPECT_FALSE(reg.request_change(-0.020, 100));  // in flight
  reg.advance(3000);
  EXPECT_TRUE(reg.request_change(-0.020, 3001));
  EXPECT_DOUBLE_EQ(reg.advance(6001), 1.16);
}

TEST(Regulator, ClampsToFloorAndCeiling) {
  VoltageRegulator reg(0.91, 0.9, 1.2, 10);
  EXPECT_TRUE(reg.request_change(-0.050, 0));
  EXPECT_DOUBLE_EQ(reg.advance(10), 0.90);  // clamped at the floor
  EXPECT_FALSE(reg.request_change(-0.020, 20));  // already at the floor

  VoltageRegulator top(1.2, 0.9, 1.2, 10);
  EXPECT_FALSE(top.request_change(+0.020, 0));  // already at the ceiling
}

TEST(Regulator, InitialVoltageClamped) {
  VoltageRegulator reg(2.0, 0.9, 1.2, 10);
  EXPECT_DOUBLE_EQ(reg.voltage(), 1.2);
  EXPECT_THROW(VoltageRegulator(1.0, 1.2, 0.9, 10), std::invalid_argument);
}

TEST(Regulator, ZeroDelayAppliesOnNextAdvance) {
  VoltageRegulator reg(1.0, 0.9, 1.2, 0);
  reg.request_change(+0.020, 5);
  EXPECT_DOUBLE_EQ(reg.advance(5), 1.02);
}

TEST(Regulator, SubEpsilonResidualDeltaDoesNotBlockRealRequests) {
  // Regression: request_change compared target == voltage_ exactly, so a
  // sub-epsilon residual (e.g. the float dust left after stepping down to a
  // clamp) enqueued a no-op ramp that blocked real requests for the whole
  // ramp delay. The compare is now tolerant, like BusSimulator::set_supply.
  VoltageRegulator reg(0.90 + 2e-10, 0.9, 1.2, 3000);
  EXPECT_FALSE(reg.request_change(-0.020, 0));  // clamps to vmin: no-op delta
  EXPECT_FALSE(reg.change_pending());           // nothing in flight...
  EXPECT_TRUE(reg.request_change(+0.020, 10));  // ...so a real request lands now
  EXPECT_DOUBLE_EQ(reg.advance(3010), 0.90 + 2e-10 + 0.020);
}

// ---------------------------------------------------------------- controller

TEST(Controller, DecisionsFollowThePaperBand) {
  ControllerConfig cfg;
  cfg.window_cycles = 100;
  ThresholdController ctl(cfg);

  // Window 1: no errors -> rate 0 < 1% -> step down.
  VoltageDecision last = VoltageDecision::hold;
  for (int i = 0; i < 100; ++i) last = ctl.observe_cycle(false);
  EXPECT_EQ(last, VoltageDecision::step_down);
  EXPECT_DOUBLE_EQ(ctl.last_window_error_rate(), 0.0);

  // Window 2: 1.5% errors -> inside the band -> hold.
  for (int i = 0; i < 100; ++i)
    last = ctl.observe_cycle(i < 2);  // 2 errors? 2% is > band
  EXPECT_EQ(ctl.windows_completed(), 2u);
  // 2/100 = 2% which is NOT > 2%: hold.
  EXPECT_EQ(last, VoltageDecision::hold);

  // Window 3: 5% errors -> step up.
  for (int i = 0; i < 100; ++i) last = ctl.observe_cycle(i < 5);
  EXPECT_EQ(last, VoltageDecision::step_up);
  EXPECT_DOUBLE_EQ(ctl.last_window_error_rate(), 0.05);
}

TEST(Controller, MidWindowAlwaysHolds) {
  ControllerConfig cfg;
  cfg.window_cycles = 10;
  ThresholdController ctl(cfg);
  for (int i = 0; i < 9; ++i) EXPECT_EQ(ctl.observe_cycle(true), VoltageDecision::hold);
}

TEST(Controller, BoundaryRatesExactlyAtThresholds) {
  ControllerConfig cfg;
  cfg.window_cycles = 100;
  ThresholdController ctl(cfg);
  // Exactly 1%: not < 1% and not > 2% -> hold.
  VoltageDecision last = VoltageDecision::step_up;
  for (int i = 0; i < 100; ++i) last = ctl.observe_cycle(i < 1);
  EXPECT_EQ(last, VoltageDecision::hold);
}

TEST(Controller, ResetClearsState) {
  ControllerConfig cfg;
  cfg.window_cycles = 10;
  ThresholdController ctl(cfg);
  for (int i = 0; i < 10; ++i) ctl.observe_cycle(true);
  EXPECT_EQ(ctl.windows_completed(), 1u);
  ctl.reset();
  EXPECT_EQ(ctl.windows_completed(), 0u);
  EXPECT_DOUBLE_EQ(ctl.last_window_error_rate(), 0.0);
}

TEST(Controller, ValidatesConfig) {
  ControllerConfig bad;
  bad.window_cycles = 0;
  EXPECT_THROW(ThresholdController{bad}, std::invalid_argument);
  bad = ControllerConfig{};
  bad.high_threshold = 0.005;  // below low
  EXPECT_THROW(ThresholdController{bad}, std::invalid_argument);
  bad = ControllerConfig{};
  bad.voltage_step = 0.0;
  EXPECT_THROW(ThresholdController{bad}, std::invalid_argument);
}

// ---------------------------------------------------------------- fixed VS

TEST(FixedVs, SlowProcessCannotScaleAtAll) {
  // The bus is sized so the worst pattern exactly meets timing at the slow
  // corner with worst environment: the fixed-VS baseline stays at nominal
  // (paper Table 1: 0% gains).
  const double v = fixed_vs_voltage(small_system().design(), small_system().table(),
                                    tech::ProcessCorner::slow);
  EXPECT_DOUBLE_EQ(v, 1.2);
}

TEST(FixedVs, TypicalProcessRecoversGlobalMargin) {
  const double v = fixed_vs_voltage(small_system().design(), small_system().table(),
                                    tech::ProcessCorner::typical);
  EXPECT_LT(v, 1.2);
  EXPECT_GT(v, 1.0);  // paper: ~17% energy gain => ~1.09-1.12 V
}

TEST(FixedVs, DvsFloorIsBelowFixedVs) {
  // The shadow latch tolerates ~33% more delay, so the DVS floor must sit
  // clearly below the fixed-VS (error-free) supply. (Evaluated without IR
  // drop so the small test table's narrow grid can resolve both levels;
  // core_test covers the full conservative environment.)
  ConservativeEnvironment env;
  env.ir_drop_fraction = 0.0;
  const auto p = tech::ProcessCorner::slow;  // typical bottoms out the small grid
  const double fixed =
      fixed_vs_voltage(small_system().design(), small_system().table(), p, env);
  const double floor =
      dvs_floor_voltage(small_system().design(), small_system().table(), p, env);
  EXPECT_LT(floor, fixed);
}

TEST(FixedVs, LessConservativeEnvironmentAllowsLowerSupply) {
  ConservativeEnvironment mild;
  mild.ir_drop_fraction = 0.0;
  const double with_ir = fixed_vs_voltage(small_system().design(), small_system().table(),
                                          tech::ProcessCorner::typical);
  const double without_ir =
      fixed_vs_voltage(small_system().design(), small_system().table(),
                       tech::ProcessCorner::typical, mild);
  EXPECT_LT(without_ir, with_ir);
}


TEST(ThresholdControllerSegments, BatchMatchesPerCycleDecisions) {
  ControllerConfig cfg;
  cfg.window_cycles = 100;
  ThresholdController per_cycle(cfg);
  ThresholdController batched(cfg);
  Rng rng(17);

  std::uint64_t pending_cycles = 0, pending_errors = 0;
  for (int i = 0; i < 2500; ++i) {
    const bool error = rng.bernoulli(0.015);
    const VoltageDecision a = per_cycle.observe_cycle(error);
    ++pending_cycles;
    if (error) ++pending_errors;
    // Flush at irregular points; window boundaries always force a flush,
    // so a batch never crosses one. A boundary flush must reproduce the
    // per-cycle decision; a mid-window flush must hold, like a does.
    if (pending_cycles == batched.cycles_remaining_in_window() ||
        rng.bernoulli(0.1)) {
      const VoltageDecision b = batched.observe_segment(pending_cycles, pending_errors);
      EXPECT_EQ(b, a) << "cycle " << i;
      EXPECT_EQ(batched.windows_completed(), per_cycle.windows_completed());
      pending_cycles = 0;
      pending_errors = 0;
    }
  }
  EXPECT_EQ(batched.last_window_error_rate(), per_cycle.last_window_error_rate());
}

TEST(ThresholdControllerSegments, CrossingWindowBoundaryRejected) {
  ControllerConfig cfg;
  cfg.window_cycles = 100;
  ThresholdController ctl(cfg);
  ctl.observe_segment(40, 0);
  EXPECT_EQ(ctl.cycles_remaining_in_window(), 60u);
  EXPECT_THROW(ctl.observe_segment(61, 0), std::invalid_argument);
  EXPECT_THROW(ctl.observe_segment(10, 11), std::invalid_argument);
  EXPECT_EQ(ctl.observe_segment(60, 0), VoltageDecision::step_down);
}

TEST(RegulatorPending, NextChangeCycleTracksPending) {
  VoltageRegulator reg(1.2, 1.0, 1.2, 500);
  EXPECT_EQ(reg.next_change_cycle(), VoltageRegulator::kNoPendingChange);
  EXPECT_TRUE(reg.request_change(-0.02, 100));
  EXPECT_EQ(reg.next_change_cycle(), 600u);
  reg.advance(599);
  EXPECT_DOUBLE_EQ(reg.voltage(), 1.2);
  reg.advance(600);
  EXPECT_DOUBLE_EQ(reg.voltage(), 1.18);
  EXPECT_EQ(reg.next_change_cycle(), VoltageRegulator::kNoPendingChange);
}

// ---------------------------------------------------------------- oracle

class OracleTest : public ::testing::Test {
 protected:
  tech::PvtCorner env_{tech::ProcessCorner::slow, 100.0, 0.0};
  OracleSelector oracle_{small_system().design(), small_system().table(), env_};
};

TEST_F(OracleTest, CriticalIndexZeroForQuietCycle) {
  EXPECT_EQ(oracle_.critical_grid_index(0x0, 0x0), 0u);
}

TEST_F(OracleTest, CriticalIndexHigherForWorsePatterns) {
  // A lone rising wire (quiet neighbors) vs a full opposing checkerboard.
  const auto lone = oracle_.critical_grid_index(0x0, 0x10u);
  const auto checker = oracle_.critical_grid_index(0x55555555u, 0xAAAAAAAAu);
  EXPECT_LE(lone, checker);
  EXPECT_GT(checker, 0u);
}

TEST_F(OracleTest, ClassCriticalIndicesMonotoneInMiller) {
  const auto& idx = oracle_.class_critical_index();
  const int worst = lut::PatternClass::encode(
      lut::VictimActivity::rise, lut::NeighborActivity::fall,
      lut::NeighborActivity::fall);
  const int best = lut::PatternClass::encode(
      lut::VictimActivity::rise, lut::NeighborActivity::rise,
      lut::NeighborActivity::rise);
  EXPECT_GE(idx[static_cast<std::size_t>(worst)], idx[static_cast<std::size_t>(best)]);
}

TEST_F(OracleTest, ZeroTargetPicksVoltageWithNoErrors) {
  trace::SyntheticConfig cfg;
  cfg.style = trace::SyntheticStyle::uniform;
  cfg.cycles = 20000;
  cfg.load_rate = 0.3;
  const auto t = trace::make_synthetic_source(cfg, "uniform");

  OracleConfig ocfg;
  ocfg.window_cycles = 5000;
  ocfg.target_error_rate = 0.0;
  const OracleResult r = oracle_.select(*t, ocfg);
  EXPECT_DOUBLE_EQ(r.achieved_error_rate, 0.0);
  ASSERT_EQ(r.window_voltages.size(), 4u);
}

TEST_F(OracleTest, HigherTargetAllowsLowerVoltages) {
  trace::SyntheticConfig cfg;
  cfg.style = trace::SyntheticStyle::uniform;
  cfg.cycles = 40000;
  cfg.load_rate = 0.3;
  const auto t = trace::make_synthetic_source(cfg, "uniform");

  auto average_voltage = [&](double target) {
    OracleConfig ocfg;
    ocfg.window_cycles = 10000;
    ocfg.target_error_rate = target;
    const OracleResult r = oracle_.select(*t->clone(), ocfg);
    double sum = 0.0;
    for (const double v : r.window_voltages) sum += v;
    return sum / static_cast<double>(r.window_voltages.size());
  };
  EXPECT_LE(average_voltage(0.05), average_voltage(0.02));
  EXPECT_LE(average_voltage(0.02), average_voltage(0.0));
}

TEST_F(OracleTest, AchievedErrorRateRespectsTarget) {
  trace::SyntheticConfig cfg;
  cfg.style = trace::SyntheticStyle::uniform;
  cfg.cycles = 50000;
  cfg.load_rate = 0.4;
  const auto t = trace::make_synthetic_source(cfg, "uniform");

  OracleConfig ocfg;
  ocfg.window_cycles = 10000;
  ocfg.target_error_rate = 0.02;
  const OracleResult r = oracle_.select(*t, ocfg);
  EXPECT_LE(r.achieved_error_rate, 0.02 + 1e-9);
}

TEST_F(OracleTest, FloorIsRespected) {
  trace::SyntheticConfig cfg;
  cfg.cycles = 20000;
  cfg.load_rate = 0.05;  // nearly idle: the oracle wants to go very low
  const auto t = trace::make_synthetic_source(cfg, "idle");

  OracleConfig ocfg;
  ocfg.window_cycles = 5000;
  ocfg.target_error_rate = 0.05;
  ocfg.vmin = 1.10;
  const OracleResult r = oracle_.select(*t, ocfg);
  for (const double v : r.window_voltages) EXPECT_GE(v, 1.10 - 1e-9);
}

TEST_F(OracleTest, TimeFractionsSumToOne) {
  trace::SyntheticConfig cfg;
  cfg.cycles = 30000;
  cfg.load_rate = 0.3;
  const auto t = trace::make_synthetic_source(cfg, "u");
  OracleConfig ocfg;
  ocfg.target_error_rate = 0.02;
  const OracleResult r = oracle_.select(*t, ocfg);
  double total = 0.0;
  for (const auto& [v, frac] : r.time_at_voltage.fractions()) {
    (void)v;
    total += frac;
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST_F(OracleTest, ZeroWindowRejected) {
  OracleConfig bad;
  bad.window_cycles = 0;
  trace::Trace t{"t", {1, 2, 3}};
  EXPECT_THROW(oracle_.select(*trace::make_trace_view_source(t), bad),
               std::invalid_argument);
}

// ---------------------------------------------------------- proportional

TEST(Proportional, NoChangeMidWindowOrOnTarget) {
  ProportionalConfig cfg;
  cfg.window_cycles = 100;
  cfg.target_error_rate = 0.02;
  ProportionalController ctl(cfg);
  // Mid-window: always zero.
  for (int i = 0; i < 99; ++i) EXPECT_DOUBLE_EQ(ctl.observe_cycle(true), 0.0);
  // Window closes at exactly 99/100 errors -> huge positive request.
  EXPECT_GT(ctl.observe_cycle(true), 0.0);

  // A window exactly on target requests nothing.
  for (int i = 0; i < 100; ++i) {
    const double delta = ctl.observe_cycle(i < 2);  // 2% = target
    if (i == 99) {
      EXPECT_DOUBLE_EQ(delta, 0.0);
    }
  }
}

TEST(Proportional, RequestScalesWithOvershoot) {
  ProportionalConfig cfg;
  cfg.window_cycles = 1000;
  cfg.target_error_rate = 0.015;
  cfg.gain = 2.0;
  ProportionalController ctl(cfg);
  auto window = [&](int errors) {
    double delta = 0.0;
    for (int i = 0; i < 1000; ++i) delta = ctl.observe_cycle(i < errors);
    return delta;
  };
  // 2.5% (=1pp over target): 2.0 * 0.01 = 20 mV -> one quantum up.
  EXPECT_NEAR(window(25), 0.020, 1e-12);
  // 4.5% (=3pp over): 60 mV.
  EXPECT_NEAR(window(45), 0.060, 1e-12);
  // 0%: 1.5pp under -> -20 mV (truncated toward zero from -30 mV).
  EXPECT_NEAR(window(0), -0.020, 1e-12);
}

TEST(Proportional, ClampedToMaxStep) {
  ProportionalConfig cfg;
  cfg.window_cycles = 100;
  cfg.gain = 10.0;
  cfg.max_step = 0.060;
  ProportionalController ctl(cfg);
  double delta = 0.0;
  for (int i = 0; i < 100; ++i) delta = ctl.observe_cycle(true);  // 100% errors
  EXPECT_NEAR(delta, 0.060, 1e-12);
}

TEST(Proportional, SubQuantumRequestsRoundToZero) {
  ProportionalConfig cfg;
  cfg.window_cycles = 1000;
  cfg.target_error_rate = 0.015;
  cfg.gain = 1.0;  // 0.5pp overshoot -> 5 mV < quantum
  ProportionalController ctl(cfg);
  double delta = 0.0;
  for (int i = 0; i < 1000; ++i) delta = ctl.observe_cycle(i < 20);  // 2.0%
  EXPECT_DOUBLE_EQ(delta, 0.0);
}

TEST(Proportional, ValidatesConfig) {
  ProportionalConfig bad;
  bad.window_cycles = 0;
  EXPECT_THROW(ProportionalController{bad}, std::invalid_argument);
  bad = ProportionalConfig{};
  bad.gain = -1.0;
  EXPECT_THROW(ProportionalController{bad}, std::invalid_argument);
  bad = ProportionalConfig{};
  bad.target_error_rate = 1.5;
  EXPECT_THROW(ProportionalController{bad}, std::invalid_argument);
}

}  // namespace
}  // namespace razorbus::dvs

#include <gtest/gtest.h>

#include <cmath>

#include "tech/corner.hpp"
#include "tech/device.hpp"
#include "tech/leakage.hpp"
#include "tech/node.hpp"
#include "tech/supply.hpp"
#include "util/units.hpp"

namespace razorbus::tech {
namespace {

// ---------------------------------------------------------------- nodes

TEST(Node, PaperNodeParameters) {
  const TechnologyNode n = node_130nm();
  EXPECT_EQ(n.name, "130nm");
  EXPECT_DOUBLE_EQ(n.vdd_nominal, 1.2);
  EXPECT_DOUBLE_EQ(n.min_pitch(), 0.8_um);  // the paper's minimum pitch
  EXPECT_GT(n.vth0, 0.2);
  EXPECT_LT(n.vth0, 0.5);
}

TEST(Node, ScalingTrendsMatchHoFutureOfWires) {
  // Wire resistance per length grows with scaling; capacitance per length
  // stays roughly flat (paper Section 6 premise).
  const auto n130 = node_130nm();
  const auto n90 = node_90nm();
  const auto n65 = node_65nm();
  auto r_per_m = [](const TechnologyNode& n) {
    return n.resistivity / (n.wire_width * n.wire_thickness);
  };
  EXPECT_GT(r_per_m(n90), r_per_m(n130));
  EXPECT_GT(r_per_m(n65), r_per_m(n90));
  EXPECT_LT(n90.vdd_nominal, n130.vdd_nominal + 1e-12);
  EXPECT_GT(n65.i_leak_unit, n130.i_leak_unit);  // leakage grows with scaling
}

TEST(Node, LookupByName) {
  EXPECT_EQ(node_by_name("130nm").name, "130nm");
  EXPECT_EQ(node_by_name("90nm").name, "90nm");
  EXPECT_EQ(node_by_name("65nm").name, "65nm");
  EXPECT_THROW(node_by_name("45nm"), std::invalid_argument);
}

// ---------------------------------------------------------------- corners

TEST(Corner, StringRoundTrip) {
  for (auto c : {ProcessCorner::slow, ProcessCorner::typical, ProcessCorner::fast})
    EXPECT_EQ(process_corner_from_string(to_string(c)), c);
  EXPECT_THROW(process_corner_from_string("bogus"), std::invalid_argument);
}

TEST(Corner, DriveOrdering) {
  EXPECT_LT(corner_params(ProcessCorner::slow).drive_multiplier,
            corner_params(ProcessCorner::typical).drive_multiplier);
  EXPECT_LT(corner_params(ProcessCorner::typical).drive_multiplier,
            corner_params(ProcessCorner::fast).drive_multiplier);
  EXPECT_GT(corner_params(ProcessCorner::slow).vth_shift, 0.0);
  EXPECT_LT(corner_params(ProcessCorner::fast).vth_shift, 0.0);
}

TEST(Corner, EffectiveSupplyAppliesIrDrop) {
  const PvtCorner corner{ProcessCorner::slow, 100.0, 0.10};
  EXPECT_DOUBLE_EQ(corner.effective_supply(1.2), 1.08);
  const PvtCorner no_drop{ProcessCorner::typical, 25.0, 0.0};
  EXPECT_DOUBLE_EQ(no_drop.effective_supply(1.2), 1.2);
}

TEST(Corner, PaperCornerDefinitions) {
  const PvtCorner worst = worst_case_corner();
  EXPECT_EQ(worst.process, ProcessCorner::slow);
  EXPECT_DOUBLE_EQ(worst.temp_c, 100.0);
  EXPECT_DOUBLE_EQ(worst.ir_drop_fraction, 0.10);

  const PvtCorner typical = typical_corner();
  EXPECT_EQ(typical.process, ProcessCorner::typical);
  EXPECT_DOUBLE_EQ(typical.ir_drop_fraction, 0.0);
}

TEST(Corner, Fig5CornersOrderedSlowestToFastest) {
  const auto corners = fig5_corners();
  ASSERT_EQ(corners.size(), 5u);
  EXPECT_EQ(corners[0].process, ProcessCorner::slow);
  EXPECT_DOUBLE_EQ(corners[0].ir_drop_fraction, 0.10);
  EXPECT_EQ(corners[4].process, ProcessCorner::fast);
  EXPECT_DOUBLE_EQ(corners[4].temp_c, 25.0);
}

TEST(Corner, NameIsHumanReadable) {
  EXPECT_EQ(worst_case_corner().name(), "slow process, 100C, 10% IR drop");
  EXPECT_EQ(typical_corner().name(), "typical process, 100C, no IR drop");
}

// ---------------------------------------------------------------- driver

class DriverModelTest : public ::testing::Test {
 protected:
  DriverModel driver_{node_130nm()};
};

TEST_F(DriverModelTest, NominalResistanceMatchesUnitSpec) {
  // At (Vnom, typical, 25C) a size-1 driver has exactly r_unit.
  EXPECT_NEAR(driver_.effective_resistance(1.0, ProcessCorner::typical, 25.0, 1.2),
              node_130nm().r_unit, 1e-6);
}

TEST_F(DriverModelTest, ResistanceScalesInverselyWithSize) {
  const double r1 = driver_.effective_resistance(1.0, ProcessCorner::typical, 25.0, 1.2);
  const double r80 =
      driver_.effective_resistance(80.0, ProcessCorner::typical, 25.0, 1.2);
  EXPECT_NEAR(r1 / r80, 80.0, 1e-9);
}

TEST_F(DriverModelTest, ResistanceIncreasesAsSupplyDrops) {
  double prev = 0.0;
  for (double v = 1.2; v >= 0.7; v -= 0.1) {
    const double r = driver_.effective_resistance(1.0, ProcessCorner::typical, 25.0, v);
    EXPECT_GT(r, prev);
    prev = r;
  }
}

TEST_F(DriverModelTest, CornerOrderingOnResistance) {
  const double rs = driver_.effective_resistance(1.0, ProcessCorner::slow, 100.0, 1.2);
  const double rt = driver_.effective_resistance(1.0, ProcessCorner::typical, 100.0, 1.2);
  const double rf = driver_.effective_resistance(1.0, ProcessCorner::fast, 100.0, 1.2);
  EXPECT_GT(rs, rt);
  EXPECT_GT(rt, rf);
}

TEST_F(DriverModelTest, HotterIsSlower) {
  const double r25 = driver_.effective_resistance(1.0, ProcessCorner::typical, 25.0, 1.2);
  const double r100 =
      driver_.effective_resistance(1.0, ProcessCorner::typical, 100.0, 1.2);
  EXPECT_GT(r100, r25);
  // ... but only mildly (velocity saturation + Vth(T) compensation): under
  // 25% swing for the 75C step.
  EXPECT_LT(r100 / r25, 1.25);
}

TEST_F(DriverModelTest, ConductionLimit) {
  EXPECT_TRUE(driver_.conducts(ProcessCorner::typical, 25.0, 0.7));
  EXPECT_FALSE(driver_.conducts(ProcessCorner::typical, 25.0, 0.3));
  EXPECT_THROW(driver_.effective_resistance(1.0, ProcessCorner::typical, 25.0, 0.3),
               std::domain_error);
}

TEST_F(DriverModelTest, RejectsNonPositiveSize) {
  EXPECT_THROW(driver_.effective_resistance(0.0, ProcessCorner::typical, 25.0, 1.2),
               std::invalid_argument);
  EXPECT_THROW(driver_.effective_resistance(-3.0, ProcessCorner::typical, 25.0, 1.2),
               std::invalid_argument);
}

TEST_F(DriverModelTest, CapacitancesScaleWithSize) {
  EXPECT_DOUBLE_EQ(driver_.input_capacitance(10.0), 10.0 * node_130nm().c_in_unit);
  EXPECT_DOUBLE_EQ(driver_.self_capacitance(10.0), 10.0 * node_130nm().c_self_unit);
}

TEST_F(DriverModelTest, ShortCircuitEnergyScalesQuadratically) {
  const double e_nom = driver_.short_circuit_energy(1.0, 1.2);
  const double e_half = driver_.short_circuit_energy(1.0, 0.6);
  EXPECT_NEAR(e_half / e_nom, 0.25, 1e-9);
}

TEST_F(DriverModelTest, VthEffIncludesDiblAndTemperature) {
  const double vth_nom = driver_.vth_eff(ProcessCorner::typical, 25.0, 1.2);
  EXPECT_DOUBLE_EQ(vth_nom, node_130nm().vth0);
  // Lower supply raises Vth (less DIBL).
  EXPECT_GT(driver_.vth_eff(ProcessCorner::typical, 25.0, 0.9), vth_nom);
  // Higher temperature lowers Vth.
  EXPECT_LT(driver_.vth_eff(ProcessCorner::typical, 100.0, 1.2), vth_nom);
}

// Alpha-power sanity: the voltage-induced delay ratio from 1.2 V to 0.96 V
// should be in the vicinity of the analytic alpha-power prediction.
TEST_F(DriverModelTest, AlphaPowerVoltageScalingMagnitude) {
  const double r_hi =
      driver_.effective_resistance(1.0, ProcessCorner::typical, 100.0, 1.2);
  const double r_lo =
      driver_.effective_resistance(1.0, ProcessCorner::typical, 100.0, 0.96);
  EXPECT_GT(r_lo / r_hi, 1.10);
  EXPECT_LT(r_lo / r_hi, 1.45);
}

// ---------------------------------------------------------------- leakage

class LeakageTest : public ::testing::Test {
 protected:
  LeakageModel leak_{node_130nm()};
};

TEST_F(LeakageTest, CalibratedAtNominalConditions) {
  EXPECT_NEAR(leak_.current(1.0, ProcessCorner::typical, 25.0, 1.2),
              node_130nm().i_leak_unit, node_130nm().i_leak_unit * 1e-6);
}

TEST_F(LeakageTest, ScalesLinearlyWithSize) {
  const double i1 = leak_.current(1.0, ProcessCorner::typical, 25.0, 1.2);
  const double i50 = leak_.current(50.0, ProcessCorner::typical, 25.0, 1.2);
  EXPECT_NEAR(i50 / i1, 50.0, 1e-9);
}

TEST_F(LeakageTest, GrowsStronglyWithTemperature) {
  const double i25 = leak_.current(1.0, ProcessCorner::typical, 25.0, 1.2);
  const double i100 = leak_.current(1.0, ProcessCorner::typical, 100.0, 1.2);
  EXPECT_GT(i100 / i25, 5.0);    // subthreshold leakage explodes with T
  EXPECT_LT(i100 / i25, 100.0);  // ... but not absurdly
}

TEST_F(LeakageTest, DropsWithSupply) {
  const double i_hi = leak_.current(1.0, ProcessCorner::typical, 100.0, 1.2);
  const double i_lo = leak_.current(1.0, ProcessCorner::typical, 100.0, 0.9);
  EXPECT_LT(i_lo, i_hi);  // DIBL: lower VDD -> higher Vth -> less leakage
}

TEST_F(LeakageTest, FastCornerLeaksMore) {
  const double is = leak_.current(1.0, ProcessCorner::slow, 25.0, 1.2);
  const double it = leak_.current(1.0, ProcessCorner::typical, 25.0, 1.2);
  const double f = leak_.current(1.0, ProcessCorner::fast, 25.0, 1.2);
  EXPECT_LT(is, it);
  EXPECT_LT(it, f);
}

TEST_F(LeakageTest, EnergyIsCurrentTimesVoltageTimesTime) {
  const double i = leak_.current(10.0, ProcessCorner::typical, 100.0, 1.0);
  EXPECT_NEAR(leak_.energy(10.0, ProcessCorner::typical, 100.0, 1.0, 1e-9),
              i * 1.0 * 1e-9, 1e-24);
}

TEST_F(LeakageTest, ZeroVoltageNoLeakage) {
  EXPECT_DOUBLE_EQ(leak_.current(1.0, ProcessCorner::typical, 25.0, 0.0), 0.0);
}

TEST_F(LeakageTest, RejectsNonPositiveSize) {
  EXPECT_THROW(leak_.current(0.0, ProcessCorner::typical, 25.0, 1.2),
               std::invalid_argument);
}

// ---------------------------------------------------------------- supply

TEST(SupplyGrid, PaperGridHas20mVSteps) {
  const SupplyGrid grid(0.66, 1.20, 0.020);
  EXPECT_EQ(grid.size(), 28u);
  EXPECT_DOUBLE_EQ(grid.voltage(0), 0.66);
  EXPECT_NEAR(grid.voltage(27), 1.20, 1e-12);
  EXPECT_NEAR(grid.voltage(1) - grid.voltage(0), 0.020, 1e-12);
}

TEST(SupplyGrid, SnapAndIndex) {
  const SupplyGrid grid(0.9, 1.2, 0.020);
  EXPECT_NEAR(grid.snap(1.013), 1.02, 1e-12);
  EXPECT_NEAR(grid.snap(1.005), 1.00, 1e-12);
  EXPECT_EQ(grid.index_of(0.9), 0u);
  EXPECT_EQ(grid.index_of(10.0), grid.size() - 1);
  EXPECT_EQ(grid.index_of(-1.0), 0u);
}

TEST(SupplyGrid, StepUpAndDownSaturate) {
  const SupplyGrid grid(0.9, 1.0, 0.020);
  EXPECT_NEAR(grid.step_up(0.94), 0.96, 1e-12);
  EXPECT_NEAR(grid.step_down(0.94), 0.92, 1e-12);
  EXPECT_NEAR(grid.step_up(1.0), 1.0, 1e-12);
  EXPECT_NEAR(grid.step_down(0.9), 0.9, 1e-12);
}

TEST(SupplyGrid, VoltagesEnumeratesAll) {
  const SupplyGrid grid(1.0, 1.1, 0.050);
  const auto v = grid.voltages();
  ASSERT_EQ(v.size(), 3u);
  EXPECT_NEAR(v[1], 1.05, 1e-12);
}

TEST(SupplyGrid, RejectsBadRanges) {
  EXPECT_THROW(SupplyGrid(1.0, 0.9, 0.02), std::invalid_argument);
  EXPECT_THROW(SupplyGrid(0.9, 1.2, 0.0), std::invalid_argument);
  EXPECT_THROW(SupplyGrid(0.9, 1.2, -0.02), std::invalid_argument);
  EXPECT_THROW(SupplyGrid(0.9, 1.2, std::nan("")), std::invalid_argument);
}

TEST(SupplyGrid, OutOfRangeVoltageIndexThrows) {
  const SupplyGrid grid(0.9, 1.0, 0.020);
  EXPECT_THROW(grid.voltage(99), std::out_of_range);
}

}  // namespace
}  // namespace razorbus::tech

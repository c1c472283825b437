#include <gtest/gtest.h>

#include <cmath>
#include <utility>

#include "interconnect/bus_design.hpp"
#include "interconnect/elmore.hpp"
#include "interconnect/geometry.hpp"
#include "interconnect/rc_builder.hpp"
#include "tech/device.hpp"
#include "util/units.hpp"

namespace razorbus::interconnect {
namespace {

// ---------------------------------------------------------------- geometry

TEST(Geometry, PaperWireParasiticsInPlausibleRange) {
  const WireParasitics p =
      extract_parasitics(WireGeometry::from_node(tech::node_130nm()));
  // Global-layer 0.4 um Cu wire: tens of ohm/mm.
  EXPECT_GT(p.r_per_m, 20e3);
  EXPECT_LT(p.r_per_m, 200e3);
  // Total capacitance around 0.15-0.35 fF/um.
  const double c_total = p.cg_per_m + 2.0 * p.cc_per_m;
  EXPECT_GT(c_total, 0.10e-9);
  EXPECT_LT(c_total, 0.50e-9);
  EXPECT_GT(p.cc_to_cg_ratio(), 0.2);
}

TEST(Geometry, CouplingGrowsAsSpacingShrinks) {
  WireGeometry g = WireGeometry::from_node(tech::node_130nm());
  const double cc_wide = extract_parasitics(g).cc_per_m;
  g.spacing *= 0.5;
  const double cc_tight = extract_parasitics(g).cc_per_m;
  EXPECT_GT(cc_tight, 1.5 * cc_wide);
}

TEST(Geometry, GroundCapGrowsWithWidth) {
  WireGeometry g = WireGeometry::from_node(tech::node_130nm());
  const double cg_narrow = extract_parasitics(g).cg_per_m;
  g.width *= 2.0;
  const double cg_wide = extract_parasitics(g).cg_per_m;
  EXPECT_GT(cg_wide, cg_narrow);
}

TEST(Geometry, ResistanceFollowsCrossSection) {
  WireGeometry g = WireGeometry::from_node(tech::node_130nm());
  const double r0 = extract_parasitics(g).r_per_m;
  g.width *= 2.0;
  EXPECT_NEAR(extract_parasitics(g).r_per_m, r0 / 2.0, r0 * 1e-9);
}

TEST(Geometry, RejectsNonPositiveDimensions) {
  WireGeometry g = WireGeometry::from_node(tech::node_130nm());
  g.width = 0.0;
  EXPECT_THROW(extract_parasitics(g), std::invalid_argument);
}

// The Section 6 transform: Cc/Cg ratio x1.95, worst-case load and R constant.
TEST(Geometry, CouplingRatioTransformInvariants) {
  const WireParasitics p =
      extract_parasitics(WireGeometry::from_node(tech::node_130nm()));
  const WireParasitics q = scale_coupling_ratio(p, 1.95);
  EXPECT_NEAR(q.cc_to_cg_ratio(), 1.95 * p.cc_to_cg_ratio(), 1e-12);
  EXPECT_NEAR(q.worst_case_c_per_m(), p.worst_case_c_per_m(), 1e-20);
  EXPECT_DOUBLE_EQ(q.r_per_m, p.r_per_m);
  // Best-case (both neighbors in-phase) load DROPS: that is the whole point.
  EXPECT_LT(q.cg_per_m, p.cg_per_m);
}

TEST(Geometry, CouplingRatioIdentityAtOne) {
  const WireParasitics p =
      extract_parasitics(WireGeometry::from_node(tech::node_130nm()));
  const WireParasitics q = scale_coupling_ratio(p, 1.0);
  EXPECT_NEAR(q.cg_per_m, p.cg_per_m, 1e-20);
  EXPECT_NEAR(q.cc_per_m, p.cc_per_m, 1e-20);
}

TEST(Geometry, CouplingRatioRejectsNonPositive) {
  const WireParasitics p =
      extract_parasitics(WireGeometry::from_node(tech::node_130nm()));
  EXPECT_THROW(scale_coupling_ratio(p, 0.0), std::invalid_argument);
}

// ---------------------------------------------------------------- Elmore

TEST(Elmore, PaperEquationOne) {
  // t = R (Cg + 4 Cc) for the worst-case pattern.
  EXPECT_DOUBLE_EQ(pattern_worst_delay(100.0, 1e-12, 2e-12), 100.0 * 9e-12);
}

TEST(Elmore, PaperEquationTwo) {
  // Delta t per Miller step = R * Cc.
  EXPECT_DOUBLE_EQ(pattern_delay_step(100.0, 2e-12), 2e-10);
}

TEST(Elmore, SwitchedCapacitanceMillerFactors) {
  const WireParasitics p{60e3, 0.1e-9, 0.07e-9};
  // Both in phase: Cg only.
  EXPECT_DOUBLE_EQ(switched_capacitance_per_m(p, 0, 0), p.cg_per_m);
  // Both quiet: Cg + 2 Cc.
  EXPECT_DOUBLE_EQ(switched_capacitance_per_m(p, 1, 1), p.cg_per_m + 2.0 * p.cc_per_m);
  // Both opposing: Cg + 4 Cc (eq. 1).
  EXPECT_DOUBLE_EQ(switched_capacitance_per_m(p, 2, 2), p.cg_per_m + 4.0 * p.cc_per_m);
}

TEST(Elmore, StageDelayMonotonicInLoad) {
  const double base = stage_elmore_delay(300.0, 50e-15, 90.0, 500e-15, 100e-15);
  const double more_load = stage_elmore_delay(300.0, 50e-15, 90.0, 500e-15, 200e-15);
  EXPECT_GT(more_load, base);
}

TEST(Elmore, RepeatedLineScalesWithSegments) {
  const double one =
      repeated_line_delay(300.0, 50e-15, 120e-15, 90.0, 500e-15, 10e-15, 1);
  const double four =
      repeated_line_delay(300.0, 50e-15, 120e-15, 90.0, 500e-15, 10e-15, 4);
  EXPECT_GT(four, 3.0 * one);
  EXPECT_LT(four, 5.0 * one);
  EXPECT_THROW(repeated_line_delay(300.0, 50e-15, 120e-15, 90.0, 500e-15, 10e-15, 0),
               std::invalid_argument);
}

// ---------------------------------------------------------------- bus design

TEST(BusDesign, PaperTimingBudget) {
  const BusDesign bus = BusDesign::paper_bus();
  EXPECT_NEAR(to_ps(bus.clock_period()), 666.7, 0.1);   // 1.5 GHz
  EXPECT_NEAR(to_ps(bus.main_capture_limit()), 600.0, 0.1);  // 10% slack
  EXPECT_NEAR(to_ps(bus.shadow_capture_limit()), 822.2, 0.5);  // +33% of cycle
  EXPECT_NEAR(to_mm(bus.segment_length()), 1.5, 1e-9);  // repeater every 1.5 mm
}

TEST(BusDesign, ShieldEveryFourWires) {
  const BusDesign bus = BusDesign::paper_bus();
  // Group layout: [shield] w0 w1 w2 w3 [shield] w4 ... (Fig. 3).
  EXPECT_EQ(bus.left_neighbor(0), NeighborKind::shield);
  EXPECT_EQ(bus.right_neighbor(0), NeighborKind::signal);
  EXPECT_EQ(bus.left_neighbor(1), NeighborKind::signal);
  EXPECT_EQ(bus.right_neighbor(3), NeighborKind::shield);
  EXPECT_EQ(bus.left_neighbor(4), NeighborKind::shield);
  EXPECT_EQ(bus.right_neighbor(31), NeighborKind::shield);
  EXPECT_THROW(bus.left_neighbor(32), std::out_of_range);
  EXPECT_THROW(bus.right_neighbor(-1), std::out_of_range);
}

TEST(BusDesign, TrackCountIncludesShields) {
  const BusDesign bus = BusDesign::paper_bus();
  // 32 signals + 8 group shields + 1 leading shield.
  EXPECT_EQ(bus.total_tracks(), 41);
}

TEST(BusDesign, ModifiedBusKeepsWorstCaseLoad) {
  const BusDesign original = BusDesign::paper_bus();
  const BusDesign modified = BusDesign::modified_bus(1.95);
  EXPECT_NEAR(modified.parasitics.worst_case_c_per_m(),
              original.parasitics.worst_case_c_per_m(), 1e-20);
  EXPECT_NEAR(modified.parasitics.cc_to_cg_ratio(),
              1.95 * original.parasitics.cc_to_cg_ratio(), 1e-9);
}

TEST(BusDesign, ValidateCatchesInconsistencies) {
  BusDesign bus = BusDesign::paper_bus();
  bus.n_bits = 0;
  EXPECT_THROW(bus.validate(), std::invalid_argument);
  bus = BusDesign::paper_bus();
  bus.shadow_delay_fraction = 1.5;
  EXPECT_THROW(bus.validate(), std::invalid_argument);
  bus = BusDesign::paper_bus();
  bus.parasitics.cc_per_m = 0.0;
  EXPECT_THROW(bus.validate(), std::invalid_argument);
}

TEST(BusDesign, ScaledBusUsesNodeGeometry) {
  const BusDesign b90 = BusDesign::scaled_bus(tech::node_90nm());
  const BusDesign b130 = BusDesign::paper_bus();
  EXPECT_GT(b90.parasitics.r_per_m, b130.parasitics.r_per_m);
}

// ---------------------------------------------------------------- cluster

class ClusterTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    bus_ = new BusDesign(BusDesign::paper_bus());
    driver_ = new tech::DriverModel(bus_->node);
    size_repeaters(*bus_, *driver_, tech::worst_case_corner());
    characterizer_ = new ClusterCharacterizer(*bus_, *driver_);
  }
  static void TearDownTestSuite() {
    delete characterizer_;
    delete driver_;
    delete bus_;
    characterizer_ = nullptr;
    driver_ = nullptr;
    bus_ = nullptr;
  }

  static BusDesign* bus_;
  static tech::DriverModel* driver_;
  static ClusterCharacterizer* characterizer_;
};

BusDesign* ClusterTest::bus_ = nullptr;
tech::DriverModel* ClusterTest::driver_ = nullptr;
ClusterCharacterizer* ClusterTest::characterizer_ = nullptr;

TEST_F(ClusterTest, SizingHitsThePaperTarget) {
  // Worst pattern, worst corner, nominal supply net of IR drop -> 600 ps.
  const auto corner = tech::worst_case_corner();
  const double d = characterizer_->worst_case_delay(corner.effective_supply(1.2),
                                                    corner.process, corner.temp_c);
  EXPECT_NEAR(to_ps(d), to_ps(bus_->main_capture_limit()), 6.0);  // within 1%
}

TEST_F(ClusterTest, MillerOrderingOfPatternDelays) {
  // Delay must increase with the aggressors' opposition.
  auto delay_for = [&](WireActivity l, WireActivity r) {
    ClusterSpec spec;
    spec.victim = WireActivity::rise;
    spec.left = l;
    spec.right = r;
    spec.vdd = 1.2;
    spec.corner = tech::ProcessCorner::typical;
    spec.temp_c = 100.0;
    return characterizer_->run(spec).delay;
  };
  const double both_same = delay_for(WireActivity::rise, WireActivity::rise);
  const double quiet = delay_for(WireActivity::hold, WireActivity::hold);
  const double one_opposing = delay_for(WireActivity::fall, WireActivity::hold);
  const double both_opposing = delay_for(WireActivity::fall, WireActivity::fall);
  EXPECT_LT(both_same, quiet);
  EXPECT_LT(quiet, one_opposing);
  EXPECT_LT(one_opposing, both_opposing);
}

TEST_F(ClusterTest, ShieldBehavesLikeQuietNeighbor) {
  auto delay_for = [&](WireActivity l, WireActivity r) {
    ClusterSpec spec;
    spec.victim = WireActivity::rise;
    spec.left = l;
    spec.right = r;
    spec.vdd = 1.2;
    spec.corner = tech::ProcessCorner::typical;
    spec.temp_c = 100.0;
    return characterizer_->run(spec).delay;
  };
  const double shield = delay_for(WireActivity::shield, WireActivity::shield);
  const double hold = delay_for(WireActivity::hold, WireActivity::hold);
  // A shield is a stiffer "quiet neighbor" (tied to the rail, not through a
  // driver), so it should be at least as fast, and close.
  EXPECT_LE(shield, hold * 1.05);
  EXPECT_GT(shield, hold * 0.7);
}

TEST_F(ClusterTest, DelayGrowsAsSupplyDrops) {
  double prev = 0.0;
  for (double v : {1.2, 1.1, 1.0, 0.9}) {
    const double d =
        characterizer_->worst_case_delay(v, tech::ProcessCorner::typical, 100.0);
    EXPECT_GT(d, prev);
    prev = d;
  }
}

TEST_F(ClusterTest, NeighborSymmetry) {
  ClusterSpec a;
  a.victim = WireActivity::rise;
  a.left = WireActivity::fall;
  a.right = WireActivity::hold;
  a.vdd = 1.1;
  a.corner = tech::ProcessCorner::typical;
  a.temp_c = 100.0;
  ClusterSpec b = a;
  std::swap(b.left, b.right);
  EXPECT_NEAR(characterizer_->run(a).delay, characterizer_->run(b).delay, 1.5e-12);
}

TEST_F(ClusterTest, RiseAndFallDelaysMatchForSymmetricDrivers) {
  ClusterSpec rise;
  rise.victim = WireActivity::rise;
  rise.left = WireActivity::fall;
  rise.right = WireActivity::fall;
  rise.vdd = 1.1;
  rise.corner = tech::ProcessCorner::typical;
  rise.temp_c = 100.0;
  ClusterSpec fall = rise;
  fall.victim = WireActivity::fall;
  fall.left = WireActivity::rise;
  fall.right = WireActivity::rise;
  EXPECT_NEAR(characterizer_->run(rise).delay, characterizer_->run(fall).delay, 2e-12);
}

TEST_F(ClusterTest, RisingVictimDrawsFullSwingEnergy) {
  ClusterSpec spec;
  spec.victim = WireActivity::rise;
  spec.left = WireActivity::hold;
  spec.right = WireActivity::hold;
  spec.vdd = 1.2;
  spec.corner = tech::ProcessCorner::typical;
  spec.temp_c = 100.0;
  const ClusterResult r = characterizer_->run(spec);
  EXPECT_TRUE(r.settled);
  // Roughly C_wire * V^2 for 6 mm at ~0.25 fF/um effective: order 1-4 pJ.
  EXPECT_GT(r.victim_energy, 0.5e-12);
  EXPECT_LT(r.victim_energy, 8e-12);
}

TEST_F(ClusterTest, HeldVictimDrawsLittleEnergy) {
  ClusterSpec spec;
  spec.victim = WireActivity::hold_high;  // held high: recharges droop
  spec.left = WireActivity::fall;
  spec.right = WireActivity::fall;
  spec.vdd = 1.2;
  spec.corner = tech::ProcessCorner::typical;
  spec.temp_c = 100.0;
  const ClusterResult held = characterizer_->run(spec);
  EXPECT_LT(held.delay, 0.0);  // no victim transition -> no delay

  ClusterSpec swing = spec;
  swing.victim = WireActivity::rise;
  const ClusterResult full = characterizer_->run(swing);
  EXPECT_LT(held.victim_energy, 0.5 * full.victim_energy);
}

TEST_F(ClusterTest, EnergyDropsWithSupply) {
  auto energy_at = [&](double v) {
    ClusterSpec spec;
    spec.victim = WireActivity::rise;
    spec.left = WireActivity::hold;
    spec.right = WireActivity::hold;
    spec.vdd = v;
    spec.corner = tech::ProcessCorner::typical;
    spec.temp_c = 100.0;
    return characterizer_->run(spec).victim_energy;
  };
  const double e_nom = energy_at(1.2);
  const double e_low = energy_at(0.9);
  // Approximately quadratic: (0.9/1.2)^2 = 0.5625.
  EXPECT_NEAR(e_low / e_nom, 0.5625, 0.08);
}

TEST_F(ClusterTest, VictimShieldRejected) {
  ClusterSpec spec;
  spec.victim = WireActivity::shield;
  EXPECT_THROW(characterizer_->run(spec), std::invalid_argument);
}

TEST_F(ClusterTest, ModifiedBusImprovesTypicalPatternsOnly) {
  BusDesign modified = BusDesign::modified_bus(1.95);
  modified.repeater_size = bus_->repeater_size;  // same repeaters (same worst delay)
  const ClusterCharacterizer chr(modified, *driver_);

  const double worst_orig =
      characterizer_->worst_case_delay(1.2, tech::ProcessCorner::typical, 100.0);
  const double worst_mod = chr.worst_case_delay(1.2, tech::ProcessCorner::typical, 100.0);
  EXPECT_NEAR(worst_mod, worst_orig, 0.04 * worst_orig);  // unchanged worst case

  const double best_orig =
      characterizer_->best_case_delay(1.2, tech::ProcessCorner::typical, 100.0);
  const double best_mod = chr.best_case_delay(1.2, tech::ProcessCorner::typical, 100.0);
  EXPECT_LT(best_mod, 0.92 * best_orig);  // typical case clearly faster
}

TEST(SizeRepeaters, ThrowsWhenUnsized) {
  const BusDesign bus = BusDesign::paper_bus();  // repeater_size unset
  const tech::DriverModel driver(bus.node);
  EXPECT_THROW(ClusterCharacterizer(bus, driver), std::invalid_argument);
}

TEST(SizeRepeaters, InfeasibleTargetThrows) {
  BusDesign bus = BusDesign::paper_bus();
  bus.clock_freq = 40e9;  // 25 ps period: impossible for a 6 mm wire
  const tech::DriverModel driver(bus.node);
  EXPECT_THROW(size_repeaters(bus, driver, tech::worst_case_corner()),
               std::runtime_error);
}

TEST(SizeRepeaters, RejectsAnEmptyOrNonPositiveRange) {
  // lo <= 0 used to spin forever: the bracket doubles from lo.
  const tech::DriverModel driver(BusDesign::paper_bus().node);
  const double nan = std::nan("");
  for (const auto& [lo, hi] : {std::pair{0.0, 512.0}, std::pair{-8.0, 512.0},
                               std::pair{8.0, 8.0}, std::pair{64.0, 8.0},
                               std::pair{nan, 512.0}, std::pair{8.0, nan}}) {
    BusDesign bus = BusDesign::paper_bus();
    EXPECT_THROW(size_repeaters(bus, driver, tech::worst_case_corner(), lo, hi),
                 std::invalid_argument)
        << "lo=" << lo << " hi=" << hi;
    EXPECT_EQ(bus.repeater_size, 0.0);  // left unsized
  }
}

}  // namespace
}  // namespace razorbus::interconnect

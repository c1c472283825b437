#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <optional>
#include <sstream>
#include <utility>
#include <vector>

#include "interconnect/elmore.hpp"
#include "lut/cache.hpp"
#include "lut/pattern.hpp"
#include "lut/table.hpp"
#include "test_support.hpp"
#include "util/bits.hpp"

namespace razorbus::lut {
namespace {

using interconnect::BusDesign;
using test_support::small_lut_config;
using test_support::sized_paper_bus;

// ---------------------------------------------------------------- pattern

TEST(Pattern, EncodeDecodeRoundTrip) {
  for (int v = 0; v < 4; ++v) {
    for (int l = 0; l < 4; ++l) {
      for (int r = 0; r < 4; ++r) {
        const int cls = PatternClass::encode(static_cast<VictimActivity>(v),
                                             static_cast<NeighborActivity>(l),
                                             static_cast<NeighborActivity>(r));
        EXPECT_EQ(static_cast<int>(PatternClass::victim_of(cls)), v);
        EXPECT_EQ(static_cast<int>(PatternClass::left_of(cls)), l);
        EXPECT_EQ(static_cast<int>(PatternClass::right_of(cls)), r);
      }
    }
  }
}

TEST(Pattern, AllClassIdsDistinctAndInRange) {
  std::set<int> ids;
  for (int v = 0; v < 4; ++v)
    for (int l = 0; l < 4; ++l)
      for (int r = 0; r < 4; ++r)
        ids.insert(PatternClass::encode(static_cast<VictimActivity>(v),
                                        static_cast<NeighborActivity>(l),
                                        static_cast<NeighborActivity>(r)));
  EXPECT_EQ(ids.size(), static_cast<std::size_t>(PatternClass::kCount));
  EXPECT_EQ(*ids.begin(), 0);
  EXPECT_EQ(*ids.rbegin(), PatternClass::kCount - 1);
}

TEST(Pattern, CanonicalSwapsNeighbors) {
  const int cls = PatternClass::encode(VictimActivity::rise, NeighborActivity::shield,
                                       NeighborActivity::fall);
  const int canon = PatternClass::canonical(cls);
  EXPECT_EQ(PatternClass::left_of(canon), NeighborActivity::fall);
  EXPECT_EQ(PatternClass::right_of(canon), NeighborActivity::shield);
  EXPECT_EQ(PatternClass::victim_of(canon), VictimActivity::rise);
  EXPECT_TRUE(PatternClass::is_canonical(canon));
  EXPECT_FALSE(PatternClass::is_canonical(cls));
}

TEST(Pattern, CanonicalIsIdempotent) {
  for (int cls = 0; cls < PatternClass::kCount; ++cls)
    EXPECT_EQ(PatternClass::canonical(PatternClass::canonical(cls)),
              PatternClass::canonical(cls));
  EXPECT_THROW(PatternClass::canonical(-1), std::out_of_range);
  EXPECT_THROW(PatternClass::canonical(64), std::out_of_range);
}

TEST(Pattern, VictimSwitchClassification) {
  EXPECT_TRUE(PatternClass::victim_switches(
      PatternClass::encode(VictimActivity::rise, NeighborActivity::hold,
                           NeighborActivity::hold)));
  EXPECT_TRUE(PatternClass::victim_switches(
      PatternClass::encode(VictimActivity::fall, NeighborActivity::hold,
                           NeighborActivity::hold)));
  EXPECT_FALSE(PatternClass::victim_switches(
      PatternClass::encode(VictimActivity::hold_low, NeighborActivity::rise,
                           NeighborActivity::hold)));
  EXPECT_FALSE(PatternClass::victim_switches(
      PatternClass::encode(VictimActivity::hold_high, NeighborActivity::rise,
                           NeighborActivity::hold)));
}

TEST(Pattern, AnySwitchingDetectsQuietClasses) {
  EXPECT_FALSE(PatternClass::any_switching(
      PatternClass::encode(VictimActivity::hold_low, NeighborActivity::hold,
                           NeighborActivity::shield)));
  EXPECT_TRUE(PatternClass::any_switching(
      PatternClass::encode(VictimActivity::hold_low, NeighborActivity::fall,
                           NeighborActivity::shield)));
}

TEST(Pattern, ClassifyVictimFromBits) {
  EXPECT_EQ(classify_victim(false, true), VictimActivity::rise);
  EXPECT_EQ(classify_victim(true, false), VictimActivity::fall);
  EXPECT_EQ(classify_victim(false, false), VictimActivity::hold_low);
  EXPECT_EQ(classify_victim(true, true), VictimActivity::hold_high);
}

TEST(Pattern, ClassifyNeighborFromBits) {
  EXPECT_EQ(classify_neighbor(false, true), NeighborActivity::rise);
  EXPECT_EQ(classify_neighbor(true, false), NeighborActivity::fall);
  EXPECT_EQ(classify_neighbor(false, false), NeighborActivity::hold);
  EXPECT_EQ(classify_neighbor(true, true), NeighborActivity::hold);
}

TEST(Pattern, MillerFactorSums) {
  auto mf = [](VictimActivity v, NeighborActivity l, NeighborActivity r) {
    return miller_factor_sum(PatternClass::encode(v, l, r));
  };
  // Eq. 1: both neighbors opposing a rising victim -> 4.
  EXPECT_DOUBLE_EQ(
      mf(VictimActivity::rise, NeighborActivity::fall, NeighborActivity::fall), 4.0);
  // Both in phase -> 0.
  EXPECT_DOUBLE_EQ(
      mf(VictimActivity::rise, NeighborActivity::rise, NeighborActivity::rise), 0.0);
  // Quiet/shield neighbors -> 1 each.
  EXPECT_DOUBLE_EQ(
      mf(VictimActivity::rise, NeighborActivity::hold, NeighborActivity::shield), 2.0);
  // Falling victim mirrors.
  EXPECT_DOUBLE_EQ(
      mf(VictimActivity::fall, NeighborActivity::rise, NeighborActivity::rise), 4.0);
  // Holding victims have no delay hence no Miller sum.
  EXPECT_DOUBLE_EQ(
      mf(VictimActivity::hold_low, NeighborActivity::fall, NeighborActivity::fall), 0.0);
}

// ---------------------------------------------------------------- table

class TableTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    const tech::DriverModel driver(sized_paper_bus().node);
    table_ = new DelayEnergyTable(
        DelayEnergyTable::build(sized_paper_bus(), driver, small_lut_config()));
  }
  static void TearDownTestSuite() {
    delete table_;
    table_ = nullptr;
  }
  static DelayEnergyTable* table_;
};

DelayEnergyTable* TableTest::table_ = nullptr;

TEST_F(TableTest, AxesMatchConfig) {
  EXPECT_EQ(table_->temps().size(), 1u);
  EXPECT_EQ(table_->corners().size(), 2u);
  EXPECT_EQ(table_->grid().size(), 8u);  // 1.06 .. 1.20 at 20 mV
}

TEST_F(TableTest, WorstPatternSlowestAcrossClasses) {
  const int worst = PatternClass::encode(VictimActivity::rise, NeighborActivity::fall,
                                         NeighborActivity::fall);
  const double d_worst = table_->delay(worst, tech::ProcessCorner::slow, 100.0, 1.08);
  for (int cls = 0; cls < PatternClass::kCount; ++cls) {
    if (!PatternClass::victim_switches(cls)) continue;
    EXPECT_LE(table_->delay(cls, tech::ProcessCorner::slow, 100.0, 1.08),
              d_worst + 1e-15);
  }
}

TEST_F(TableTest, HoldClassesHaveNoDelay) {
  const int hold = PatternClass::encode(VictimActivity::hold_low, NeighborActivity::fall,
                                        NeighborActivity::fall);
  EXPECT_TRUE(std::isnan(table_->delay(hold, tech::ProcessCorner::typical, 100.0, 1.2)));
  // ... but a defined crosstalk-recharge energy, small compared to a full
  // transition. It can be mildly negative: charge pushed back into the rail
  // through held-high repeater stages (the aggressor's own row carries the
  // corresponding positive energy).
  const double e_hold = table_->energy(hold, tech::ProcessCorner::typical, 100.0, 1.2);
  const int swing = PatternClass::encode(VictimActivity::rise, NeighborActivity::hold,
                                         NeighborActivity::hold);
  const double e_swing = table_->energy(swing, tech::ProcessCorner::typical, 100.0, 1.2);
  EXPECT_LT(std::abs(e_hold), 0.6 * e_swing);
}

TEST_F(TableTest, QuietClassesHaveZeroEnergy) {
  const int quiet = PatternClass::encode(VictimActivity::hold_low, NeighborActivity::hold,
                                         NeighborActivity::shield);
  EXPECT_DOUBLE_EQ(table_->energy(quiet, tech::ProcessCorner::typical, 100.0, 1.2), 0.0);
}

TEST_F(TableTest, MirroredClassesShareValues) {
  const int a = PatternClass::encode(VictimActivity::rise, NeighborActivity::shield,
                                     NeighborActivity::fall);
  const int b = PatternClass::encode(VictimActivity::rise, NeighborActivity::fall,
                                     NeighborActivity::shield);
  EXPECT_DOUBLE_EQ(table_->delay(a, tech::ProcessCorner::typical, 100.0, 1.1),
                   table_->delay(b, tech::ProcessCorner::typical, 100.0, 1.1));
  EXPECT_DOUBLE_EQ(table_->energy(a, tech::ProcessCorner::typical, 100.0, 1.1),
                   table_->energy(b, tech::ProcessCorner::typical, 100.0, 1.1));
}

TEST_F(TableTest, DelayMonotonicInVoltageAndCorner) {
  const int worst = PatternClass::encode(VictimActivity::rise, NeighborActivity::fall,
                                         NeighborActivity::fall);
  double prev = 0.0;
  for (double v = 1.2; v >= 1.06; v -= 0.02) {
    const double d = table_->delay(worst, tech::ProcessCorner::typical, 100.0, v);
    EXPECT_GT(d, prev);
    prev = d;
  }
  EXPECT_GT(table_->delay(worst, tech::ProcessCorner::slow, 100.0, 1.2),
            table_->delay(worst, tech::ProcessCorner::typical, 100.0, 1.2));
}

TEST_F(TableTest, InterpolationBetweenGridPoints) {
  const int cls = PatternClass::encode(VictimActivity::rise, NeighborActivity::hold,
                                       NeighborActivity::hold);
  const double lo = table_->delay(cls, tech::ProcessCorner::typical, 100.0, 1.10);
  const double hi = table_->delay(cls, tech::ProcessCorner::typical, 100.0, 1.12);
  const double mid = table_->delay(cls, tech::ProcessCorner::typical, 100.0, 1.11);
  EXPECT_NEAR(mid, 0.5 * (lo + hi), 1e-15);
}

TEST_F(TableTest, OutOfRangeVoltageClampsToEnds) {
  const int cls = PatternClass::encode(VictimActivity::rise, NeighborActivity::hold,
                                       NeighborActivity::hold);
  EXPECT_DOUBLE_EQ(table_->delay(cls, tech::ProcessCorner::typical, 100.0, 2.0),
                   table_->delay(cls, tech::ProcessCorner::typical, 100.0, 1.20));
  EXPECT_DOUBLE_EQ(table_->delay(cls, tech::ProcessCorner::typical, 100.0, 0.5),
                   table_->delay(cls, tech::ProcessCorner::typical, 100.0, 1.06));
}

TEST_F(TableTest, SliceMatchesPointLookups) {
  const TableSlice slice = table_->slice(tech::ProcessCorner::typical, 100.0, 1.13);
  for (int cls = 0; cls < PatternClass::kCount; ++cls) {
    const double d = table_->delay(cls, tech::ProcessCorner::typical, 100.0, 1.13);
    if (std::isnan(d))
      EXPECT_TRUE(std::isnan(slice.delay[cls]));
    else
      EXPECT_DOUBLE_EQ(slice.delay[cls], d);
    EXPECT_DOUBLE_EQ(slice.energy[cls],
                     table_->energy(cls, tech::ProcessCorner::typical, 100.0, 1.13));
  }
}

// The dense lookup every table has always answered with, kept here as the
// reference implementation: the segment and fraction come from the uniform
// grid's formula, lerped over the table's raw grid values.
double dense_reference(const tech::SupplyGrid& grid, double v,
                       const std::function<double(std::size_t)>& at) {
  std::size_t lo = 0, hi = 0;
  double frac = 0.0;
  if (v >= grid.vmax()) {
    lo = hi = grid.size() - 1;
  } else if (v > grid.vmin()) {
    const double raw = (v - grid.vmin()) / grid.step();
    lo = static_cast<std::size_t>(raw);
    hi = std::min(lo + 1, grid.size() - 1);
    frac = raw - static_cast<double>(lo);
  }
  const double a = at(lo);
  const double b = at(hi);
  if (std::isinf(a) || std::isinf(b)) return frac < 1.0 ? a : b;
  return a + (b - a) * frac;
}

bool same_bits(double a, double b) {
  if (std::isnan(a) || std::isnan(b)) return std::isnan(a) && std::isnan(b);
  return bit_cast<std::uint64_t>(a) == bit_cast<std::uint64_t>(b);
}

// Exact grid voltages, one-ulp neighbours, accumulated (drifting) grid
// steps, midpoints, a fine off-grid sweep and voltages outside the grid.
std::vector<double> parity_voltages(const tech::SupplyGrid& grid) {
  std::vector<double> vs{0.0, grid.vmin() - grid.step(), grid.vmax() + 1e-12, 2.0};
  double accumulated = grid.vmin();
  for (std::size_t i = 0; i < grid.size(); ++i, accumulated += grid.step()) {
    const double v = grid.voltage(i);
    vs.insert(vs.end(), {v, std::nextafter(v, 0.0), std::nextafter(v, 10.0), accumulated,
                         v + 0.5 * grid.step()});
  }
  for (double v = grid.vmin() - 0.03; v < grid.vmax() + 0.03; v += 0.0007)
    vs.push_back(v);
  return vs;
}

// delay / energy / slice of `table` against dense_reference, bit for bit,
// at every corner, temperature, class and parity voltage.
void expect_dense_lookup_parity(const DelayEnergyTable& table) {
  std::size_t lookups = 0, mismatches = 0;
  for (std::size_t ci = 0; ci < table.corners().size(); ++ci) {
    const tech::ProcessCorner corner = table.corners()[ci];
    for (std::size_t ti = 0; ti < table.temps().size(); ++ti) {
      const double temp = table.temps()[ti];
      for (const double v : parity_voltages(table.grid())) {
        const TableSlice s = table.slice(corner, temp, v);
        for (int cls = 0; cls < PatternClass::kCount; ++cls) {
          const double d = dense_reference(table.grid(), v, [&](std::size_t vi) {
            return table.delay_at(cls, ci, ti, vi);
          });
          const double e = dense_reference(table.grid(), v, [&](std::size_t vi) {
            return table.energy_at(cls, ci, ti, vi);
          });
          const std::pair<double, double> checks[] = {
              {table.delay(cls, corner, temp, v), d},
              {table.energy(cls, corner, temp, v), e},
              {s.delay[cls], d},
              {s.energy[cls], e}};
          for (const auto& [got, want] : checks) {
            ++lookups;
            if (same_bits(got, want)) continue;
            if (mismatches++ == 0)
              ADD_FAILURE() << "corner " << ci << " temp " << temp << " class " << cls
                            << " v " << v << ": " << got << " != " << want;
          }
        }
      }
    }
  }
  EXPECT_EQ(mismatches, 0u) << "of " << lookups << " lookups";
}

TEST_F(TableTest, LookupsMatchDenseReferenceBitForBit) {
  expect_dense_lookup_parity(*table_);
  // Every corner and temperature axis: two of each on a shorter grid.
  const tech::DriverModel driver(sized_paper_bus().node);
  LutConfig cfg = small_lut_config();
  cfg.vmin = 1.12;
  cfg.temps = {25.0, 100.0};
  expect_dense_lookup_parity(DelayEnergyTable::build(sized_paper_bus(), driver, cfg));
}

TEST_F(TableTest, UncharacterisedAxesThrow) {
  const int cls = 0;
  EXPECT_THROW(table_->delay(cls, tech::ProcessCorner::fast, 100.0, 1.1),
               std::out_of_range);
  EXPECT_THROW(table_->delay(cls, tech::ProcessCorner::typical, 25.0, 1.1),
               std::out_of_range);
}

TEST_F(TableTest, SerializationRoundTrip) {
  std::stringstream buffer;
  table_->save(buffer, 0xdeadbeefull);
  const auto loaded = DelayEnergyTable::load(buffer, 0xdeadbeefull);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->grid().size(), table_->grid().size());
  for (int cls = 0; cls < PatternClass::kCount; ++cls) {
    const double a = table_->delay(cls, tech::ProcessCorner::slow, 100.0, 1.1);
    const double b = loaded->delay(cls, tech::ProcessCorner::slow, 100.0, 1.1);
    if (std::isnan(a))
      EXPECT_TRUE(std::isnan(b));
    else
      EXPECT_DOUBLE_EQ(a, b);
  }
}

TEST_F(TableTest, LoadRejectsWrongHash) {
  std::stringstream buffer;
  table_->save(buffer, 1);
  EXPECT_FALSE(DelayEnergyTable::load(buffer, 2).has_value());
}

TEST_F(TableTest, LoadRejectsGarbage) {
  std::stringstream buffer("not a table at all");
  EXPECT_FALSE(DelayEnergyTable::load(buffer, 0).has_value());
}

TEST_F(TableTest, LoadRejectsTruncated) {
  std::stringstream buffer;
  table_->save(buffer, 7);
  std::string data = buffer.str();
  data.resize(data.size() / 2);
  std::stringstream half(data);
  EXPECT_FALSE(DelayEnergyTable::load(half, 7).has_value());
}

// A header with the right magic and hash but a corrupt supply grid is "not
// a valid table": load returns empty, never throws or sizes a runaway grid.
TEST_F(TableTest, LoadRejectsCorruptGridHeader) {
  std::stringstream buffer;
  table_->save(buffer, 5);
  const std::string valid = buffer.str();
  // Layout: magic, hash, vmin, vmax, step, n_temps, n_corners, temps,
  // int32 corners, then the first band's n_points.
  constexpr std::size_t kVmax = 24;
  constexpr std::size_t kStep = 32;
  const std::size_t n_points_at =
      56 + 8 * table_->temps().size() + 4 * table_->corners().size();
  const auto patched = [&](std::string bytes, std::size_t offset, auto value) {
    std::memcpy(&bytes[offset], &value, sizeof(value));
    return bytes;
  };
  const tech::SupplyGrid& grid = table_->grid();
  // A grid of 4097 points whose band claims all of them but overruns the
  // bytes left in the stream.
  const double fine_step = (grid.vmax() - grid.vmin()) / 4096.0;
  const std::uint64_t fine_points = 4097;
  const std::pair<const char*, std::string> cases[] = {
      {"zero step", patched(valid, kStep, 0.0)},
      {"negative step", patched(valid, kStep, -0.02)},
      {"vmax below vmin", patched(valid, kVmax, grid.vmin() - 0.1)},
      {"NaN step", patched(valid, kStep, std::nan(""))},
      {"huge grid", patched(valid, kStep, 1e-15)},
      {"payload beyond the stream",
       patched(patched(valid, kStep, fine_step), n_points_at, fine_points)},
  };
  for (const auto& [what, bytes] : cases) {
    std::stringstream in(bytes);
    std::optional<DelayEnergyTable> loaded;
    EXPECT_NO_THROW(loaded = DelayEnergyTable::load(in, 5)) << what;
    EXPECT_FALSE(loaded.has_value()) << what;
  }
  std::stringstream intact(valid);
  EXPECT_TRUE(DelayEnergyTable::load(intact, 5).has_value());
}

// A band whose points are not the grid's own, strictly ascending from its
// first index to its last, and the retired flat-array RBLUT002 format are
// misses: the segment search relies on both ends being kept.
TEST_F(TableTest, LoadRejectsMalformedBands) {
  std::stringstream buffer;
  table_->save(buffer, 5);
  const std::string valid = buffer.str();
  const tech::SupplyGrid& grid = table_->grid();
  const std::size_t n = grid.size();
  ASSERT_EQ(table_->breakpoints(0, 0).size(), n);
  // The first band: n_points, its voltages, then [point][class] delays and
  // energies.
  const std::size_t band_at =
      56 + 8 * table_->temps().size() + 4 * table_->corners().size();
  const std::size_t volts_at = band_at + 8;
  const std::size_t row = 8 * PatternClass::kCount;
  const std::size_t band_end = volts_at + 8 * n + 2 * row * n;
  const auto patched = [&](std::size_t offset, auto value) {
    std::string bytes = valid;
    std::memcpy(&bytes[offset], &value, sizeof(value));
    return bytes;
  };
  // The first band without its point k: a self-consistent band that skips
  // one grid index.
  const auto dropped = [&](std::size_t k) {
    std::string bytes = valid.substr(0, band_at);
    const std::uint64_t kept = n - 1;
    bytes.append(reinterpret_cast<const char*>(&kept), sizeof(kept));
    const auto append_except = [&](std::size_t at, std::size_t width) {
      for (std::size_t i = 0; i < n; ++i)
        if (i != k) bytes.append(valid, at + i * width, width);
    };
    append_except(volts_at, 8);
    append_except(volts_at + 8 * n, row);
    append_except(volts_at + 8 * n + row * n, row);
    return bytes + valid.substr(band_end);
  };
  std::string swapped = valid;
  std::memcpy(&swapped[volts_at + 8], &valid[volts_at + 16], 8);
  std::memcpy(&swapped[volts_at + 16], &valid[volts_at + 8], 8);
  std::string old_magic = valid;
  std::memcpy(&old_magic[0], "RBLUT002", 8);

  const std::pair<const char*, std::string> cases[] = {
      {"RBLUT002 magic", old_magic},
      {"off-grid point", patched(volts_at + 8, std::nextafter(grid.voltage(1), 2.0))},
      {"NaN point", patched(volts_at + 8, std::nan(""))},
      {"duplicate point", patched(volts_at + 16, grid.voltage(1))},
      {"descending points", swapped},
      {"first index not 0", dropped(0)},
      {"last index not n-1", dropped(n - 1)},
  };
  for (const auto& [what, bytes] : cases) {
    std::stringstream in(bytes);
    std::optional<DelayEnergyTable> loaded;
    EXPECT_NO_THROW(loaded = DelayEnergyTable::load(in, 5)) << what;
    EXPECT_FALSE(loaded.has_value()) << what;
  }
  // Dropping an interior point is a valid band: lookups lerp across the gap.
  std::stringstream sparse(dropped(1));
  const auto loaded = DelayEnergyTable::load(sparse, 5);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->breakpoints(0, 0).size(), n - 1);
  EXPECT_EQ(loaded->breakpoints(0, 0)[1], 2u);
  std::stringstream intact(valid);
  EXPECT_TRUE(DelayEnergyTable::load(intact, 5).has_value());
}

TEST_F(TableTest, MinShadowSafeVoltageIsConsistent) {
  const std::optional<double> v = table_->min_shadow_safe_voltage(
      sized_paper_bus(), tech::ProcessCorner::slow, 100.0);
  ASSERT_TRUE(v.has_value());
  const int worst = PatternClass::encode(VictimActivity::rise, NeighborActivity::fall,
                                         NeighborActivity::fall);
  EXPECT_LE(table_->delay(worst, tech::ProcessCorner::slow, 100.0, *v),
            sized_paper_bus().shadow_capture_limit());
}

// Cross-check against first-order analytics: the characterised worst-case
// delay must land within a factor-of-two band around the Elmore estimate
// (Elmore is a known overestimate for distributed RC, ln2-scaled here).
TEST_F(TableTest, WorstDelayConsistentWithElmoreEstimate) {
  const auto& bus = sized_paper_bus();
  const tech::DriverModel driver(bus.node);
  const double r_drv = driver.effective_resistance(
      bus.repeater_size, tech::ProcessCorner::typical, 100.0, 1.2);
  const double estimate = interconnect::repeated_line_delay(
      r_drv, driver.self_capacitance(bus.repeater_size),
      driver.input_capacitance(bus.repeater_size),
      bus.parasitics.r_per_m * bus.segment_length(),
      bus.parasitics.worst_case_c_per_m() * bus.segment_length(),
      driver.input_capacitance(bus.receiver_size), bus.n_segments);

  const int worst = PatternClass::encode(VictimActivity::rise, NeighborActivity::fall,
                                         NeighborActivity::fall);
  const double simulated = table_->delay(worst, tech::ProcessCorner::typical, 100.0, 1.2);
  EXPECT_GT(simulated, 0.5 * estimate);
  EXPECT_LT(simulated, 2.0 * estimate);
}

// Monotonicity across ALL classes and both corners: delay never decreases
// as the supply drops (property sweep over the whole table).
TEST_F(TableTest, AllClassesMonotoneInSupply) {
  for (const auto corner : {tech::ProcessCorner::slow, tech::ProcessCorner::typical}) {
    for (int cls = 0; cls < PatternClass::kCount; ++cls) {
      if (!PatternClass::victim_switches(cls)) continue;
      double prev = 0.0;
      for (double v = 1.20; v >= 1.06 - 1e-9; v -= 0.02) {
        const double d = table_->delay(cls, corner, 100.0, v);
        EXPECT_GE(d, prev - 1e-15) << "class " << cls << " at " << v;
        prev = d;
      }
    }
  }
}

// ---------------------------------------------------------------- hashing

TEST(TableHash, SensitiveToDesignChanges) {
  const LutConfig config = small_lut_config();
  const BusDesign a = sized_paper_bus();
  BusDesign b = a;
  b.repeater_size += 1.0;
  BusDesign c = a;
  c.parasitics.cc_per_m *= 1.01;
  EXPECT_NE(table_key_hash(a, config), table_key_hash(b, config));
  EXPECT_NE(table_key_hash(a, config), table_key_hash(c, config));
  EXPECT_EQ(table_key_hash(a, config), table_key_hash(a, config));
}

TEST(TableHash, SensitiveToConfigChanges) {
  const BusDesign bus = sized_paper_bus();
  LutConfig a = small_lut_config();
  LutConfig b = a;
  b.vstep = 0.040;
  EXPECT_NE(table_key_hash(bus, a), table_key_hash(bus, b));
}

// ---------------------------------------------------------------- cache

TEST(Cache, BuildStoreReload) {
  // Use an isolated cache directory for this test.
  const std::string dir = "./.razorbus_cache_test";
  std::filesystem::remove_all(dir);
  setenv("RAZORBUS_CACHE_DIR", dir.c_str(), 1);

  const tech::DriverModel driver(sized_paper_bus().node);
  LutConfig tiny = small_lut_config();
  tiny.vmin = 1.18;  // 2 grid points only: fast build
  tiny.corners = {tech::ProcessCorner::typical};

  int build_calls = 0;
  const auto progress = [&build_calls](int, int) { ++build_calls; };
  const DelayEnergyTable first = build_or_load(sized_paper_bus(), driver, tiny, progress);
  EXPECT_GT(build_calls, 0);  // cache miss: built

  build_calls = 0;
  const DelayEnergyTable second =
      build_or_load(sized_paper_bus(), driver, tiny, progress);
  EXPECT_EQ(build_calls, 0);  // cache hit: loaded

  const int cls = PatternClass::encode(VictimActivity::rise, NeighborActivity::fall,
                                       NeighborActivity::fall);
  EXPECT_DOUBLE_EQ(first.delay(cls, tech::ProcessCorner::typical, 100.0, 1.2),
                   second.delay(cls, tech::ProcessCorner::typical, 100.0, 1.2));

  unsetenv("RAZORBUS_CACHE_DIR");
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace razorbus::lut

// Adaptive error-bounded characterization (docs/characterization.md): the
// tolerance-0 build keeps every grid index and agrees with full bisection
// refinement, bounded interpolation error and sim-count savings at the
// default tolerance, and lazy on-demand refinement below a sweep's
// characterised range.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <vector>

#include "core/experiments.hpp"
#include "core/system.hpp"
#include "lut/cache.hpp"
#include "lut/pattern.hpp"
#include "lut/table.hpp"
#include "test_support.hpp"
#include "trace/synthetic.hpp"

namespace razorbus::lut {
namespace {

using test_support::small_lut_config;
using test_support::sized_paper_bus;

// One pinned (corner, temperature) band over the FULL paper voltage range
// so the adaptive builder sees both the steep low-voltage region and the
// flat top of the curves.
LutConfig pinned_dense_config() {
  LutConfig cfg;  // default vmin/vmax/vstep: 0.66..1.20 in 20 mV
  cfg.temps = {100.0};
  cfg.corners = {tech::ProcessCorner::typical};
  return cfg;
}

TEST(Adaptive, ToleranceZeroKeepsEveryGridIndex) {
  const tech::DriverModel driver(sized_paper_bus().node);
  // Narrowed so every point conducts at both temperatures: non-conducting
  // points cost no transient run, which would hide a missing point from the
  // count below.
  LutConfig cfg = small_lut_config();
  cfg.vmin = 1.12;
  cfg.temps = {25.0, 100.0};

  BuildStats stats;
  const DelayEnergyTable full =
      DelayEnergyTable::build(sized_paper_bus(), driver, cfg, {}, nullptr, &stats);

  // Every (corner, temp) band keeps every grid index, and each point costs
  // one transient run per switching canonical class: the full grid's count
  // (every point of this grid conducts).
  const std::size_t n = full.grid().size();
  std::vector<std::size_t> every_index(n);
  for (std::size_t vi = 0; vi < n; ++vi) every_index[vi] = vi;
  for (std::size_t ci = 0; ci < cfg.corners.size(); ++ci)
    for (std::size_t ti = 0; ti < cfg.temps.size(); ++ti)
      EXPECT_EQ(full.breakpoints(ci, ti), every_index)
          << "corner " << ci << " temp " << ti;
  std::uint64_t switching_canonical = 0;
  for (int cls = 0; cls < PatternClass::kCount; ++cls)
    if (PatternClass::is_canonical(cls) && PatternClass::any_switching(cls))
      ++switching_canonical;
  const std::uint64_t points = cfg.corners.size() * cfg.temps.size() * n;
  EXPECT_EQ(stats.points, points);
  EXPECT_EQ(stats.transient_sims, points * switching_canonical);
  EXPECT_EQ(stats.store_hits, 0u);

  // A tolerance no real surface meets, from one seed interval, reaches
  // every interior index of the wider test grid as a bisection midpoint and
  // stores the tolerance-0 build's simulated values there, bit for bit.
  const LutConfig wide = small_lut_config();
  LutConfig exact = wide;
  exact.tolerance.relative = 1e-12;
  exact.tolerance.seed_intervals = 1;
  const DelayEnergyTable zero = DelayEnergyTable::build(sized_paper_bus(), driver, wide);
  const DelayEnergyTable refined =
      DelayEnergyTable::build(sized_paper_bus(), driver, exact);
  const std::size_t wide_n = zero.grid().size();
  ASSERT_GT(wide_n, 2u);
  std::vector<std::size_t> wide_index(wide_n);
  for (std::size_t vi = 0; vi < wide_n; ++vi) wide_index[vi] = vi;
  for (std::size_t ci = 0; ci < wide.corners.size(); ++ci) {
    for (std::size_t ti = 0; ti < wide.temps.size(); ++ti) {
      ASSERT_EQ(zero.breakpoints(ci, ti), wide_index);
      ASSERT_EQ(refined.breakpoints(ci, ti), wide_index);
      for (std::size_t vi = 0; vi < wide_n; ++vi) {
        for (int cls = 0; cls < PatternClass::kCount; ++cls) {
          const double zd = zero.delay_at(cls, ci, ti, vi);
          const double rd = refined.delay_at(cls, ci, ti, vi);
          if (std::isnan(zd))
            EXPECT_TRUE(std::isnan(rd)) << "class " << cls << " index " << vi;
          else
            EXPECT_EQ(zd, rd) << "class " << cls << " index " << vi;
          EXPECT_EQ(zero.energy_at(cls, ci, ti, vi), refined.energy_at(cls, ci, ti, vi))
              << "class " << cls << " index " << vi;
        }
      }
    }
  }
}

TEST(Adaptive, MatchesDenseWithinToleranceAtHalfTheSims) {
  const tech::DriverModel driver(sized_paper_bus().node);
  const LutConfig dense_cfg = pinned_dense_config();
  const LutConfig adaptive_cfg =
      core::lut_config_for_tolerance(core::kDefaultLutTolerance, dense_cfg);

  BuildStats dense_stats, adaptive_stats;
  const DelayEnergyTable dense = DelayEnergyTable::build(
      sized_paper_bus(), driver, dense_cfg, {}, nullptr, &dense_stats);
  const DelayEnergyTable adaptive = DelayEnergyTable::build(
      sized_paper_bus(), driver, adaptive_cfg, {}, nullptr, &adaptive_stats);

  // The headline acceptance bound: the adaptive build costs at most half
  // the dense build's transient runs at the default tolerance.
  ASSERT_GT(adaptive_stats.transient_sims, 0u);
  EXPECT_LE(adaptive_stats.transient_sims * 2, dense_stats.transient_sims)
      << "adaptive build no longer saves half the transient runs";

  // Interpolated lookups at every dense grid voltage agree within a small
  // multiple of the configured tolerance (accepted intervals are validated
  // at their probed midpoints; unprobed interior points carry a little
  // extra lerp error, hence the slack factor).
  const LutTolerance& tol = adaptive_cfg.tolerance;
  const double kSlack = 5.0;
  const tech::ProcessCorner corner = tech::ProcessCorner::typical;
  for (std::size_t vi = 0; vi < dense.grid().size(); ++vi) {
    const double v = dense.grid().voltage(vi);
    for (int cls = 0; cls < PatternClass::kCount; ++cls) {
      const double dd = dense.delay(cls, corner, 100.0, v);
      const double ad = adaptive.delay(cls, corner, 100.0, v);
      if (std::isnan(dd)) {
        EXPECT_TRUE(std::isnan(ad)) << "class " << cls << " v " << v;
      } else if (std::isinf(dd)) {
        // Non-conducting boundary: refinement pins it to adjacent grid
        // indices, so the classification must agree exactly.
        EXPECT_TRUE(std::isinf(ad)) << "class " << cls << " v " << v;
      } else {
        ASSERT_TRUE(std::isfinite(ad)) << "class " << cls << " v " << v;
        EXPECT_NEAR(ad, dd, kSlack * (tol.delay_abs_s + tol.relative * std::abs(dd)))
            << "class " << cls << " v " << v;
      }
      const double de = dense.energy(cls, corner, 100.0, v);
      const double ae = adaptive.energy(cls, corner, 100.0, v);
      EXPECT_NEAR(ae, de, kSlack * (tol.energy_abs_j + tol.relative * std::abs(de)))
          << "class " << cls << " v " << v;
    }
  }
}

TEST(Adaptive, SweepReportsMatchDenseWithinTolerance) {
  // End to end on a pinned corner: static sweep reports from an
  // adaptively-characterised system track the dense system's.
  core::SystemOptions dense_opts;
  dense_opts.lut_config = small_lut_config();
  dense_opts.use_cache = false;
  const core::DvsBusSystem dense_system(sized_paper_bus(), dense_opts);

  core::SystemOptions adaptive_opts = dense_opts;
  adaptive_opts.lut_config =
      core::lut_config_for_tolerance(core::kDefaultLutTolerance, dense_opts.lut_config);
  const core::DvsBusSystem adaptive_system(sized_paper_bus(), adaptive_opts);

  trace::SyntheticConfig tc;
  tc.cycles = 4000;
  tc.seed = 0x5eed;
  const std::vector<trace::Trace> traces{trace::generate_synthetic(tc, "adaptive")};
  const auto env = tech::typical_corner();

  const core::StaticSweepResult ds =
      core::static_voltage_sweep(dense_system, env, traces);
  const core::StaticSweepResult as =
      core::static_voltage_sweep(adaptive_system, env, traces);

  EXPECT_NEAR(as.floor_supply, ds.floor_supply, 0.021);  // at most one grid step
  ASSERT_GT(ds.points.size(), 1u);
  ASSERT_GT(as.points.size(), 1u);

  // Compare points at matching supplies (floors may differ by a step, so
  // the lists can be offset).
  std::size_t matched = 0;
  for (const auto& ap : as.points) {
    const core::SweepPoint* dp = nullptr;
    for (const auto& p : ds.points)
      if (std::abs(p.supply - ap.supply) < 1e-9) dp = &p;
    if (!dp) continue;
    ++matched;
    EXPECT_NEAR(ap.norm_bus_energy, dp->norm_bus_energy,
                0.05 * std::abs(dp->norm_bus_energy) + 1e-6)
        << "supply " << ap.supply;
    // Error rates live on a cliff: a within-tolerance delay shift can move
    // the cliff by one grid step, so bracket against the dense neighbours.
    double lo = 1.0, hi = 0.0;  // error rate falls as supply rises
    for (std::size_t i = 0; i < ds.points.size(); ++i) {
      if (std::abs(ds.points[i].supply - ap.supply) < 1e-9) {
        lo = i + 1 < ds.points.size() ? ds.points[i + 1].error_rate : ds.points[i].error_rate;
        hi = i > 0 ? ds.points[i - 1].error_rate : ds.points[i].error_rate;
      }
    }
    EXPECT_GE(ap.error_rate, lo - 0.02) << "supply " << ap.supply;
    EXPECT_LE(ap.error_rate, hi + 0.02) << "supply " << ap.supply;
  }
  EXPECT_GE(matched + 1, as.points.size());  // at most the floor point unmatched
  EXPECT_GE(matched, 2u);
}

TEST(Adaptive, LazyRefinementBelowCharacterisedRange) {
  const std::string dir = "./.razorbus_lazy_refine_test";
  const char* prev = std::getenv("RAZORBUS_CACHE_DIR");
  const std::string prev_dir = prev ? prev : "";
  std::filesystem::remove_all(dir);
  setenv("RAZORBUS_CACHE_DIR", dir.c_str(), 1);

  const tech::DriverModel driver(sized_paper_bus().node);
  LutConfig narrow;
  narrow.vmin = 1.10;
  narrow.vmax = 1.20;
  narrow.temps = {100.0};
  narrow.corners = {tech::ProcessCorner::typical};
  narrow = core::lut_config_for_tolerance(core::kDefaultLutTolerance, narrow);

  // build_or_load attaches the lazy refiner to tables with a tolerance.
  const DelayEnergyTable table =
      build_or_load(sized_paper_bus(), driver, narrow, {});
  EXPECT_EQ(table.refiner_sims(), 0u);

  // A query 70 mV below the sweep range triggers on-demand anchors instead
  // of clamping to the 1.10 V edge values.
  const int cls = PatternClass::encode(VictimActivity::rise, NeighborActivity::fall,
                                       NeighborActivity::fall);
  const double v_below = 1.03;
  const double d_below = table.delay(cls, tech::ProcessCorner::typical, 100.0, v_below);
  const double e_below = table.energy(cls, tech::ProcessCorner::typical, 100.0, v_below);
  const std::uint64_t sims_after_first = table.refiner_sims();
  EXPECT_GT(sims_after_first, 0u);

  // Against a dense reference that covers the point for real: anchors sit
  // on the same 20 mV pitch (extended downward from 1.10 V), so the values
  // must be close — and far from the clamped 1.10 V edge value.
  LutConfig wide;
  wide.vmin = 1.00;
  wide.vmax = 1.20;
  wide.temps = {100.0};
  wide.corners = {tech::ProcessCorner::typical};
  const DelayEnergyTable reference =
      DelayEnergyTable::build(sized_paper_bus(), driver, wide);
  const double d_ref = reference.delay(cls, tech::ProcessCorner::typical, 100.0, v_below);
  const double e_ref = reference.energy(cls, tech::ProcessCorner::typical, 100.0, v_below);
  ASSERT_TRUE(std::isfinite(d_ref));
  EXPECT_NEAR(d_below, d_ref, 0.10 * std::abs(d_ref));
  EXPECT_NEAR(e_below, e_ref, 0.10 * std::abs(e_ref));
  const double d_edge = table.delay(cls, tech::ProcessCorner::typical, 100.0, 1.10);
  EXPECT_GT(d_below, d_edge);  // lower supply really is slower, not clamped

  // Repeating the query (and its whole slice) reuses the cached anchors:
  // no new transient runs.
  const double d_again = table.delay(cls, tech::ProcessCorner::typical, 100.0, v_below);
  EXPECT_EQ(d_again, d_below);
  const TableSlice s = table.slice(tech::ProcessCorner::typical, 100.0, v_below);
  EXPECT_EQ(s.delay[cls], d_below);
  EXPECT_EQ(s.energy[cls], e_below);
  EXPECT_EQ(table.refiner_sims(), sims_after_first);

  // The same grid at tolerance 0 gets no refiner: it clamps to the edge.
  LutConfig narrow_zero = narrow;
  narrow_zero.tolerance = LutTolerance{};
  const DelayEnergyTable clamped =
      build_or_load(sized_paper_bus(), driver, narrow_zero, {});
  EXPECT_EQ(clamped.delay(cls, tech::ProcessCorner::typical, 100.0, v_below),
            clamped.delay(cls, tech::ProcessCorner::typical, 100.0, 1.10));
  EXPECT_EQ(clamped.refiner_sims(), 0u);

  if (prev)
    setenv("RAZORBUS_CACHE_DIR", prev_dir.c_str(), 1);
  else
    unsetenv("RAZORBUS_CACHE_DIR");
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace razorbus::lut

// Delay / energy lookup tables.
//
// DelayEnergyTable stores, for every (process corner, temperature, supply
// grid point, pattern class):
//   * the victim's in-to-out delay (seconds; NaN when the victim holds) and
//   * the energy drawn from the supply rail by the victim's repeaters (J),
// characterised by transient simulation of the 3-wire cluster. The table is
// the bridge between circuit-level fidelity and architectural simulation
// speed: building it costs thousands of transient runs (done once, cached
// on disk), after which millions of bus cycles evaluate via table lookups —
// exactly the methodology of the paper's Section 3.
//
// One storage (docs/characterization.md): a band per (corner, temperature)
// holding a sorted subset of the uniform reference grid's indices with
// their per-class values. LutConfig::tolerance chooses the subset:
//   * tolerance 0 (the default) keeps every grid index;
//   * a positive tolerance keeps only the indices where linear
//     interpolation misses the simulated surface by more than the bound
//     (recursive bisection per band).
// Every lookup locates its voltage with the grid's own formula and then
// lerps across the kept band segment around it, so a tolerance-0 table
// answers exactly as a plain uniform-grid table would.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "interconnect/bus_design.hpp"
#include "lut/pattern.hpp"
#include "tech/corner.hpp"
#include "tech/device.hpp"
#include "tech/supply.hpp"

namespace razorbus::lut {

class PointStore;
class LazyRefiner;

// Error bound for adaptive characterization. An interval [lo, hi] of the
// reference grid is accepted when, for every canonical switching class,
// the simulated midpoint is within
//     |sim - lerp(lo, hi)| <= abs + relative * |sim|
// for both delay (abs = delay_abs_s) and energy (abs = energy_abs_j);
// otherwise the midpoint becomes a breakpoint and both halves recurse.
// All-zero bounds (the default) are tolerance 0: every grid index is kept
// and no bisection runs.
struct LutTolerance {
  double relative = 0.0;      // fraction of the simulated value
  double delay_abs_s = 0.0;   // absolute delay floor (seconds)
  double energy_abs_j = 0.0;  // absolute energy floor (joules)
  // Stop splitting intervals narrower than 2 * min_step volts (0 means
  // refine down to the reference grid's resolution).
  double min_step = 0.0;
  // Initial uniform seed intervals per (corner, temperature) band.
  int seed_intervals = 4;

  bool enabled() const {
    return relative > 0.0 || delay_abs_s > 0.0 || energy_abs_j > 0.0;
  }
};

struct LutConfig {
  // Grid of DRIVER-EFFECTIVE voltages. It must extend below the regulator
  // minimum by the worst IR drop so droopy lookups stay in range.
  double vmin = 0.66;
  double vmax = 1.20;
  double vstep = 0.020;
  std::vector<double> temps{25.0, 100.0};
  std::vector<tech::ProcessCorner> corners{
      tech::ProcessCorner::slow, tech::ProcessCorner::typical, tech::ProcessCorner::fast};
  // Tolerance 0 by default: every grid index is characterised and kept.
  // See lut_config_for_tolerance() in core/experiments.
  LutTolerance tolerance{};

  // The uniform voltage axis implied by vmin/vmax/vstep. Single source of
  // truth for the grid constants — DelayEnergyTable's default grid and
  // every band's candidate indices derive from it.
  tech::SupplyGrid reference_grid() const {
    return tech::SupplyGrid(vmin, vmax, vstep);
  }
};

// Cost counters for one build() call. transient_sims is the number of
// actual transient runs performed; store_hits counts per-class values
// answered by the point store instead.
struct BuildStats {
  std::uint64_t transient_sims = 0;
  std::uint64_t store_hits = 0;
  std::uint64_t points = 0;  // characterised (corner, temp, voltage) points
};

// One (corner, temperature, voltage) slice: per-class arrays used in the
// bus simulator's hot loop.
struct TableSlice {
  double delay[PatternClass::kCount];   // seconds; NaN where victim holds
  double energy[PatternClass::kCount];  // joules
};

class DelayEnergyTable {
 public:
  // Empty table (no characterised values); assign from build()/load()
  // before use. Lookups on an empty table throw.
  DelayEnergyTable() : grid_(LutConfig{}.reference_grid()) {}
  bool empty() const { return bands_.empty(); }

  // Characterise `design` (repeaters must be sized) with transient runs.
  // `progress` (optional) is called with (done, total) as sims complete;
  // `total` is always the full-grid upper bound, so builds with a positive
  // tolerance finish early and report (total, total) once at the end.
  // `store` (optional) answers already-simulated points without transient
  // runs and accumulates new ones; `stats` (optional) receives the cost
  // counters for this build.
  static DelayEnergyTable build(const interconnect::BusDesign& design,
                                const tech::DriverModel& driver, const LutConfig& config,
                                const std::function<void(int, int)>& progress = {},
                                PointStore* store = nullptr,
                                BuildStats* stats = nullptr);

  // Uniform reference grid: regulators and sweeps step on it, and every
  // lookup locates its voltage on it before reading the band.
  const tech::SupplyGrid& grid() const { return grid_; }
  const std::vector<double>& temps() const { return temps_; }
  const std::vector<tech::ProcessCorner>& corners() const { return corners_; }

  // Kept reference-grid indices of one (corner, temp) band, ascending,
  // always from 0 to grid().size() - 1 (every index at tolerance 0).
  const std::vector<std::size_t>& breakpoints(std::size_t corner_idx,
                                              std::size_t temp_idx) const;

  // Voltage-interpolated lookups (v is the driver-effective supply).
  // Delay is NaN for victim-hold classes; energy is always defined.
  double delay(int pattern_class, tech::ProcessCorner corner, double temp_c,
               double v) const;
  double energy(int pattern_class, tech::ProcessCorner corner, double temp_c,
                double v) const;

  // Interpolated slice for a whole operating point: one call per regulator
  // voltage change instead of per cycle.
  TableSlice slice(tech::ProcessCorner corner, double temp_c, double v) const;

  // Lowest characterised voltage at which the worst-case pattern still
  // meets the shadow-latch capture limit (the paper's conservative
  // regulator floor). nullopt when even vmax fails; vmin if all pass.
  std::optional<double> min_shadow_safe_voltage(const interconnect::BusDesign& design,
                                                tech::ProcessCorner corner,
                                                double temp_c) const;

  // Attach on-demand refinement: lookups below the characterised range
  // (e.g. a drift campaign wandering under a sweep's vmin) simulate fixed
  // extension anchors lazily instead of clamping. `tolerance` is the one
  // the table was built with: a tolerance-0 table attaches nothing and
  // keeps clamp semantics. Results are independent of query order and
  // thread count.
  void attach_refiner(const interconnect::BusDesign& design,
                      const tech::DriverModel& driver, const LutTolerance& tolerance,
                      std::shared_ptr<PointStore> store);
  // Transient runs performed by the attached refiner so far (0 if none).
  std::uint64_t refiner_sims() const;

  // --- Serialization (versioned binary format with config hash) ---
  void save(std::ostream& os, std::uint64_t key_hash) const;
  // Empty when the stream is not a valid table or the hash mismatches.
  static std::optional<DelayEnergyTable> load(std::istream& is,
                                              std::uint64_t expected_hash);

  // Raw (non-interpolated) accessors used by tests. v_idx indexes the
  // band's kept points: breakpoints()[v_idx] is its grid index, so at
  // tolerance 0 v_idx is the grid index itself.
  double delay_at(int pattern_class, std::size_t corner_idx, std::size_t temp_idx,
                  std::size_t v_idx) const;
  double energy_at(int pattern_class, std::size_t corner_idx, std::size_t temp_idx,
                   std::size_t v_idx) const;

 private:
  // One (corner, temperature): kept grid indices and their values laid out
  // [point][class], parallel to indices.
  struct Band {
    std::vector<std::size_t> indices;
    std::vector<double> delays;
    std::vector<double> energies;
  };

  std::size_t corner_index(tech::ProcessCorner corner) const;
  std::size_t temp_index(double temp_c) const;
  const Band& band(std::size_t corner_idx, std::size_t temp_idx) const;

  tech::SupplyGrid grid_;
  std::vector<double> temps_;
  std::vector<tech::ProcessCorner> corners_;
  std::vector<Band> bands_;               // [corner * temps + temp]
  std::shared_ptr<LazyRefiner> refiner_;  // optional
};

// Stable FNV-1a hash of everything the table depends on: the design
// content hash (point_store.hpp) plus the LUT config — grid extent, temps,
// corners, the storage format revision, and the tolerance when it is
// positive. Used as the disk-cache key.
std::uint64_t table_key_hash(const interconnect::BusDesign& design,
                             const LutConfig& config);

}  // namespace razorbus::lut

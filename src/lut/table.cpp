#include "lut/table.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <istream>
#include <limits>
#include <map>
#include <ostream>
#include <stdexcept>
#include <tuple>
#include <vector>

#include "lut/point_store.hpp"
#include "util/binary_io.hpp"
#include "util/bits.hpp"
#include "util/parallel.hpp"
#include "util/thread_annotations.hpp"

namespace razorbus::lut {

namespace {

// Band storage: per (corner, temp), the kept points written as grid
// voltages, then their per-class delays and energies. The retired RBLUT002
// layout (flat per-voltage arrays) is a miss.
constexpr char kMagic[8] = {'R', 'B', 'L', 'U', 'T', '0', '0', '3'};
// Mixed into every table key. Revision 3 keyed only tolerance tables and
// located band segments by voltage; revision 4 files are read with the
// grid's own formula, so no older binary sharing a cache dir finds them.
constexpr std::int64_t kFormatRevision = 4;
constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
constexpr std::size_t kClassCount = static_cast<std::size_t>(PatternClass::kCount);
// Largest supply grid a serialized table may claim (the paper grid has 28
// points; this bound only stops a corrupt header from sizing a runaway grid).
constexpr double kMaxGridPoints = 1 << 20;

// Linear interpolation helper shared by every lookup and the refiner.
double lerp(double a, double b, double f) {
  if (std::isinf(a) || std::isinf(b)) return f < 1.0 ? a : b;
  return a + (b - a) * f;
}

// One class's value between two [point][class] rows of a band.
double lerp_class(const std::vector<double>& values, std::size_t lo, std::size_t hi,
                  double frac, int cls) {
  const auto c = static_cast<std::size_t>(cls);
  return lerp(values[lo * kClassCount + c], values[hi * kClassCount + c], frac);
}

struct InterpPoint {
  std::size_t lo;
  std::size_t hi;
  double frac;
};

InterpPoint interp_point(const tech::SupplyGrid& grid, double v) {
  if (v <= grid.vmin()) return {0, 0, 0.0};
  if (v >= grid.vmax()) return {grid.size() - 1, grid.size() - 1, 0.0};
  const double raw = (v - grid.vmin()) / grid.step();
  const auto lo = static_cast<std::size_t>(raw);
  const std::size_t hi = std::min(lo + 1, grid.size() - 1);
  return {lo, hi, raw - static_cast<double>(lo)};
}

// The grid's own segment and fraction, rescaled to the kept band points
// [lo, hi] around it (positions in `kept`, a band's ascending grid
// indices from 0 to n-1). With both grid neighbours kept the span is 1
// and the fraction is the grid's, bit for bit.
InterpPoint band_segment(const tech::SupplyGrid& grid,
                         const std::vector<std::size_t>& kept, double v) {
  const InterpPoint p = interp_point(grid, v);
  // kept.front() == 0 <= p.lo, so hi >= 1.
  const auto hi = static_cast<std::size_t>(
      std::upper_bound(kept.begin(), kept.end(), p.lo) - kept.begin());
  const std::size_t lo = hi - 1;
  if (p.hi == p.lo) return {lo, lo, 0.0};  // clamped to an end of the grid
  const double span = static_cast<double>(kept[hi] - kept[lo]);
  return {lo, hi, (static_cast<double>(p.lo - kept[lo]) + p.frac) / span};
}

// All pattern classes of one characterised (corner, temp, voltage) point.
struct ClassPoint {
  double delay[PatternClass::kCount];
  double energy[PatternClass::kCount];
};

// Characterise every pattern class at one (corner, temp, voltage): quiet
// canonical classes get zero energy, non-conducting points get infinite
// delay with no simulation, mirrors are copied. The builder and the lazy
// refiner both call it, so their values are bit-identical. `per_unit`
// (optional) is invoked once per completed switching canonical class.
ClassPoint characterize_classes(const interconnect::ClusterCharacterizer& characterizer,
                                const tech::DriverModel& driver,
                                tech::ProcessCorner corner, double temp_c, double vdd,
                                PointStore* store, std::uint64_t design_hash,
                                CostCounters& counters,
                                const std::function<void()>& per_unit) {
  ClassPoint p;
  for (int cls = 0; cls < PatternClass::kCount; ++cls) {
    p.delay[cls] = kNan;
    p.energy[cls] = 0.0;
  }
  const bool conducts = driver.conducts(corner, temp_c, vdd);
  for (int cls = 0; cls < PatternClass::kCount; ++cls) {
    if (!PatternClass::is_canonical(cls)) continue;
    if (!PatternClass::any_switching(cls)) continue;  // quiet: zero energy
    if (!conducts) {
      if (PatternClass::victim_switches(cls))
        p.delay[cls] = std::numeric_limits<double>::infinity();
      if (per_unit) per_unit();
      continue;
    }
    interconnect::ClusterSpec spec;
    spec.victim = to_wire_activity(PatternClass::victim_of(cls));
    spec.left = to_wire_activity(PatternClass::left_of(cls));
    spec.right = to_wire_activity(PatternClass::right_of(cls));
    spec.vdd = vdd;
    spec.corner = corner;
    spec.temp_c = temp_c;
    const interconnect::ClusterResult r =
        simulate_or_fetch(characterizer, spec, cls, store, design_hash, counters);
    if (PatternClass::victim_switches(cls))
      p.delay[cls] = r.delay >= 0.0 ? r.delay : std::numeric_limits<double>::infinity();
    p.energy[cls] = r.victim_energy;
    if (per_unit) per_unit();
  }
  for (int cls = 0; cls < PatternClass::kCount; ++cls) {
    if (PatternClass::is_canonical(cls)) continue;
    const int src = PatternClass::canonical(cls);
    p.delay[cls] = p.delay[src];
    p.energy[cls] = p.energy[src];
  }
  return p;
}

int switching_canonical_count() {
  int n = 0;
  for (int cls = 0; cls < PatternClass::kCount; ++cls)
    if (PatternClass::is_canonical(cls) && PatternClass::any_switching(cls)) ++n;
  return n;
}

// The grid indices one band keeps at a positive tolerance: uniform seeds,
// then recursive bisection of every interval whose simulated midpoint
// misses the chord by more than `tol` for any switching canonical class.
// Probed midpoints are kept either way (they were paid for). Sequential,
// so the kept set is independent of thread count.
std::map<std::size_t, ClassPoint> bisect_band(
    const tech::SupplyGrid& grid, const LutTolerance& tol,
    const std::function<ClassPoint(std::size_t)>& characterize) {
  std::map<std::size_t, ClassPoint> pts;
  const auto ensure = [&](std::size_t vi) {
    if (pts.find(vi) == pts.end()) pts.emplace(vi, characterize(vi));
  };

  // Accept [lo, hi] when the simulated midpoint is inside the tolerance
  // envelope of the chord for EVERY switching canonical class. Infinite
  // (non-conducting) delays pass only when lo, mid and hi all agree —
  // a finite/infinite mix means the conduction boundary is inside the
  // interval and must be localised.
  const auto interval_ok = [&](std::size_t lo, std::size_t mid, std::size_t hi) {
    const ClassPoint& a = pts.at(lo);
    const ClassPoint& m = pts.at(mid);
    const ClassPoint& b = pts.at(hi);
    const double v_lo = grid.voltage(lo);
    const double f = (grid.voltage(mid) - v_lo) / (grid.voltage(hi) - v_lo);
    for (int cls = 0; cls < PatternClass::kCount; ++cls) {
      if (!PatternClass::is_canonical(cls)) continue;
      if (!PatternClass::any_switching(cls)) continue;
      const double es = m.energy[cls];
      const double ei = a.energy[cls] + (b.energy[cls] - a.energy[cls]) * f;
      if (std::abs(es - ei) > tol.energy_abs_j + tol.relative * std::abs(es))
        return false;
      if (!PatternClass::victim_switches(cls)) continue;
      const double dl = a.delay[cls];
      const double dh = b.delay[cls];
      const double dm = m.delay[cls];
      if (std::isinf(dl) || std::isinf(dh) || std::isinf(dm)) {
        if (!(std::isinf(dl) && std::isinf(dh) && std::isinf(dm))) return false;
        continue;
      }
      const double di = dl + (dh - dl) * f;
      if (std::abs(dm - di) > tol.delay_abs_s + tol.relative * std::abs(dm))
        return false;
    }
    return true;
  };

  const std::function<void(std::size_t, std::size_t)> refine = [&](std::size_t lo,
                                                                   std::size_t hi) {
    if (hi - lo < 2) return;  // grid resolution reached
    if (tol.min_step > 0.0 && grid.voltage(hi) - grid.voltage(lo) < 2.0 * tol.min_step)
      return;
    const std::size_t mid = lo + (hi - lo) / 2;
    ensure(mid);
    if (interval_ok(lo, mid, hi)) return;
    refine(lo, mid);
    refine(mid, hi);
  };

  const std::size_t n = grid.size();
  const int seed_intervals = tol.seed_intervals > 0 ? tol.seed_intervals : 1;
  std::vector<std::size_t> seeds;
  for (int j = 0; j <= seed_intervals; ++j) {
    const auto vi = n == 1 ? std::size_t{0}
                           : static_cast<std::size_t>(std::llround(
                                 static_cast<double>(j) * static_cast<double>(n - 1) /
                                 static_cast<double>(seed_intervals)));
    if (seeds.empty() || vi != seeds.back()) seeds.push_back(vi);
  }
  for (const std::size_t vi : seeds) ensure(vi);
  for (std::size_t k = 0; k + 1 < seeds.size(); ++k) refine(seeds[k], seeds[k + 1]);
  return pts;
}

}  // namespace

// On-demand extension of a positive-tolerance table below its characterised
// range. Queries under the grid's vmin interpolate between fixed anchor
// voltages `vmin - j * step` (j = 1..kMaxAnchors, simulated lazily and
// memoised), instead of clamping as tolerance-0 tables do. Anchor values
// are pure functions of (corner, temp, anchor index), so results are
// independent of query order and thread count (DESIGN.md §9).
class LazyRefiner {
 public:
  static constexpr int kMaxAnchors = 64;

  LazyRefiner(const interconnect::BusDesign& design, const tech::DriverModel& driver,
              std::shared_ptr<PointStore> store,
              std::vector<tech::ProcessCorner> corners, std::vector<double> temps,
              double vmin, double step)
      : characterizer_(design, driver),
        driver_(driver),
        store_(std::move(store)),
        corners_(std::move(corners)),
        temps_(std::move(temps)),
        vmin_(vmin),
        step_(step),
        design_hash_(design_content_hash(design)) {}

  double delay(int cls, std::size_t ci, std::size_t ti, double v) {
    const Bracket b = bracket(ci, ti, v);
    return lerp(b.lo->delay[cls], b.hi->delay[cls], b.frac);
  }

  double energy(int cls, std::size_t ci, std::size_t ti, double v) {
    const Bracket b = bracket(ci, ti, v);
    return lerp(b.lo->energy[cls], b.hi->energy[cls], b.frac);
  }

  void fill_slice(TableSlice& s, std::size_t ci, std::size_t ti, double v) {
    const Bracket b = bracket(ci, ti, v);
    for (int cls = 0; cls < PatternClass::kCount; ++cls) {
      s.delay[cls] = lerp(b.lo->delay[cls], b.hi->delay[cls], b.frac);
      s.energy[cls] = lerp(b.lo->energy[cls], b.hi->energy[cls], b.frac);
    }
  }

  std::uint64_t transient_sims() const { return counters_.transient_sims.load(); }

 private:
  struct Bracket {
    const ClassPoint* lo;
    const ClassPoint* hi;
    double frac;
  };

  // Anchor values are inserted once and never mutated, and std::map nodes
  // are stable, so the returned reference outlives the lock safely.
  const ClassPoint& anchor(std::size_t ci, std::size_t ti, int j) {
    util::MutexLock lock(mutex_);
    const auto key = std::make_tuple(ci, ti, j);
    const auto it = anchors_.find(key);
    if (it != anchors_.end()) return it->second;
    const double vdd = vmin_ - static_cast<double>(j) * step_;
    ClassPoint p = characterize_classes(characterizer_, driver_, corners_.at(ci),
                                        temps_.at(ti), vdd, store_.get(), design_hash_,
                                        counters_, {});
    return anchors_.emplace(key, p).first->second;
  }

  Bracket bracket(std::size_t ci, std::size_t ti, double v) {
    int j = static_cast<int>(std::ceil((vmin_ - v) / step_ - 1e-9));
    if (j < 1) j = 1;
    if (j > kMaxAnchors) {
      // Beyond the deepest anchor: clamp (the driver is far below
      // conduction there anyway).
      const ClassPoint& p = anchor(ci, ti, kMaxAnchors);
      return {&p, &p, 0.0};
    }
    const ClassPoint& lo = anchor(ci, ti, j);
    const ClassPoint& hi = anchor(ci, ti, j - 1);
    const double v_lo = vmin_ - static_cast<double>(j) * step_;
    return {&lo, &hi, (v - v_lo) / step_};
  }

  const interconnect::ClusterCharacterizer characterizer_;
  const tech::DriverModel driver_;
  const std::shared_ptr<PointStore> store_;
  const std::vector<tech::ProcessCorner> corners_;
  const std::vector<double> temps_;
  const double vmin_;
  const double step_;
  const std::uint64_t design_hash_;

  mutable util::Mutex mutex_;
  std::map<std::tuple<std::size_t, std::size_t, int>, ClassPoint> anchors_
      GUARDED_BY(mutex_);
  CostCounters counters_;
};

std::uint64_t table_key_hash(const interconnect::BusDesign& design,
                             const LutConfig& config) {
  // Design/model/simulator content (including the n_bits / shield_group
  // exclusions) lives in design_content_hash — the same hash that keys the
  // point store — so the table key and the point keys can never disagree
  // about what "the same design" means.
  Fnv1a fnv;
  fnv.h = design_content_hash(design);
  for (double v : {config.vmin, config.vmax, config.vstep}) fnv.mix_double(v);
  for (double t : config.temps) fnv.mix_double(t);
  for (auto c : config.corners) fnv.mix_int(static_cast<std::int64_t>(c));
  fnv.mix_int(kFormatRevision);
  if (config.tolerance.enabled()) {
    const LutTolerance& tol = config.tolerance;
    for (double v : {tol.relative, tol.delay_abs_s, tol.energy_abs_j, tol.min_step})
      fnv.mix_double(v);
    fnv.mix_int(tol.seed_intervals);
  }
  return fnv.h;
}

DelayEnergyTable DelayEnergyTable::build(const interconnect::BusDesign& design,
                                         const tech::DriverModel& driver,
                                         const LutConfig& config,
                                         const std::function<void(int, int)>& progress,
                                         PointStore* store, BuildStats* stats) {
  DelayEnergyTable table;
  table.grid_ = config.reference_grid();
  table.temps_ = config.temps;
  table.corners_ = config.corners;
  const std::size_t n = table.grid_.size();
  const std::size_t n_bands = table.corners_.size() * table.temps_.size();
  table.bands_.resize(n_bands);

  const interconnect::ClusterCharacterizer characterizer(design, driver);
  const std::uint64_t design_hash = design_content_hash(design);
  CostCounters counters;
  std::atomic<std::uint64_t> points_done{0};

  // Progress is reported against the full-grid upper bound; builds with a
  // positive tolerance finish early and close with one (total, total).
  const int total = static_cast<int>(n_bands * n) * switching_canonical_count();
  std::atomic<int> done{0};
  util::Mutex progress_mutex;
  int reported = 0;  // monotonic max of done counts already reported
  const auto per_unit = [&]() {
    const int now_done = ++done;
    if (!progress) return;
    // Report only increasing counts: two shards can increment in one order
    // and take this mutex in the other, and progress printers assume done
    // never goes backwards.
    util::MutexLock lock(progress_mutex);
    if (now_done > reported) {
      reported = now_done;
      progress(now_done, total);
    }
  };
  const auto characterize = [&](std::size_t bi, std::size_t vi) {
    ++points_done;
    return characterize_classes(characterizer, driver,
                                table.corners_[bi / table.temps_.size()],
                                table.temps_[bi % table.temps_.size()],
                                table.grid_.voltage(vi), store, design_hash, counters,
                                per_unit);
  };
  const auto keep = [](Band& b, std::size_t vi, const ClassPoint& p) {
    b.indices.push_back(vi);
    b.delays.insert(b.delays.end(), std::begin(p.delay), std::end(p.delay));
    b.energies.insert(b.energies.end(), std::begin(p.energy), std::end(p.energy));
  };

  // Shards write disjoint slots and each band's kept set is chosen
  // sequentially, so the table is bit-identical at any thread count
  // (DESIGN.md §9).
  if (!config.tolerance.enabled()) {
    // Tolerance 0 keeps every (band, grid index) point, so the thousands of
    // independent transient runs shard one point each.
    std::vector<ClassPoint> pts(n_bands * n);
    util::global_pool().parallel_for(pts.size(), [&](std::size_t point) {
      pts[point] = characterize(point / n, point % n);
    });
    for (std::size_t point = 0; point < pts.size(); ++point)
      keep(table.bands_[point / n], point % n, pts[point]);
  } else {
    util::global_pool().parallel_for(n_bands, [&](std::size_t bi) {
      const auto pts = bisect_band(table.grid_, config.tolerance,
                                   [&](std::size_t vi) { return characterize(bi, vi); });
      for (const auto& [vi, p] : pts) keep(table.bands_[bi], vi, p);
    });
  }

  if (progress) {
    util::MutexLock lock(progress_mutex);
    if (reported < total) progress(total, total);
  }
  if (stats) {
    stats->transient_sims = counters.transient_sims.load();
    stats->store_hits = counters.store_hits.load();
    stats->points = points_done.load();
  }
  return table;
}

std::size_t DelayEnergyTable::corner_index(tech::ProcessCorner corner) const {
  for (std::size_t i = 0; i < corners_.size(); ++i)
    if (corners_[i] == corner) return i;
  throw std::out_of_range("DelayEnergyTable: corner not characterised");
}

std::size_t DelayEnergyTable::temp_index(double temp_c) const {
  for (std::size_t i = 0; i < temps_.size(); ++i)
    if (std::abs(temps_[i] - temp_c) < 0.5) return i;
  throw std::out_of_range("DelayEnergyTable: temperature not characterised");
}

const DelayEnergyTable::Band& DelayEnergyTable::band(std::size_t corner_idx,
                                                     std::size_t temp_idx) const {
  return bands_.at(corner_idx * temps_.size() + temp_idx);
}

const std::vector<std::size_t>& DelayEnergyTable::breakpoints(
    std::size_t corner_idx, std::size_t temp_idx) const {
  return band(corner_idx, temp_idx).indices;
}

double DelayEnergyTable::delay(int cls, tech::ProcessCorner corner, double temp_c,
                               double v) const {
  const std::size_t ci = corner_index(corner);
  const std::size_t ti = temp_index(temp_c);
  if (refiner_ && v < grid_.vmin()) return refiner_->delay(cls, ci, ti, v);
  const Band& b = band(ci, ti);
  const InterpPoint s = band_segment(grid_, b.indices, v);
  return lerp_class(b.delays, s.lo, s.hi, s.frac, cls);
}

double DelayEnergyTable::energy(int cls, tech::ProcessCorner corner, double temp_c,
                                double v) const {
  const std::size_t ci = corner_index(corner);
  const std::size_t ti = temp_index(temp_c);
  if (refiner_ && v < grid_.vmin()) return refiner_->energy(cls, ci, ti, v);
  const Band& b = band(ci, ti);
  const InterpPoint s = band_segment(grid_, b.indices, v);
  return lerp_class(b.energies, s.lo, s.hi, s.frac, cls);
}

TableSlice DelayEnergyTable::slice(tech::ProcessCorner corner, double temp_c,
                                   double v) const {
  const std::size_t ci = corner_index(corner);
  const std::size_t ti = temp_index(temp_c);
  TableSlice out{};
  if (refiner_ && v < grid_.vmin()) {
    refiner_->fill_slice(out, ci, ti, v);
    return out;
  }
  const Band& b = band(ci, ti);
  const InterpPoint s = band_segment(grid_, b.indices, v);
  for (int cls = 0; cls < PatternClass::kCount; ++cls) {
    out.delay[cls] = lerp_class(b.delays, s.lo, s.hi, s.frac, cls);
    out.energy[cls] = lerp_class(b.energies, s.lo, s.hi, s.frac, cls);
  }
  return out;
}

std::optional<double> DelayEnergyTable::min_shadow_safe_voltage(
    const interconnect::BusDesign& design, tech::ProcessCorner corner,
    double temp_c) const {
  const int worst = PatternClass::encode(VictimActivity::rise, NeighborActivity::fall,
                                         NeighborActivity::fall);
  const double limit = design.shadow_capture_limit();
  const Band& b = band(corner_index(corner), temp_index(temp_c));
  for (std::size_t k = 0; k < b.indices.size(); ++k)
    if (b.delays[k * kClassCount + static_cast<std::size_t>(worst)] <= limit)
      return grid_.voltage(b.indices[k]);
  return std::nullopt;
}

void DelayEnergyTable::attach_refiner(const interconnect::BusDesign& design,
                                      const tech::DriverModel& driver,
                                      const LutTolerance& tolerance,
                                      std::shared_ptr<PointStore> store) {
  if (!tolerance.enabled()) return;  // tolerance-0 tables keep clamp semantics
  refiner_ = std::make_shared<LazyRefiner>(design, driver, std::move(store), corners_,
                                           temps_, grid_.vmin(), grid_.step());
}

std::uint64_t DelayEnergyTable::refiner_sims() const {
  return refiner_ ? refiner_->transient_sims() : 0;
}

double DelayEnergyTable::delay_at(int cls, std::size_t ci, std::size_t ti,
                                  std::size_t vi) const {
  return band(ci, ti).delays.at(vi * kClassCount + static_cast<std::size_t>(cls));
}

double DelayEnergyTable::energy_at(int cls, std::size_t ci, std::size_t ti,
                                   std::size_t vi) const {
  return band(ci, ti).energies.at(vi * kClassCount + static_cast<std::size_t>(cls));
}

void DelayEnergyTable::save(std::ostream& os, std::uint64_t key_hash) const {
  os.write(kMagic, sizeof(kMagic));
  os.write(reinterpret_cast<const char*>(&key_hash), sizeof(key_hash));
  const double vmin = grid_.vmin();
  const double vmax = grid_.vmax();
  const double step = grid_.step();
  os.write(reinterpret_cast<const char*>(&vmin), sizeof(vmin));
  os.write(reinterpret_cast<const char*>(&vmax), sizeof(vmax));
  os.write(reinterpret_cast<const char*>(&step), sizeof(step));

  const std::uint64_t n_temps = temps_.size();
  const std::uint64_t n_corners = corners_.size();
  os.write(reinterpret_cast<const char*>(&n_temps), sizeof(n_temps));
  os.write(reinterpret_cast<const char*>(&n_corners), sizeof(n_corners));
  os.write(reinterpret_cast<const char*>(temps_.data()),
           static_cast<std::streamsize>(temps_.size() * sizeof(double)));
  for (auto c : corners_) {
    const std::int32_t v = static_cast<std::int32_t>(c);
    os.write(reinterpret_cast<const char*>(&v), sizeof(v));
  }
  for (const Band& b : bands_) {
    const std::uint64_t n_points = b.indices.size();
    os.write(reinterpret_cast<const char*>(&n_points), sizeof(n_points));
    for (const std::size_t vi : b.indices) {
      const double v = grid_.voltage(vi);
      os.write(reinterpret_cast<const char*>(&v), sizeof(v));
    }
    os.write(reinterpret_cast<const char*>(b.delays.data()),
             static_cast<std::streamsize>(b.delays.size() * sizeof(double)));
    os.write(reinterpret_cast<const char*>(b.energies.data()),
             static_cast<std::streamsize>(b.energies.size() * sizeof(double)));
  }
}

std::optional<DelayEnergyTable> DelayEnergyTable::load(std::istream& is,
                                                       std::uint64_t expected_hash) {
  char magic[sizeof(kMagic)];
  if (!is.read(magic, sizeof(magic)) || std::memcmp(magic, kMagic, sizeof(kMagic)) != 0)
    return std::nullopt;
  std::uint64_t hash = 0;
  if (!is.read(reinterpret_cast<char*>(&hash), sizeof(hash)) || hash != expected_hash)
    return std::nullopt;

  double vmin = 0, vmax = 0, step = 0;
  is.read(reinterpret_cast<char*>(&vmin), sizeof(vmin));
  is.read(reinterpret_cast<char*>(&vmax), sizeof(vmax));
  is.read(reinterpret_cast<char*>(&step), sizeof(step));
  std::uint64_t n_temps = 0, n_corners = 0;
  is.read(reinterpret_cast<char*>(&n_temps), sizeof(n_temps));
  is.read(reinterpret_cast<char*>(&n_corners), sizeof(n_corners));
  if (!is || n_temps == 0 || n_temps > 16 || n_corners == 0 || n_corners > 8)
    return std::nullopt;
  // The header can carry the right magic and hash but a corrupt grid: reject
  // it before SupplyGrid would throw, and bound the grid size so no claimed
  // payload below is sized from a runaway count.
  if (!std::isfinite(vmin) || !std::isfinite(vmax) || !std::isfinite(step) ||
      !(step > 0.0) || vmax < vmin || !((vmax - vmin) / step < kMaxGridPoints))
    return std::nullopt;

  DelayEnergyTable table;
  table.grid_ = tech::SupplyGrid(vmin, vmax, step);
  const std::size_t n = table.grid_.size();
  table.temps_.resize(n_temps);
  is.read(reinterpret_cast<char*>(table.temps_.data()),
          static_cast<std::streamsize>(n_temps * sizeof(double)));
  table.corners_.resize(n_corners);
  for (auto& c : table.corners_) {
    std::int32_t v = 0;
    is.read(reinterpret_cast<char*>(&v), sizeof(v));
    c = static_cast<tech::ProcessCorner>(v);
  }

  table.bands_.resize(n_corners * n_temps);
  for (Band& b : table.bands_) {
    std::uint64_t n_points = 0;
    is.read(reinterpret_cast<char*>(&n_points), sizeof(n_points));
    // A band cannot hold more points than the reference grid.
    if (!is || n_points == 0 || n_points > n ||
        !util::claim_fits_stream(is, n_points, (1 + 2 * kClassCount) * sizeof(double)))
      return std::nullopt;
    std::vector<double> voltages(n_points);
    is.read(reinterpret_cast<char*>(voltages.data()),
            static_cast<std::streamsize>(n_points * sizeof(double)));
    const std::size_t n_values = static_cast<std::size_t>(n_points) * kClassCount;
    b.delays.resize(n_values);
    b.energies.resize(n_values);
    is.read(reinterpret_cast<char*>(b.delays.data()),
            static_cast<std::streamsize>(n_values * sizeof(double)));
    is.read(reinterpret_cast<char*>(b.energies.data()),
            static_cast<std::streamsize>(n_values * sizeof(double)));
    if (!is) return std::nullopt;
    // Every point must be a grid voltage, bit for bit, strictly ascending
    // from the grid's first index to its last: band_segment() relies on
    // both ends.
    for (const double v : voltages) {
      const std::size_t vi = table.grid_.index_of(v);
      if (bit_cast<std::uint64_t>(table.grid_.voltage(vi)) != bit_cast<std::uint64_t>(v))
        return std::nullopt;
      if (!b.indices.empty() && vi <= b.indices.back()) return std::nullopt;
      b.indices.push_back(vi);
    }
    if (b.indices.front() != 0 || b.indices.back() != n - 1) return std::nullopt;
  }
  return table;
}

}  // namespace razorbus::lut

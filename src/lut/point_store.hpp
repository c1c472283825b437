// Incremental, content-addressed store of simulated characterization points.
//
// One transient run characterises one (corner, temperature, voltage,
// pattern class) of one electrical design. That result never changes —
// the simulator is deterministic — so it is worth exactly one simulation
// per process FLEET, not one per table. The point store keys every raw
// simulator result by an FNV-1a content hash of everything the result
// depends on (design content, simulator version, corner, temperature,
// voltage, class) and persists the accumulated points per design in the
// cache directory. Tables then characterise only the points they are
// missing: a second campaign whose grid overlaps a first one performs
// zero redundant transient runs, and adaptive refinement
// (docs/characterization.md) can extend a table below its sweep range
// without re-paying for anything already simulated.
//
// The store holds RAW ClusterResult quantities (delay as the simulator
// reported it, including the -1.0 "victim did not switch" convention).
// Interpretation — NaN for hold victims, +inf for non-conducting points —
// stays in the table builder, so the store is simulator-faithful and
// table-policy-free.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>

#include "interconnect/bus_design.hpp"
#include "interconnect/rc_builder.hpp"
#include "tech/corner.hpp"
#include "util/thread_annotations.hpp"

namespace razorbus::lut {

// Bump when the transient solver, netlist construction or device models
// change in a way that alters simulated values: every stored point is
// keyed under the version, so stale points are simply never hit again.
constexpr std::uint32_t kSimulatorVersion = 1;

// FNV-1a accumulator: the content-hash primitive shared by the table
// cache key (table_key_hash) and the per-point keys.
struct Fnv1a {
  std::uint64_t h = 1469598103934665603ull;  // offset basis

  void mix(const void* data, std::size_t len) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < len; ++i) {
      h ^= bytes[i];
      h *= 1099511628211ull;  // FNV prime
    }
  }
  void mix_double(double v) { mix(&v, sizeof(v)); }
  void mix_int(std::int64_t v) { mix(&v, sizeof(v)); }
};

// Hash of every design/model parameter a transient result depends on:
// node electricals, parasitics, geometry, repeater sizing, the RC section
// discretisation and the simulator version. Deliberately EXCLUDES n_bits
// and shield_group (the 3-wire cluster sees one wire's electricals, so all
// bus widths share points — DESIGN.md §10) and the LUT grid/tolerance
// (those choose WHICH points exist, not their values).
std::uint64_t design_content_hash(const interconnect::BusDesign& design);

// Content key of one simulated point under a design hash.
std::uint64_t point_key(std::uint64_t design_hash, tech::ProcessCorner corner,
                        double temp_c, double vdd, int pattern_class);

// One raw simulator result (see the header comment for conventions).
struct StoredPoint {
  double delay = -1.0;
  double energy = 0.0;
};

// Thread-safe, process-shared point store for one design in one cache
// directory. All state is guarded by one mutex; values are pure functions
// of their key, so concurrent access can never perturb simulation results
// (DESIGN.md §9). Builders that must not duplicate work across processes
// serialise on a file lock and refresh() under it (DESIGN.md §3).
class PointStore {
 public:
  struct Stats {
    std::uint64_t hits = 0;     // lookups answered from the store
    std::uint64_t misses = 0;   // lookups that required a transient run
    std::uint64_t inserts = 0;  // new points added since open/flush
  };

  // Opens (or creates) the store for `design_hash` under `dir`, loading
  // any previously persisted points. One instance per (dir, design hash)
  // is shared process-wide, like the table memo — that sharing is what
  // makes a second overlapping campaign free.
  static std::shared_ptr<PointStore> open(const std::string& dir,
                                          std::uint64_t design_hash);

  std::optional<StoredPoint> lookup(std::uint64_t key);
  void insert(std::uint64_t key, StoredPoint point);

  // Merges the points other processes have persisted since this store last
  // read its file (a truncated file: its complete prefix; a foreign file:
  // nothing).
  void refresh();

  // Persists the current contents via the atomic temp+rename path (same
  // crash/concurrency contract as the table cache files). Writers take an
  // flock(2) on `<path>.lock` and merge the file first, so two processes
  // flushing different points both keep theirs. Best-effort: a failed
  // write only costs a later process re-simulation.
  void flush();

  Stats stats() const;
  std::size_t size() const;

  // Test hook: path of the backing file.
  const std::string& path() const { return path_; }
  // The lock every characterization that fills this store holds for its
  // whole run (util::FileLock), so that one process simulates and the
  // others wait, refresh() and hit: the table builds of build_or_load and
  // the sizing of size_repeaters_from_store (DESIGN.md §3).
  std::string build_lock_path() const { return path_ + ".build.lock"; }

 private:
  PointStore(std::string path);

  void load_file() REQUIRES(mutex_);

  std::string path_;
  mutable util::Mutex mutex_;
  // std::map: deterministic iteration order for the persisted file bytes.
  std::map<std::uint64_t, StoredPoint> points_ GUARDED_BY(mutex_);
  std::uint64_t persisted_ GUARDED_BY(mutex_) = 0;  // entries the file last held
  Stats stats_ GUARDED_BY(mutex_);
};

// Cost counters of one characterization: runs of the transient solver vs
// answers from the point store.
struct CostCounters {
  std::atomic<std::uint64_t> transient_sims{0};
  std::atomic<std::uint64_t> store_hits{0};
};

// One raw cluster result of pattern class `cls`: answered by `store` when
// it holds the key, otherwise simulated and inserted. Stored values came
// from the identical deterministic simulation (the key covers everything
// the result depends on), so consulting the store never changes a result,
// only skips work. `design_hash` is design_content_hash of the
// characterizer's design; `store` may be null (always simulate).
interconnect::ClusterResult simulate_or_fetch(
    const interconnect::ClusterCharacterizer& characterizer,
    const interconnect::ClusterSpec& spec, int cls, PointStore* store,
    std::uint64_t design_hash, CostCounters& counters);

}  // namespace razorbus::lut

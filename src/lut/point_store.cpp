#include "lut/point_store.hpp"

#include <cstring>
#include <fstream>
#include <sstream>
#include <utility>

#include "util/atomic_file.hpp"
#include "util/file_lock.hpp"

namespace razorbus::lut {

namespace {

constexpr char kMagic[8] = {'R', 'B', 'P', 'T', 'S', '0', '0', '1'};

// Process-wide registry of open stores keyed by (cache directory, design
// hash): every table build in the process shares one instance per design,
// which is what makes overlapping campaigns hit instead of re-simulate.
// Entries are never evicted — a process touches a handful of designs and
// each store is tens of kilobytes. Contents depend only on keys, never on
// timing, so the registry cannot perturb determinism.
// razorlint: allow(no-mutable-static): process-wide registry guarded by the
// annotated Mutex; see the determinism note above.
util::Mutex g_registry_mutex;
// razorlint: allow(no-mutable-static): guarded by g_registry_mutex above.
std::map<std::pair<std::string, std::uint64_t>, std::shared_ptr<PointStore>> g_registry
    GUARDED_BY(g_registry_mutex);

}  // namespace

std::uint64_t design_content_hash(const interconnect::BusDesign& design) {
  Fnv1a fnv;
  const auto& n = design.node;
  fnv.mix(n.name.data(), n.name.size());
  for (double v : {n.vdd_nominal, n.vth0, n.alpha, n.vth_temp_coeff,
                   n.mobility_temp_exponent, n.dibl, n.r_unit, n.c_in_unit,
                   n.c_self_unit, n.e_short_unit, n.i_leak_unit, n.leak_n})
    fnv.mix_double(v);
  for (double v : {design.parasitics.r_per_m, design.parasitics.cg_per_m,
                   design.parasitics.cc_per_m, design.length, design.clock_freq,
                   design.setup_slack_fraction, design.shadow_delay_fraction,
                   design.repeater_size, design.receiver_size})
    fnv.mix_double(v);
  // n_bits and shield_group deliberately omitted (DESIGN.md §10).
  fnv.mix_int(design.n_segments);
  fnv.mix_int(interconnect::ClusterCharacterizer::kSectionsPerSegment);
  fnv.mix_int(static_cast<std::int64_t>(kSimulatorVersion));
  return fnv.h;
}

std::uint64_t point_key(std::uint64_t design_hash, tech::ProcessCorner corner,
                        double temp_c, double vdd, int pattern_class) {
  Fnv1a fnv;
  fnv.mix(&design_hash, sizeof(design_hash));
  fnv.mix_int(static_cast<std::int64_t>(corner));
  fnv.mix_double(temp_c);
  fnv.mix_double(vdd);
  fnv.mix_int(pattern_class);
  return fnv.h;
}

PointStore::PointStore(std::string path) : path_(std::move(path)) {}

std::shared_ptr<PointStore> PointStore::open(const std::string& dir,
                                             std::uint64_t design_hash) {
  const std::pair<std::string, std::uint64_t> key{dir, design_hash};
  util::MutexLock registry_lock(g_registry_mutex);
  auto it = g_registry.find(key);
  if (it != g_registry.end()) return it->second;

  std::ostringstream name;
  name << dir << "/points_" << std::hex << design_hash << ".bin";
  std::shared_ptr<PointStore> store(new PointStore(name.str()));
  {
    util::MutexLock lock(store->mutex_);
    store->load_file();
  }
  g_registry.emplace(key, store);
  return store;
}

void PointStore::load_file() {
  persisted_ = 0;
  std::ifstream in(path_, std::ios::binary);
  if (!in) return;  // cold store
  char magic[sizeof(kMagic)];
  if (!in.read(magic, sizeof(magic)) ||
      std::memcmp(magic, kMagic, sizeof(kMagic)) != 0)
    return;  // foreign or torn file: start cold, flush() will replace it
  std::uint64_t count = 0;
  if (!in.read(reinterpret_cast<char*>(&count), sizeof(count))) return;
  for (std::uint64_t i = 0; i < count; ++i) {
    std::uint64_t key = 0;
    StoredPoint point;
    in.read(reinterpret_cast<char*>(&key), sizeof(key));
    in.read(reinterpret_cast<char*>(&point.delay), sizeof(point.delay));
    in.read(reinterpret_cast<char*>(&point.energy), sizeof(point.energy));
    if (!in) {  // truncated tail: keep the complete prefix
      break;
    }
    // emplace keeps a point this process already holds: both copies came
    // from the same deterministic simulation, so they are bit-identical.
    points_.emplace(key, point);
    ++persisted_;
  }
}

void PointStore::refresh() {
  util::MutexLock lock(mutex_);
  load_file();
}

std::optional<StoredPoint> PointStore::lookup(std::uint64_t key) {
  util::MutexLock lock(mutex_);
  const auto it = points_.find(key);
  if (it == points_.end()) {
    ++stats_.misses;
    return std::nullopt;
  }
  ++stats_.hits;
  return it->second;
}

void PointStore::insert(std::uint64_t key, StoredPoint point) {
  util::MutexLock lock(mutex_);
  // emplace keeps the incumbent when two shards simulated the same point
  // concurrently; both results are bit-identical (same key), so either
  // copy is the answer.
  if (points_.emplace(key, point).second) ++stats_.inserts;
}

void PointStore::flush() {
  util::MutexLock lock(mutex_);
  if (points_.size() == persisted_) return;  // nothing new since last flush
  // Serialise writers across processes and merge what they published, so
  // the rename below cannot drop a peer's points.
  const util::FileLock file_lock(path_ + ".lock");
  load_file();
  if (points_.size() == persisted_) return;  // the file already has them all

  // Publish atomically (util::publish_atomic): a crash or a concurrent
  // second writer can never leave a torn points_*.bin. The writer runs
  // under mutex_, which this function holds throughout.
  const std::map<std::uint64_t, StoredPoint>& points = points_;
  const auto write = [&points](std::ostream& out) {
    out.write(kMagic, sizeof(kMagic));
    const std::uint64_t count = points.size();
    out.write(reinterpret_cast<const char*>(&count), sizeof(count));
    for (const auto& [key, point] : points) {
      out.write(reinterpret_cast<const char*>(&key), sizeof(key));
      out.write(reinterpret_cast<const char*>(&point.delay), sizeof(point.delay));
      out.write(reinterpret_cast<const char*>(&point.energy), sizeof(point.energy));
    }
  };
  if (util::publish_atomic(path_, write).ok()) persisted_ = points.size();
}

interconnect::ClusterResult simulate_or_fetch(
    const interconnect::ClusterCharacterizer& characterizer,
    const interconnect::ClusterSpec& spec, int cls, PointStore* store,
    std::uint64_t design_hash, CostCounters& counters) {
  if (store) {
    const std::uint64_t key =
        point_key(design_hash, spec.corner, spec.temp_c, spec.vdd, cls);
    if (const auto hit = store->lookup(key)) {
      ++counters.store_hits;
      interconnect::ClusterResult r;
      r.delay = hit->delay;
      r.victim_energy = hit->energy;
      r.settled = true;
      return r;
    }
    const interconnect::ClusterResult r = characterizer.run(spec);
    ++counters.transient_sims;
    store->insert(key, {r.delay, r.victim_energy});
    return r;
  }
  ++counters.transient_sims;
  return characterizer.run(spec);
}

PointStore::Stats PointStore::stats() const {
  util::MutexLock lock(mutex_);
  return stats_;
}

std::size_t PointStore::size() const {
  util::MutexLock lock(mutex_);
  return points_.size();
}

}  // namespace razorbus::lut

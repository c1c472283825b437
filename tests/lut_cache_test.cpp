// The LUT cache stack: the in-memory memo behind build_or_load, the
// RAZORBUS_CACHE_DIR disk cache with its key-hash check, the incremental
// content-addressed point store that makes overlapping characterizations
// free (docs/characterization.md), the repeater sizing served from it, and
// the file locks that make racing cold processes build each entry once.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <csignal>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include "interconnect/rc_builder.hpp"
#include "lut/cache.hpp"
#include "lut/pattern.hpp"
#include "lut/point_store.hpp"
#include "lut/table.hpp"
#include "test_support.hpp"
#include "util/bits.hpp"
#include "util/file_lock.hpp"

extern char** environ;

namespace razorbus::lut {
namespace {

using test_support::sized_paper_bus;
using test_support::slurp;
using test_support::small_lut_config;

// Points RAZORBUS_CACHE_DIR at an isolated per-test directory for the
// guard's lifetime; restores the previous value and removes the directory
// on destruction.
class CacheDirGuard {
 public:
  explicit CacheDirGuard(const std::string& dir) : dir_(dir) {
    const char* prev = std::getenv("RAZORBUS_CACHE_DIR");
    had_prev_ = prev != nullptr;
    if (prev) prev_ = prev;
    std::filesystem::remove_all(dir_);
    setenv("RAZORBUS_CACHE_DIR", dir_.c_str(), 1);
  }
  ~CacheDirGuard() {
    if (had_prev_)
      setenv("RAZORBUS_CACHE_DIR", prev_.c_str(), 1);
    else
      unsetenv("RAZORBUS_CACHE_DIR");
    std::filesystem::remove_all(dir_);
  }

 private:
  std::string dir_;
  std::string prev_;
  bool had_prev_ = false;
};

// A directory name no earlier test of this process has used: the LUT memo
// and the point store registry are process-wide and keyed by directory, so
// a reused name would hit a warm in-memory table or store (and
// --gtest_repeat reuses names).
std::string fresh_dir(const std::string& base) {
  // razorlint: allow(no-mutable-static): test-local name counter; names
  // only, never simulation state.
  static int serial = 0;
  return base + "_" + std::to_string(serial++) + "_test";
}

// A few dense grid points only: fast to characterise.
LutConfig tiny_config(double vmin) {
  LutConfig cfg = small_lut_config();
  cfg.vmin = vmin;
  cfg.corners = {tech::ProcessCorner::typical};
  return cfg;
}

// The small grid with adaptive refinement enabled at the default bounds.
LutConfig tiny_adaptive_config() {
  LutConfig cfg = small_lut_config();
  cfg.corners = {tech::ProcessCorner::typical};
  cfg.tolerance.relative = 0.02;
  cfg.tolerance.delay_abs_s = 2e-12;
  cfg.tolerance.energy_abs_j = 2e-15;
  return cfg;
}

std::string table_path(const std::string& dir, const LutConfig& cfg) {
  std::ostringstream name;
  name << dir << "/lut_" << std::hex << table_key_hash(sized_paper_bus(), cfg)
       << ".bin";
  return name.str();
}

TEST(LutCache, MemoHitSkipsDisk) {
  CacheDirGuard guard(fresh_dir("./.razorbus_cache_memo"));
  const tech::DriverModel driver(sized_paper_bus().node);
  const LutConfig cfg = tiny_config(1.16);

  int first_progress = 0;
  const DelayEnergyTable first = build_or_load(
      sized_paper_bus(), driver, cfg, [&](int, int) { ++first_progress; });
  EXPECT_GT(first_progress, 0);  // cold: characterised for real

  // Wipe the disk cache entirely: a repeat call must be served by the
  // in-memory memo — no rebuild (progress stays silent), no sims.
  std::filesystem::remove_all(cache_directory());
  int second_progress = 0;
  BuildStats stats;
  stats.transient_sims = 99;  // must be overwritten, not accumulated
  const DelayEnergyTable second = build_or_load(
      sized_paper_bus(), driver, cfg, [&](int, int) { ++second_progress; }, &stats);
  EXPECT_EQ(second_progress, 0);
  EXPECT_EQ(stats.transient_sims, 0u);
  EXPECT_EQ(stats.store_hits, 0u);
  ASSERT_FALSE(second.empty());

  const int cls = PatternClass::encode(VictimActivity::rise, NeighborActivity::fall,
                                       NeighborActivity::fall);
  EXPECT_EQ(first.delay_at(cls, 0, 0, 0), second.delay_at(cls, 0, 0, 0));
  EXPECT_EQ(first.energy_at(cls, 0, 0, 0), second.energy_at(cls, 0, 0, 0));
}

TEST(LutCache, HashMismatchRebuildsCleanly) {
  CacheDirGuard guard(fresh_dir("./.razorbus_cache_mismatch"));
  const tech::DriverModel driver(sized_paper_bus().node);
  const LutConfig cfg_a = tiny_config(1.16);
  const LutConfig cfg_b = tiny_config(1.18);
  ASSERT_NE(table_key_hash(sized_paper_bus(), cfg_a),
            table_key_hash(sized_paper_bus(), cfg_b));

  build_or_load(sized_paper_bus(), driver, cfg_a);
  const std::string dir = cache_directory();

  // Plant config A's bytes at config B's expected path — the stale-entry
  // shape a config change leaves behind. Its embedded hash cannot match
  // B's key, so build_or_load must rebuild instead of trusting the file.
  std::filesystem::copy_file(table_path(dir, cfg_a), table_path(dir, cfg_b));
  int progress_calls = 0;
  const DelayEnergyTable b = build_or_load(sized_paper_bus(), driver, cfg_b,
                                           [&](int, int) { ++progress_calls; });
  EXPECT_GT(progress_calls, 0);  // rebuilt, not loaded from the planted file
  EXPECT_DOUBLE_EQ(b.grid().vmin(), cfg_b.vmin);

  // The rebuild replaced the planted file with a loadable one.
  std::ifstream in(table_path(dir, cfg_b), std::ios::binary);
  ASSERT_TRUE(in.good());
  EXPECT_TRUE(
      DelayEnergyTable::load(in, table_key_hash(sized_paper_bus(), cfg_b)).has_value());
}

TEST(LutCache, PointStoreEliminatesRedundantSims) {
  CacheDirGuard guard(fresh_dir("./.razorbus_cache_store"));
  const tech::DriverModel driver(sized_paper_bus().node);
  const LutConfig cfg = tiny_adaptive_config();

  BuildStats cold;
  const DelayEnergyTable first =
      build_or_load(sized_paper_bus(), driver, cfg, {}, &cold);
  EXPECT_GT(cold.transient_sims, 0u);

  // A second campaign re-characterising the same candidate points against
  // the shared store performs ZERO redundant transient runs: every point
  // is a store hit. (Built directly — build_or_load's memo would answer
  // without exercising the store at all.)
  const auto store =
      PointStore::open(cache_directory(), design_content_hash(sized_paper_bus()));
  BuildStats warm;
  const DelayEnergyTable second = DelayEnergyTable::build(sized_paper_bus(), driver,
                                                          cfg, {}, store.get(), &warm);
  EXPECT_EQ(warm.transient_sims, 0u);
  EXPECT_GT(warm.store_hits, 0u);
  ASSERT_EQ(first.breakpoints(0, 0), second.breakpoints(0, 0));
  const int cls = PatternClass::encode(VictimActivity::rise, NeighborActivity::fall,
                                       NeighborActivity::fall);
  for (std::size_t vi = 0; vi < first.breakpoints(0, 0).size(); ++vi) {
    EXPECT_EQ(first.delay_at(cls, 0, 0, vi), second.delay_at(cls, 0, 0, vi));
    EXPECT_EQ(first.energy_at(cls, 0, 0, vi), second.energy_at(cls, 0, 0, vi));
  }

  // An overlapping sub-range campaign only pays for points it never
  // simulated before.
  LutConfig sub = cfg;
  sub.vmax = cfg.vmax - cfg.vstep;
  BuildStats sub_stats;
  build_or_load(sized_paper_bus(), driver, sub, {}, &sub_stats);
  EXPECT_GT(sub_stats.store_hits, 0u);
  EXPECT_LT(sub_stats.transient_sims, cold.transient_sims);
}

TEST(PointStoreTest, PersistsAndReloads) {
  const std::string dir_a = fresh_dir("./.razorbus_pts_reload_a");
  const std::string dir_b = fresh_dir("./.razorbus_pts_reload_b");
  std::filesystem::remove_all(dir_a);
  std::filesystem::remove_all(dir_b);
  std::filesystem::create_directories(dir_a);
  std::filesystem::create_directories(dir_b);

  const std::uint64_t design_hash = 0x1234;
  const std::uint64_t key_1 =
      point_key(design_hash, tech::ProcessCorner::typical, 100.0, 1.10, 7);
  const std::uint64_t key_2 =
      point_key(design_hash, tech::ProcessCorner::slow, 25.0, 0.90, 12);
  ASSERT_NE(key_1, key_2);

  const auto store = PointStore::open(dir_a, design_hash);
  EXPECT_EQ(store->size(), 0u);
  EXPECT_FALSE(store->lookup(key_1).has_value());
  store->insert(key_1, {1e-10, 2e-13});
  store->insert(key_2, {-1.0, 5e-14});  // raw "victim did not switch" result
  store->flush();

  // The flushed bytes under a fresh directory model a cold process: the
  // store loads both points and answers lookups from them.
  std::filesystem::copy_file(store->path(), dir_b + "/points_1234.bin");
  const auto reloaded = PointStore::open(dir_b, design_hash);
  EXPECT_EQ(reloaded->size(), 2u);
  const auto hit = reloaded->lookup(key_1);
  ASSERT_TRUE(hit.has_value());
  EXPECT_DOUBLE_EQ(hit->delay, 1e-10);
  EXPECT_DOUBLE_EQ(hit->energy, 2e-13);
  const auto raw = reloaded->lookup(key_2);
  ASSERT_TRUE(raw.has_value());
  EXPECT_DOUBLE_EQ(raw->delay, -1.0);
  EXPECT_EQ(reloaded->stats().hits, 2u);
  EXPECT_EQ(reloaded->stats().misses, 0u);

  std::filesystem::remove_all(dir_a);
  std::filesystem::remove_all(dir_b);
}

TEST(PointStoreTest, GarbageFileStartsColdAndIsReplaced) {
  const std::string dir = fresh_dir("./.razorbus_pts_garbage");
  const std::string dir_check = fresh_dir("./.razorbus_pts_garbage_check");
  std::filesystem::remove_all(dir);
  std::filesystem::remove_all(dir_check);
  std::filesystem::create_directories(dir);
  std::filesystem::create_directories(dir_check);

  const std::uint64_t design_hash = 0xbeef;
  {
    std::ofstream out(dir + "/points_beef.bin", std::ios::binary);
    out << "not a point store at all";
  }
  const auto store = PointStore::open(dir, design_hash);
  EXPECT_EQ(store->size(), 0u);  // foreign bytes: start cold, don't throw

  store->insert(point_key(design_hash, tech::ProcessCorner::fast, 25.0, 1.0, 3),
                {3e-11, 4e-14});
  store->flush();  // atomically replaces the garbage

  std::filesystem::copy_file(store->path(), dir_check + "/points_beef.bin");
  EXPECT_EQ(PointStore::open(dir_check, design_hash)->size(), 1u);

  std::filesystem::remove_all(dir);
  std::filesystem::remove_all(dir_check);
}

// Two store instances over one file model two processes: "dir" and
// "dir/." name the same directory but are different registry keys.
TEST(PointStoreTest, FlushMergesAndRefreshSeesAPeersPoints) {
  const std::string dir = fresh_dir("./.razorbus_pts_merge");
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::uint64_t design_hash = 0x5eed;
  const std::uint64_t key_a =
      point_key(design_hash, tech::ProcessCorner::fast, 25.0, 1.0, 3);
  const std::uint64_t key_b =
      point_key(design_hash, tech::ProcessCorner::slow, 25.0, 1.0, 3);

  const auto first = PointStore::open(dir, design_hash);
  const auto second = PointStore::open(dir + "/.", design_hash);
  ASSERT_NE(first.get(), second.get());
  first->insert(key_a, {1e-10, 1e-13});
  first->flush();
  second->insert(key_b, {2e-10, 2e-13});
  second->flush();  // must keep the point `first` published

  const auto reader = PointStore::open(dir + "/./.", design_hash);
  EXPECT_EQ(reader->size(), 2u);
  EXPECT_TRUE(reader->lookup(key_a).has_value());
  EXPECT_TRUE(reader->lookup(key_b).has_value());

  EXPECT_FALSE(first->lookup(key_b).has_value());
  first->refresh();
  EXPECT_TRUE(first->lookup(key_b).has_value());

  std::filesystem::remove_all(dir);
}

// TSan-facing hammer (build_or_load is called from sharded
// characterization, so the store must take concurrent lookup/insert/flush
// traffic). Values are pure functions of the key, so whatever the
// interleaving, the surviving contents are identical.
TEST(PointStoreTest, ConcurrentLookupInsertFlush) {
  const std::string dir = fresh_dir("./.razorbus_pts_hammer");
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  const std::uint64_t design_hash = 0x77;
  const auto store = PointStore::open(dir, design_hash);
  const auto worker = [&](int base) {
    for (int i = 0; i < 200; ++i) {
      const int cls = (base + i) % 64;
      const std::uint64_t key = point_key(design_hash, tech::ProcessCorner::slow,
                                          100.0, 1.0 + 0.001 * cls, cls);
      store->lookup(key);
      store->insert(key, {1e-12 * cls, 1e-15});
      if (i % 50 == 0) store->flush();
    }
  };
  std::thread a(worker, 0);
  std::thread b(worker, 100);
  a.join();
  b.join();
  store->flush();

  EXPECT_EQ(store->size(), 64u);  // one entry per distinct key
  EXPECT_EQ(store->stats().inserts, 64u);
  for (int cls = 0; cls < 64; ++cls) {
    const auto hit = store->lookup(point_key(design_hash, tech::ProcessCorner::slow,
                                             100.0, 1.0 + 0.001 * cls, cls));
    ASSERT_TRUE(hit.has_value());
    EXPECT_DOUBLE_EQ(hit->delay, 1e-12 * cls);
  }

  std::filesystem::remove_all(dir);
}

// ------------------------------------------------ sizing from the store

std::uint64_t bits(double v) { return bit_cast<std::uint64_t>(v); }

void write_bytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
}

// The sizing store: the point store of the unsized paper bus.
std::shared_ptr<PointStore> sizing_store() {
  return PointStore::open(cache_directory(),
                          design_content_hash(interconnect::BusDesign::paper_bus()));
}

double size_paper_bus_from_store() {
  interconnect::BusDesign bus = interconnect::BusDesign::paper_bus();
  return size_repeaters_from_store(bus, tech::DriverModel(bus.node),
                                   tech::worst_case_corner());
}

// The direct bisection's size, simulated once per process.
double raw_paper_size() {
  static const double size = [] {
    interconnect::BusDesign bus = interconnect::BusDesign::paper_bus();
    return interconnect::size_repeaters(bus, tech::DriverModel(bus.node),
                                        tech::worst_case_corner());
  }();
  return size;
}

TEST(SizingStore, MatchesTheRawBisectionAndWarmCallsOnlyHit) {
  CacheDirGuard guard(fresh_dir("./.razorbus_cache_sizing"));
  interconnect::BusDesign bus = interconnect::BusDesign::paper_bus();
  const double size = size_repeaters_from_store(bus, tech::DriverModel(bus.node),
                                                tech::worst_case_corner());
  EXPECT_EQ(bits(size), bits(raw_paper_size()));
  EXPECT_EQ(bits(bus.repeater_size), bits(size));

  const auto store = sizing_store();
  const PointStore::Stats cold = store->stats();
  EXPECT_EQ(cold.hits, 0u);
  EXPECT_GT(cold.misses, 0u);
  EXPECT_EQ(cold.inserts, cold.misses);  // one simulated point per candidate

  // A second sizing replays the same candidates: all hits, nothing new.
  EXPECT_EQ(bits(size_paper_bus_from_store()), bits(size));
  const PointStore::Stats warm = store->stats();
  EXPECT_EQ(warm.hits - cold.hits, cold.misses);
  EXPECT_EQ(warm.misses, cold.misses);
  EXPECT_EQ(warm.inserts, cold.inserts);
}

TEST(SizingStore, DamagedStoreFileResimulatesTheSameSize) {
  std::string name;
  std::string bytes;
  {
    CacheDirGuard guard(fresh_dir("./.razorbus_cache_sizing_src"));
    size_paper_bus_from_store();
    const auto store = sizing_store();
    name = std::filesystem::path(store->path()).filename().string();
    bytes = slurp(store->path());
  }
  constexpr std::size_t kHeader = 16;  // magic + count
  constexpr std::size_t kRecord = 24;  // key, delay, energy
  ASSERT_GT(bytes.size(), kHeader + 2 * kRecord);
  const std::uint64_t points = (bytes.size() - kHeader) / kRecord;

  struct Case {
    const char* what;
    std::string file;
    std::uint64_t hits;  // candidates the damaged file still answers
  };
  const Case cases[] = {
      {"intact", bytes, points},
      {"truncated mid-record", bytes.substr(0, kHeader + 2 * kRecord + 5), 2},
      {"garbage", "not a point store" + std::string(200, '\x5a'), 0},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.what);
    CacheDirGuard guard(fresh_dir("./.razorbus_cache_sizing_damaged"));
    write_bytes(cache_directory() + "/" + name, c.file);
    EXPECT_EQ(bits(size_paper_bus_from_store()), bits(raw_paper_size()));
    const PointStore::Stats stats = sizing_store()->stats();
    EXPECT_EQ(stats.hits, c.hits);
    EXPECT_EQ(stats.misses, points - c.hits);
    // The re-simulated points were published over the damaged file.
    EXPECT_EQ(slurp(cache_directory() + "/" + name), bytes);
  }
}

// ---------------------------------------------- cold races between processes
//
// The race tests run builders as separate processes. The parent's thread
// pool cannot survive fork(), so each builder re-executes this binary for
// the LutCacheRace.Child test alone, which finds its report path in
// kChildOutEnv and the cache directory in the inherited RAZORBUS_CACHE_DIR.

constexpr const char* kChildOutEnv = "RAZORBUS_RACE_CHILD_OUT";
constexpr int kBuilders = 4;

LutConfig race_config() { return tiny_config(1.16); }

// Starts one builder; it writes its table build's transient_sims and its
// sizing's point-store misses to `out`, the bytes of the table it got to
// `out + ".lut"` and its console output to `out + ".log"`. Everything is
// allocated before fork(): the child only redirects and execs.
pid_t spawn_builder(const std::string& out) {
  std::vector<std::string> env;
  for (char** e = environ; *e != nullptr; ++e) env.emplace_back(*e);
  env.push_back(std::string(kChildOutEnv) + "=" + out);
  std::vector<char*> envp;
  for (std::string& entry : env) envp.push_back(entry.data());
  envp.push_back(nullptr);
  std::string self = "lut_cache_test";
  std::string filter = "--gtest_filter=LutCacheRace.Child";
  char* argv[] = {self.data(), filter.data(), nullptr};
  const int log = ::open((out + ".log").c_str(), O_CREAT | O_WRONLY | O_TRUNC, 0644);
  const pid_t pid = fork();
  if (pid == 0) {
    ::dup2(log, STDOUT_FILENO);
    ::dup2(log, STDERR_FILENO);
    execve("/proc/self/exe", argv, envp.data());
    _exit(127);
  }
  ::close(log);
  return pid;
}

// Exit status of `pid`, waiting at most about a minute (then it is killed
// and reported as -1): a stalled builder fails the test instead of hanging.
int wait_bounded(pid_t pid) {
  int status = 0;
  for (int i = 0; i < 6000; ++i) {
    if (waitpid(pid, &status, WNOHANG) == pid)
      return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  kill(pid, SIGKILL);
  waitpid(pid, &status, 0);
  return -1;
}

// Exactly one builder simulated table points, `sizers` builders simulated
// sizing points, and every builder holds the bytes of the one table file
// in the cache.
void expect_built_once(const std::string& dir, const std::vector<std::string>& outs,
                       int sizers) {
  std::vector<std::string> tables;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const std::string file = entry.path().filename().string();
    EXPECT_EQ(file.find(".tmp."), std::string::npos) << "leftover " << file;
    if (file.rfind("lut_", 0) == 0 && entry.path().extension() == ".bin")
      tables.push_back(entry.path().string());
  }
  ASSERT_EQ(tables.size(), 1u);
  const std::string table = slurp(tables[0]);
  int builders = 0;
  int sizing_builders = 0;
  for (const std::string& out : outs) {
    std::uint64_t sims = 0;
    std::uint64_t sizing_misses = 0;
    std::ifstream(out) >> sims >> sizing_misses;
    if (sims > 0) ++builders;
    if (sizing_misses > 0) ++sizing_builders;
    EXPECT_EQ(slurp(out + ".lut"), table) << out;
  }
  EXPECT_EQ(builders, 1);
  EXPECT_EQ(sizing_builders, sizers);
}

TEST(LutCacheRace, Child) {
  const char* out = std::getenv(kChildOutEnv);
  if (out == nullptr) GTEST_SKIP() << "runs only as a builder of the race tests";
  BuildStats stats;
  const DelayEnergyTable table = build_or_load(
      sized_paper_bus(), tech::DriverModel(sized_paper_bus().node), race_config(), {},
      &stats);
  std::ofstream lut(std::string(out) + ".lut", std::ios::binary);
  table.save(lut, table_key_hash(sized_paper_bus(), race_config()));
  std::ofstream(out) << stats.transient_sims << " " << sizing_store()->stats().misses
                     << "\n";
}

TEST(LutCacheRace, ColdBuildersCharacteriseOnce) {
  CacheDirGuard guard(fresh_dir("./.razorbus_cache_race"));
  const std::string dir = cache_directory();
  const std::string outs_dir = dir + "_outs";
  std::filesystem::create_directories(outs_dir);
  std::vector<std::string> outs;
  std::vector<pid_t> builders;
  for (int i = 0; i < kBuilders; ++i) {
    outs.push_back(outs_dir + "/builder" + std::to_string(i));
    builders.push_back(spawn_builder(outs.back()));
  }
  for (const pid_t pid : builders) EXPECT_EQ(wait_bounded(pid), 0);
  expect_built_once(dir, outs, 1);
  std::filesystem::remove_all(outs_dir);
}

TEST(LutCacheRace, KilledLockHolderDoesNotStallBuilders) {
  CacheDirGuard guard(fresh_dir("./.razorbus_cache_race_kill"));
  const std::string dir = cache_directory();
  const std::string outs_dir = dir + "_outs";
  std::filesystem::create_directories(outs_dir);
  // Sized here first, so the builders race for the table only.
  size_paper_bus_from_store();
  const std::string lock_path =
      PointStore::open(dir, design_content_hash(sized_paper_bus()))->build_lock_path();
  const std::string ready = outs_dir + "/holder_ready";

  // The holder takes the design's build lock the way a builder does, says
  // so, and then hangs until it is killed.
  const pid_t holder = fork();
  if (holder == 0) {
    const util::FileLock lock(lock_path);
    if (lock.held()) ::close(::open(ready.c_str(), O_CREAT | O_WRONLY, 0644));
    for (;;) ::pause();
  }
  ASSERT_GT(holder, 0);
  for (int i = 0; i < 3000 && !std::filesystem::exists(ready); ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  ASSERT_TRUE(std::filesystem::exists(ready));

  std::vector<std::string> outs;
  std::vector<pid_t> builders;
  for (int i = 0; i < kBuilders; ++i) {
    outs.push_back(outs_dir + "/builder" + std::to_string(i));
    builders.push_back(spawn_builder(outs.back()));
  }
  // While the holder lives, no builder can get past the lock.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  for (const pid_t pid : builders) {
    int status = 0;
    EXPECT_EQ(waitpid(pid, &status, WNOHANG), 0) << "a builder finished under the lock";
  }
  kill(holder, SIGKILL);
  waitpid(holder, nullptr, 0);
  for (const pid_t pid : builders) EXPECT_EQ(wait_bounded(pid), 0);
  expect_built_once(dir, outs, 0);
  std::filesystem::remove_all(outs_dir);
}

}  // namespace
}  // namespace razorbus::lut

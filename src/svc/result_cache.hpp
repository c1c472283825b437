// Content-addressed cache of completed campaign-job reports
// (docs/campaign-service.md).
//
// Entries are keyed by core::job_content_hash — a hash of the resolved
// spec JSON, any trace-file bytes, the simulator version and the hash
// scheme version — and hold the report bytes VERBATIM. Because job results
// are bit-identical across hosts, thread counts and reruns (DESIGN.md §9),
// a hit can be replayed by copying the stored bytes to the report path:
// the replayed BENCH_<job>.json is byte-identical to what a fresh
// simulation would have written, which tests and the CI campaign-cache leg
// assert. This is lut::PointStore's entry-format idea lifted from single
// characterization points to whole campaign jobs; the directory is shared
// across campaigns, CI runs (via actions/cache) and — rsynced — hosts.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "util/thread_annotations.hpp"

namespace razorbus::svc {

class ResultCache {
 public:
  struct Stats {
    std::uint64_t hits = 0;     // lookups answered from the cache
    std::uint64_t misses = 0;   // lookups that required a simulation
    std::uint64_t inserts = 0;  // reports stored after fresh runs
  };

  // Opens (or creates) the cache directory. Entries live as
  // <dir>/r_<hash_hex>.json, written atomically.
  explicit ResultCache(std::string dir);

  // The stored report bytes for a job hash, or nullopt on miss. A torn or
  // corrupt entry (crash before an atomic publish, foreign debris) fails
  // JSON validation and counts as a miss — it is removed so the fresh
  // result can replace it.
  std::optional<std::string> lookup(const std::string& hash_hex);

  // Stores a completed report's bytes under its job hash (atomic,
  // last-writer-wins; both writers hold identical bytes by determinism).
  // Rejects bytes that do not parse as JSON — a torn source file must not
  // poison the cache.
  void insert(const std::string& hash_hex, const std::string& report_bytes);

  Stats stats() const;

  std::string entry_path(const std::string& hash_hex) const;
  const std::string& dir() const { return dir_; }

 private:
  std::string dir_;
  mutable util::Mutex mutex_;
  Stats stats_ GUARDED_BY(mutex_);
};

}  // namespace razorbus::svc

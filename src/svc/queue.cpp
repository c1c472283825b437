#include "svc/queue.hpp"

#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <filesystem>
#include <system_error>

#include "svc/fsio.hpp"
#include "util/atomic_file.hpp"
#include "util/file_lock.hpp"

namespace razorbus::svc {

namespace fs = std::filesystem;

namespace {

// Claim-file names derive from the job name (filesystem-safe by the
// ScenarioSpec name validation), so claim/job/done files line up 1:1.
std::string claim_name(const std::string& job) { return job + ".claim"; }

// Is the process that wrote a claim still alive? Signal 0 probes without
// delivering: ESRCH means the pid is gone and the claim is stale. EPERM
// (pid exists but owned by another user) counts as alive — stealing a
// running job is worse than waiting. Per-host only, by construction.
bool pid_alive(long long pid) {
  if (pid <= 0) return false;
  return ::kill(static_cast<pid_t>(pid), 0) == 0 || errno != ESRCH;
}

// Is the claim at `path` abandoned? Its pid is dead, or its body cannot be
// read (a torn claim left by a crash, or one released a moment ago).
bool claim_is_stale(const std::string& path) {
  try {
    return !pid_alive(Json::parse_file(path).at("pid").as_int());
  } catch (const std::exception&) {
    return true;
  }
}

}  // namespace

Json QueueJob::to_json() const {
  Json j = Json::object();
  j.set("name", name);
  j.set("hash", hash_hex);
  j.set("spec", spec_path);
  j.set("report", report_path);
  j.set("log", log_path);
  return j;
}

QueueJob QueueJob::from_json(const Json& json) {
  QueueJob job;
  job.name = json.at("name").as_string();
  job.hash_hex = json.at("hash").as_string();
  job.spec_path = json.at("spec").as_string();
  job.report_path = json.at("report").as_string();
  job.log_path = json.at("log").as_string();
  return job;
}

JobQueue::JobQueue(std::string dir) : dir_(std::move(dir)) {
  jobs_dir_ = (fs::path(dir_) / "jobs").string();
  claims_dir_ = (fs::path(dir_) / "claims").string();
  done_dir_ = (fs::path(dir_) / "done").string();
  fs::create_directories(jobs_dir_);
  fs::create_directories(claims_dir_);
  fs::create_directories(done_dir_);
}

void JobQueue::enqueue(const QueueJob& job) {
  write_file_atomic((fs::path(jobs_dir_) / (job.name + ".json")).string(),
                    job.to_json().dump(2) + "\n");
}

std::vector<QueueJob> JobQueue::jobs() const {
  std::vector<QueueJob> out;
  std::vector<std::string> paths;
  for (const auto& entry : fs::directory_iterator(jobs_dir_)) {
    if (entry.path().extension() == ".json") paths.push_back(entry.path().string());
  }
  std::sort(paths.begin(), paths.end());
  for (const auto& path : paths) {
    try {
      out.push_back(QueueJob::from_json(Json::parse_file(path)));
    } catch (const std::exception&) {
      // Torn or foreign file: not a job. (Publishes are atomic, so this
      // can only be debris; skipping matches the PointStore contract.)
    }
  }
  return out;
}

std::optional<QueueJob> JobQueue::claim(const std::string& worker_id) {
  Json claim = Json::object();
  claim.set("worker", worker_id);
  claim.set("pid", static_cast<long long>(::getpid()));
  for (const QueueJob& job : jobs()) {
    if (is_done(job.name)) continue;
    const std::string claim_path =
        (fs::path(claims_dir_) / claim_name(job.name)).string();
    claim.set("job", job.name);
    const std::string text = claim.dump(2) + "\n";

    // Up to two exclusive publishes: the first loses either to a live
    // claim (skip the job) or to a stale one (steal it, try once more).
    // The second can still lose — another worker reclaimed first — and
    // then this worker simply moves on. The claim appears with its whole
    // body (create_file_exclusive links a complete file), so a peer never
    // reads a live claim half-written and mistakes it for a torn one.
    bool won = false;
    for (int attempt = 0; attempt < 2 && !won; ++attempt) {
      try {
        won = create_file_exclusive(claim_path, text);
      } catch (const std::exception&) {
        break;  // unwritable claims dir: skip the job
      }
      if (!won && !steal_stale_claim(claim_path)) break;
    }
    if (!won) continue;
    // A peer may have claimed, completed and released the job between the
    // is_done() check above and this claim: hand it straight back.
    if (is_done(job.name)) {
      release(job.name);
      continue;
    }
    return job;
  }
  return std::nullopt;
}

bool JobQueue::steal_stale_claim(const std::string& claim_path) const {
  if (!claim_is_stale(claim_path)) return false;
  // Two workers can both read one dead claim as stale; the later one must
  // not then remove the fresh claim the earlier one has published in its
  // place. Stealers therefore serialise on an flock(2) of claims/.steal —
  // which the kernel drops if the holder dies — re-read the claim under it,
  // and rename it to a unique tombstone only while it is still stale.
  const util::FileLock lock((fs::path(claims_dir_) / ".steal").string());
  if (!lock.held() || !claim_is_stale(claim_path)) return false;
  const std::string tomb = util::unique_sibling(claim_path, "tomb");
  if (::rename(claim_path.c_str(), tomb.c_str()) == 0) {
    std::error_code ec;
    fs::remove(tomb, ec);
  }
  return true;  // the stale claim is gone (or was released meanwhile)
}

void JobQueue::complete(const std::string& name, const Json& record) {
  write_file_atomic((fs::path(done_dir_) / (name + ".json")).string(),
                    record.dump(2) + "\n");
  release(name);
}

void JobQueue::release(const std::string& name) {
  std::error_code ec;
  fs::remove(fs::path(claims_dir_) / claim_name(name), ec);
}

bool JobQueue::is_done(const std::string& name) const {
  return done_record(name).has_value();
}

std::optional<Json> JobQueue::done_record(const std::string& name) const {
  try {
    return Json::parse_file((fs::path(done_dir_) / (name + ".json")).string());
  } catch (const std::exception&) {
    return std::nullopt;
  }
}

void JobQueue::reset(const std::string& name) {
  std::error_code ec;
  fs::remove(fs::path(done_dir_) / (name + ".json"), ec);
  fs::remove(fs::path(claims_dir_) / claim_name(name), ec);
}

void JobQueue::remove(const std::string& name) {
  reset(name);
  std::error_code ec;
  fs::remove(fs::path(jobs_dir_) / (name + ".json"), ec);
}

std::size_t JobQueue::done_count() const {
  std::size_t n = 0;
  for (const QueueJob& job : jobs())
    if (is_done(job.name)) ++n;
  return n;
}

bool JobQueue::all_done() const {
  for (const QueueJob& job : jobs())
    if (!is_done(job.name)) return false;
  return true;
}

}  // namespace razorbus::svc

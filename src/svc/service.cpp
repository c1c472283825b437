#include "svc/service.hpp"

#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <set>
#include <system_error>
#include <thread>
#include <utility>

#include "core/job_hash.hpp"
#include "svc/fsio.hpp"
#include "util/parallel.hpp"

namespace razorbus::svc {

namespace fs = std::filesystem;

namespace {

// razorlint: allow(no-wallclock): service wall-time/throughput accounting —
// reported in status files and summaries, never fed into simulation state.
using ServiceClock = std::chrono::steady_clock;

// Seconds on a monotonic clock with an arbitrary origin; only differences
// are ever reported.
double now_seconds() {
  return std::chrono::duration<double>(ServiceClock::now().time_since_epoch()).count();
}

void print_log_tail(const std::string& log_path) {
  std::ifstream log(log_path);
  std::vector<std::string> lines;
  for (std::string line; std::getline(log, line);) lines.push_back(line);
  for (std::size_t i = lines.size() > 10 ? lines.size() - 10 : 0; i < lines.size(); ++i)
    std::printf("    %s\n", lines[i].c_str());
}

ServiceConfig resolve(ServiceConfig config) {
  if (config.out_dir.empty()) config.out_dir = "campaign_out";
  if (config.queue_dir.empty())
    config.queue_dir = (fs::path(config.out_dir) / "queue").string();
  if (config.cache_dir.empty())
    config.cache_dir = (fs::path(config.out_dir) / "cache").string();
  if (config.status_path.empty())
    config.status_path = (fs::path(config.out_dir) / "status.json").string();
  if (config.workers == 0) config.workers = 1;
  return config;
}

}  // namespace

CampaignService::CampaignService(core::CampaignSpec campaign,
                                 std::vector<core::ScenarioJob> jobs,
                                 ServiceConfig config)
    : campaign_(std::move(campaign)),
      config_(resolve(std::move(config))),
      queue_(config_.queue_dir),
      cache_(config_.cache_dir) {
  // Shard-manifest mode: this host keeps only its hash-assigned subset.
  if (config_.shard_count > 0) {
    for (auto& job : jobs) {
      const auto shard = static_cast<int>(core::job_content_hash(job) %
                                          static_cast<std::uint64_t>(config_.shard_count));
      if (shard == config_.shard_index) jobs_.push_back(std::move(job));
    }
  } else {
    jobs_ = std::move(jobs);
  }
}

CampaignService::CampaignService(ServiceConfig config)
    : config_(resolve(std::move(config))),
      queue_(config_.queue_dir),
      cache_(config_.cache_dir),
      attached_(true) {}

std::size_t CampaignService::prepare() {
  fs::create_directories(config_.out_dir);
  if (!attached_)
    write_file_atomic((fs::path(config_.out_dir) / "campaign.json").string(),
                      campaign_.to_json().dump(2) + "\n");

  // Drop queue records for jobs the (possibly edited) campaign no longer
  // expands to, so all_done() converges on the current job set.
  std::set<std::string> wanted;
  for (const auto& job : jobs_) wanted.insert(job.name);
  for (const QueueJob& stale : queue_.jobs())
    if (!wanted.count(stale.name)) queue_.remove(stale.name);

  std::size_t cached_prior = 0;
  for (const auto& job : jobs_) {
    QueueJob record;
    record.name = job.name;
    record.hash_hex = core::job_hash_hex(job);
    record.spec_path =
        (fs::path(config_.out_dir) / (job.name + ".spec.json")).string();
    record.report_path =
        (fs::path(config_.out_dir) / ("BENCH_" + job.name + ".json")).string();
    record.log_path = (fs::path(config_.out_dir) / (job.name + ".log")).string();
    write_file_atomic(record.spec_path, job.spec.to_json().dump(2) + "\n");

    // Reconcile this job's previous outcome, if any. A job resumes as done
    // only when its recorded content hash still matches (the spec, its
    // trace bytes and the code version are unchanged) AND its report file
    // parses — a truncated/corrupt partial report is skipped and re-run,
    // the same tolerance PointStore applies to its cache files.
    bool done = false;
    if (!config_.force) {
      if (const auto outcome = queue_.done_record(job.name)) {
        const Json* status = outcome->find("status");
        const Json* hash = outcome->find("hash");
        const bool ok = status != nullptr && status->is_string() &&
                        status->as_string() == "ok" && hash != nullptr &&
                        hash->is_string() && hash->as_string() == record.hash_hex;
        bool report_parses = false;
        if (ok) {
          try {
            Json::parse_file(record.report_path);
            report_parses = true;
          } catch (const std::exception&) {
            report_parses = false;
          }
        }
        done = ok && report_parses;
      }
    }
    if (!done) {
      queue_.reset(job.name);
      std::error_code ec;
      fs::remove(record.report_path, ec);
    } else {
      ++cached_prior;
      if (config_.verbose) std::printf("  [cached] %s\n", job.name.c_str());
    }
    queue_.enqueue(record);

    util::MutexLock lock(mutex_);
    states_[job.name] = {done ? JobState::ok : JobState::pending, done};
  }

  {
    util::MutexLock lock(mutex_);
    summary_.jobs_total = jobs_.size();
    summary_.cached_prior = cached_prior;
  }
  write_status();
  return cached_prior;
}

CampaignService::Summary CampaignService::run() {
  {
    util::MutexLock lock(mutex_);
    if (attached_) summary_.jobs_total = queue_.jobs().size();
    started_at_ = now_seconds();
  }
  write_status();

  const std::string worker_stem = "pid" + std::to_string(::getpid());
  util::ThreadPool pool(config_.workers);
  pool.parallel_for(config_.workers, [&](std::size_t lane) {
    const std::string worker_id = worker_stem + ".lane" + std::to_string(lane);
    while (true) {
      {
        util::MutexLock lock(mutex_);
        if (config_.max_jobs > 0 && claims_ >= config_.max_jobs) break;
      }
      std::optional<QueueJob> job = queue_.claim(worker_id);
      if (!job) {
        if (queue_.all_done()) break;
        // Jobs remain but are claimed by live workers (this process's
        // other lanes or attached `campaign worker` processes): wait for
        // outcomes.
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        continue;
      }
      {
        util::MutexLock lock(mutex_);
        ++claims_;
      }
      run_job(*job, worker_id);
    }
  });

  Summary out;
  {
    util::MutexLock lock(mutex_);
    summary_.wall_seconds = now_seconds() - started_at_;
    summary_.drained = queue_.all_done();
    out = summary_;
  }
  write_status();
  return out;
}

void CampaignService::run_job(const QueueJob& job, const std::string& worker_id) {
  set_state(job.name, JobState::running, false);

  // Result-cache fast path: a prior run of this exact job (any campaign,
  // any host, any CI run sharing the cache dir) already produced the
  // report — replay its bytes verbatim. Byte-identity is guaranteed by
  // the determinism contract, asserted by tests and the CI cache leg.
  if (!config_.force) {
    if (const auto bytes = cache_.lookup(job.hash_hex)) {
      write_file_atomic(job.report_path, *bytes);
      Json outcome = Json::object();
      outcome.set("name", job.name);
      outcome.set("hash", job.hash_hex);
      outcome.set("status", "ok");
      outcome.set("cached", true);
      outcome.set("worker", worker_id);
      queue_.complete(job.name, outcome);
      std::size_t finished = 0, total = 0;
      {
        util::MutexLock lock(mutex_);
        ++summary_.cache_hits;
        finished = ++finished_;
        total = summary_.jobs_total;
      }
      set_state(job.name, JobState::ok, true);
      if (config_.verbose) {
        std::printf("  [%zu/%zu] cache-hit %s\n", finished, total, job.name.c_str());
        std::fflush(stdout);
      }
      return;
    }
    util::MutexLock lock(mutex_);
    ++summary_.cache_misses;
  }

  const std::string cmd = shell_quote(config_.runner) + " run-one " +
                          shell_quote(job.spec_path) + " " +
                          shell_quote("--json=" + job.report_path) + " > " +
                          shell_quote(job.log_path) + " 2>&1";
  const int status = std::system(cmd.c_str());

  bool ok = status == 0;
  std::string report_bytes;
  double cycles = 0.0;
  if (ok) {
    try {
      report_bytes = read_file(job.report_path);
      const Json report = Json::parse(report_bytes);
      if (const Json* c = report.find("cycles"); c != nullptr && c->is_number())
        cycles = c->as_double();
    } catch (const std::exception&) {
      ok = false;  // child exited 0 but left no parseable report
    }
  }
  if (ok) cache_.insert(job.hash_hex, report_bytes);

  Json outcome = Json::object();
  outcome.set("name", job.name);
  outcome.set("hash", job.hash_hex);
  outcome.set("status", ok ? "ok" : "failed");
  outcome.set("cached", false);
  outcome.set("worker", worker_id);
  if (ok) outcome.set("cycles", cycles);
  queue_.complete(job.name, outcome);

  std::size_t finished = 0, total = 0;
  {
    util::MutexLock lock(mutex_);
    ++summary_.executed;
    if (!ok) ++summary_.failed;
    summary_.executed_cycles += cycles;
    finished = ++finished_;
    total = summary_.jobs_total;
  }
  set_state(job.name, ok ? JobState::ok : JobState::failed, false);
  if (config_.verbose) {
    std::printf("  [%zu/%zu] %s %s\n", finished, total, ok ? "done" : "FAILED",
                job.name.c_str());
    std::fflush(stdout);
    if (!ok) {
      std::printf("\n%s failed; last lines of %s:\n", job.name.c_str(),
                  job.log_path.c_str());
      print_log_tail(job.log_path);
    }
  }
}

Json CampaignService::aggregate() const {
  Json aggregate = Json::object();
  Json scenarios = Json::object();
  {
    util::MutexLock lock(mutex_);
    aggregate.set("campaign", campaign_.name);
    if (!campaign_.description.empty())
      aggregate.set("description", campaign_.description);
    aggregate.set("out_dir", config_.out_dir);
    aggregate.set("jobs", static_cast<long long>(summary_.jobs_total));
    // "cached" counts every job that produced its report without running a
    // simulation this invocation: resumed-as-done plus result-cache hits.
    aggregate.set("cached", static_cast<long long>(summary_.cached_prior +
                                                   summary_.cache_hits));
    aggregate.set("wall_seconds", summary_.wall_seconds);
    Json cache = Json::object();
    cache.set("prior_done", static_cast<long long>(summary_.cached_prior));
    cache.set("hits", static_cast<long long>(summary_.cache_hits));
    cache.set("misses", static_cast<long long>(summary_.cache_misses));
    aggregate.set("cache", std::move(cache));
    aggregate.set("executed", static_cast<long long>(summary_.executed));
    aggregate.set("failed", static_cast<long long>(summary_.failed));
    aggregate.set("executed_cycles", summary_.executed_cycles);
  }
  for (const QueueJob& job : queue_.jobs()) {
    const auto outcome = queue_.done_record(job.name);
    if (!outcome) continue;
    const Json* status = outcome->find("status");
    if (status == nullptr || !status->is_string() || status->as_string() != "ok")
      continue;
    try {
      scenarios.set(job.name, Json::parse_file(job.report_path));
    } catch (const std::exception&) {
      // Report vanished between completion and aggregation; leave it out.
    }
  }
  aggregate.set("scenarios", std::move(scenarios));
  return aggregate;
}

Json CampaignService::status_json() const {
  util::MutexLock lock(mutex_);
  return status_json_locked();
}

Json CampaignService::status_json_locked() const {
  std::size_t pending = 0, running = 0, done = 0, failed = 0;
  Json jobs = Json::object();
  for (const auto& [name, state] : states_) {
    const char* label = "pending";
    switch (state.first) {
      case JobState::pending: ++pending; label = "pending"; break;
      case JobState::running: ++running; label = "running"; break;
      case JobState::ok: ++done; label = state.second ? "done (cached)" : "done"; break;
      case JobState::failed: ++failed; label = "failed"; break;
    }
    jobs.set(name, label);
  }

  const double wall = started_at_ >= 0.0 ? now_seconds() - started_at_ : 0.0;
  const auto finished = static_cast<double>(summary_.cache_hits) +
                        static_cast<double>(summary_.executed);
  const double lookups = static_cast<double>(summary_.cache_hits) +
                         static_cast<double>(summary_.cache_misses);

  Json status = Json::object();
  status.set("campaign", campaign_.name);
  status.set("out_dir", config_.out_dir);
  status.set("queue_dir", config_.queue_dir);
  status.set("cache_dir", config_.cache_dir);
  status.set("jobs_total", static_cast<long long>(summary_.jobs_total));
  status.set("pending", static_cast<long long>(pending));
  status.set("running", static_cast<long long>(running));
  status.set("done", static_cast<long long>(done));
  status.set("failed", static_cast<long long>(failed));
  status.set("cached_prior", static_cast<long long>(summary_.cached_prior));
  status.set("cache_hits", static_cast<long long>(summary_.cache_hits));
  status.set("cache_misses", static_cast<long long>(summary_.cache_misses));
  status.set("cache_hit_rate", lookups > 0.0
                                   ? static_cast<double>(summary_.cache_hits) / lookups
                                   : 0.0);
  status.set("executed", static_cast<long long>(summary_.executed));
  status.set("executed_cycles", summary_.executed_cycles);
  status.set("wall_seconds", wall);
  status.set("jobs_per_second", wall > 0.0 ? finished / wall : 0.0);
  status.set("jobs", std::move(jobs));
  return status;
}

void CampaignService::set_state(const std::string& name, JobState state,
                                bool cached) {
  {
    util::MutexLock lock(mutex_);
    states_[name] = {state, cached};
  }
  write_status();
}

void CampaignService::write_status() const {
  std::string text;
  {
    util::MutexLock lock(mutex_);
    text = status_json_locked().dump(2) + "\n";
  }
  try {
    write_file_atomic(config_.status_path, text);
  } catch (const std::exception&) {
    // Best-effort surface: an unwritable status file must not fail jobs.
  }
}

}  // namespace razorbus::svc

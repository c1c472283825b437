// Campaign service (docs/campaign-service.md): content-hash job identity,
// the durable link(2) claim queue, the verbatim result cache, and the
// `campaign` front end over them end to end.
//
// The in-process tests drive src/svc directly (the concurrency ones run
// under the TSan CI leg); the end-to-end tests spawn the sibling
// `campaign` binary from the build directory, like ctest and CI do, and
// assert the acceptance contract: a warm rerun of a campaign performs
// zero simulations and emits byte-identical per-job reports, a worker
// killed mid-campaign resumes without re-running completed jobs, attached
// workers and hash shards run every job exactly once, and malformed
// service flags fail before any work.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <set>
#include <thread>
#include <vector>

#include "core/job_hash.hpp"
#include "core/scenario_spec.hpp"
#include "svc/fsio.hpp"
#include "svc/queue.hpp"
#include "svc/result_cache.hpp"
#include "test_support.hpp"
#include "util/json.hpp"

namespace razorbus {
namespace {

namespace fs = std::filesystem;

using test_support::run_cmd;
using test_support::slurp;

// Starts `cmd` under /bin/sh without waiting for it.
pid_t spawn_cmd(const std::string& cmd) {
  const pid_t pid = fork();
  if (pid == 0) {
    execl("/bin/sh", "sh", "-c", cmd.c_str(), static_cast<char*>(nullptr));
    _exit(127);
  }
  return pid;
}

// The exit code of a spawn_cmd child, or -1 if it did not exit normally.
int wait_cmd(pid_t pid) {
  int status = 0;
  if (waitpid(pid, &status, 0) != pid || !WIFEXITED(status)) return -1;
  return WEXITSTATUS(status);
}

core::ScenarioJob make_job(const std::string& name, const std::string& spec_json) {
  core::ScenarioJob job;
  job.name = name;
  job.spec = core::ScenarioSpec::from_json(Json::parse(spec_json));
  return job;
}

// A scratch directory per test, wiped on entry.
std::string scratch(const std::string& name) {
  const std::string dir = "campaignd_test_out/" + name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

// --------------------------------------------------------- content hashing

TEST(JobHash, SameSpecSameHash) {
  const char* spec = R"({"name": "a", "experiment": "closed_loop",
      "trace": {"source": "synthetic", "style": "uniform", "seed": 5},
      "cycles": 1000, "threads": 1})";
  EXPECT_EQ(core::job_content_hash(make_job("a", spec)),
            core::job_content_hash(make_job("a", spec)));
  EXPECT_EQ(core::job_hash_hex(make_job("a", spec)).size(), 16u);
}

// Any field change — the knobs that pick what gets simulated, how much,
// and with which engine — must move the hash, or the result cache would
// serve stale reports.
TEST(JobHash, AnyFieldChangeChangesHash) {
  const auto base = [](const std::string& patch) {
    Json spec = Json::parse(
        R"({"name": "a", "experiment": "closed_loop",
            "trace": {"source": "synthetic", "style": "uniform", "seed": 5},
            "cycles": 1000, "threads": 1})");
    if (!patch.empty()) {
      const Json extra = Json::parse(patch);
      for (const auto& [key, value] : extra.members()) spec.set(key, value);
    }
    core::ScenarioJob job;
    job.name = "a";
    job.spec = core::ScenarioSpec::from_json(spec);
    return core::job_content_hash(job);
  };
  const std::uint64_t reference = base("");
  const std::vector<std::string> patches = {
      R"({"cycles": 1001})",
      R"({"threads": 2})",
      R"({"widths": [64]})",
      R"({"controllers": ["fixed_vs"]})",
      R"({"engine": "reference"})",
      R"({"stream": true})",
      R"({"lut_tolerance": 0.02})",
      R"({"corners": ["worst"]})",
      R"({"encoding": "bus_invert"})",
      R"({"trace": {"source": "synthetic", "style": "uniform", "seed": 6}})",
      R"({"trace": {"source": "synthetic", "style": "sparse", "seed": 5}})",
  };
  std::set<std::uint64_t> seen{reference};
  for (const auto& patch : patches) {
    const std::uint64_t hash = base(patch);
    EXPECT_NE(hash, reference) << patch;
    EXPECT_TRUE(seen.insert(hash).second) << "collision for " << patch;
  }
  // The job NAME is part of the identity too (distinct axis points).
  core::ScenarioJob renamed = make_job(
      "b", R"({"name": "a", "experiment": "closed_loop",
               "trace": {"source": "synthetic", "style": "uniform", "seed": 5},
               "cycles": 1000, "threads": 1})");
  EXPECT_NE(core::job_content_hash(renamed), reference);
}

// The multi-bus lane list, the arbitration policy and the drift schedule
// all pick what gets simulated, so each must move the content hash — a
// cached one_bus report must never satisfy a two_bus job, and an aged run
// must never replay a fresh one.
TEST(JobHash, MultiBusAndDriftFieldsChangeHash) {
  const auto base = [](const std::string& patch) {
    Json spec = Json::parse(
        R"({"name": "soc", "experiment": "multi_bus",
            "arbitration": "max_error",
            "buses": [
              {"width": 32, "weight": 1.0,
               "trace": {"source": "synthetic", "style": "uniform", "seed": 3}},
              {"width": 32, "weight": 1.0,
               "trace": {"source": "synthetic", "style": "sparse", "seed": 4}}
            ],
            "cycles": 1000, "threads": 1})");
    if (!patch.empty()) {
      const Json extra = Json::parse(patch);
      for (const auto& [key, value] : extra.members()) spec.set(key, value);
    }
    core::ScenarioJob job;
    job.name = "soc";
    job.spec = core::ScenarioSpec::from_json(spec);
    return core::job_content_hash(job);
  };
  const std::uint64_t reference = base("");
  const std::vector<std::string> patches = {
      R"({"arbitration": "sum_error"})",
      R"({"arbitration": "weighted"})",
      // Lane list: width, weight, trace and count all matter.
      R"({"buses": [{"width": 64, "weight": 1.0,
                     "trace": {"source": "synthetic", "style": "uniform", "seed": 3}},
                    {"width": 32, "weight": 1.0,
                     "trace": {"source": "synthetic", "style": "sparse", "seed": 4}}]})",
      R"({"buses": [{"width": 32, "weight": 2.5,
                     "trace": {"source": "synthetic", "style": "uniform", "seed": 3}},
                    {"width": 32, "weight": 1.0,
                     "trace": {"source": "synthetic", "style": "sparse", "seed": 4}}]})",
      R"({"buses": [{"width": 32, "weight": 1.0,
                     "trace": {"source": "synthetic", "style": "uniform", "seed": 9}},
                    {"width": 32, "weight": 1.0,
                     "trace": {"source": "synthetic", "style": "sparse", "seed": 4}}]})",
      R"({"buses": [{"width": 32, "weight": 1.0,
                     "trace": {"source": "synthetic", "style": "uniform", "seed": 3}}]})",
      // Drift: enabling it, each ramp endpoint, and the piecewise form.
      R"({"drift": {"temp_start": 25.0, "temp_end": 100.0}})",
      R"({"drift": {"temp_start": 25.0, "temp_end": 90.0}})",
      R"({"drift": {"temp_start": 25.0, "temp_end": 100.0,
                    "vth_shift_start": 0.0, "vth_shift_end": 0.05}})",
      R"({"drift": {"points": [{"cycle": 0, "temp_c": 25.0},
                               {"cycle": 500, "temp_c": 100.0}]}})",
      R"({"drift": {"points": [{"cycle": 0, "temp_c": 25.0},
                               {"cycle": 600, "temp_c": 100.0}]}})",
  };
  std::set<std::uint64_t> seen{reference};
  for (const auto& patch : patches) {
    const std::uint64_t hash = base(patch);
    EXPECT_NE(hash, reference) << patch;
    EXPECT_TRUE(seen.insert(hash).second) << "collision for " << patch;
  }
}

// File traces hash their BYTES: editing the trace file invalidates the
// cached result even though the spec is unchanged.
TEST(JobHash, TraceFileBytesAreHashed) {
  const std::string dir = scratch("job_hash_trace");
  const std::string trace_path = dir + "/trace.bin";
  const auto job_for = [&] {
    core::ScenarioJob job;
    job.name = "file_job";
    job.spec = core::ScenarioSpec::from_json(Json::parse(
        R"({"name": "file_job", "experiment": "static_sweep",
            "trace": {"source": "file", "path": ")" +
        trace_path + R"("}, "cycles": 100})"));
    return job;
  };
  svc::write_file_atomic(trace_path, "trace-bytes-v1");
  const std::uint64_t first = core::job_content_hash(job_for());
  EXPECT_EQ(first, core::job_content_hash(job_for()));
  svc::write_file_atomic(trace_path, "trace-bytes-v2");
  EXPECT_NE(core::job_content_hash(job_for()), first);
  // Unreadable trace: identity still computes (the job fails at run time).
  fs::remove(trace_path);
  EXPECT_NE(core::job_content_hash(job_for()), first);
}

// ------------------------------------------------------------- job queue

svc::QueueJob queue_job(const std::string& name) {
  svc::QueueJob job;
  job.name = name;
  job.hash_hex = "00000000000000" + name.substr(name.size() - 2);
  job.spec_path = name + ".spec.json";
  job.report_path = "BENCH_" + name + ".json";
  job.log_path = name + ".log";
  return job;
}

TEST(JobQueue, ClaimCompleteDrain) {
  svc::JobQueue queue(scratch("queue_basic"));
  for (const char* name : {"j01", "j02", "j03"}) queue.enqueue(queue_job(name));
  EXPECT_EQ(queue.jobs().size(), 3u);
  EXPECT_FALSE(queue.all_done());

  // Claims hand out distinct jobs in name order; a claimed job is invisible
  // to other claimants until released or completed.
  const auto first = queue.claim("w1");
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->name, "j01");
  const auto second = queue.claim("w1");
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->name, "j02");

  Json ok = Json::object();
  ok.set("status", "ok");
  queue.complete("j01", ok);
  queue.complete("j02", ok);
  EXPECT_TRUE(queue.is_done("j01"));
  EXPECT_EQ(queue.done_count(), 2u);

  const auto third = queue.claim("w1");
  ASSERT_TRUE(third.has_value());
  EXPECT_EQ(third->name, "j03");
  queue.complete("j03", ok);
  EXPECT_TRUE(queue.all_done());
  EXPECT_FALSE(queue.claim("w1").has_value());

  // reset() reopens a done job.
  queue.reset("j02");
  EXPECT_FALSE(queue.all_done());
  const auto again = queue.claim("w2");
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(again->name, "j02");
}

// The kill -9 contract: a claim whose recorded pid is dead is stale, and
// the next claimant steals the job; done jobs stay done.
TEST(JobQueue, DurableAcrossAKilledWorker) {
  const std::string dir = scratch("queue_killed");
  svc::JobQueue queue(dir);
  queue.enqueue(queue_job("j01"));
  queue.enqueue(queue_job("j02"));

  Json ok = Json::object();
  ok.set("status", "ok");
  queue.complete("j01", ok);

  // A worker that died mid-job: its claim records a pid that no longer
  // exists (fork a child that exits immediately and reap it).
  const pid_t dead = fork();
  ASSERT_GE(dead, 0);
  if (dead == 0) _exit(0);
  ASSERT_EQ(waitpid(dead, nullptr, 0), dead);
  Json stale = Json::object();
  stale.set("worker", "killed");
  stale.set("pid", static_cast<long long>(dead));
  svc::write_file_atomic(dir + "/claims/j02.claim", stale.dump(2) + "\n");

  // A fresh queue handle (a new process after the kill) reclaims j02 and
  // does NOT re-run j01.
  svc::JobQueue resumed(dir);
  EXPECT_TRUE(resumed.is_done("j01"));
  const auto claimed = resumed.claim("w2");
  ASSERT_TRUE(claimed.has_value());
  EXPECT_EQ(claimed->name, "j02");

  // A LIVE claim (this process) is not stealable.
  svc::JobQueue contender(dir);
  EXPECT_FALSE(contender.claim("w3").has_value());

  // A torn claim file (crash mid-write, before any pid landed) is stale.
  resumed.release("j02");
  svc::write_file_atomic(dir + "/claims/j02.claim", "{\"worker\": \"torn");
  const auto reclaimed = contender.claim("w3");
  ASSERT_TRUE(reclaimed.has_value());
  EXPECT_EQ(reclaimed->name, "j02");
}

// Two workers hammering one queue never claim the same job twice — the
// exclusive link(2) gate is the whole mutual-exclusion protocol. Runs under
// the TSan CI leg.
TEST(JobQueue, ConcurrentWorkersNeverDoubleClaim) {
  const std::string dir = scratch("queue_concurrent");
  {
    svc::JobQueue setup(dir);
    for (int i = 0; i < 8; ++i)
      setup.enqueue(queue_job("j0" + std::to_string(i)));
  }
  std::vector<std::string> claimed[2];
  Json ok = Json::object();
  ok.set("status", "ok");
  const auto worker = [&](int lane) {
    svc::JobQueue queue(dir);  // own handle, like a separate process
    while (true) {
      const auto job = queue.claim("w" + std::to_string(lane));
      if (!job) break;
      claimed[lane].push_back(job->name);
      queue.complete(job->name, ok);
    }
  };
  std::thread other([&] { worker(1); });
  worker(0);
  other.join();

  std::set<std::string> all;
  for (const auto& lane : claimed)
    for (const auto& name : lane)
      EXPECT_TRUE(all.insert(name).second) << name << " claimed twice";
  EXPECT_EQ(all.size(), 8u);
  svc::JobQueue queue(dir);
  EXPECT_TRUE(queue.all_done());
}

// ----------------------------------------------------------- result cache

TEST(ResultCache, VerbatimRoundTripAndTornEntryTolerance) {
  svc::ResultCache cache(scratch("cache"));
  const std::string hash = "00c0ffee00c0ffee";
  EXPECT_FALSE(cache.lookup(hash).has_value());

  const std::string report = "{\n  \"scenario\": \"x\",\n  \"cycles\": 7\n}\n";
  cache.insert(hash, report);
  const auto bytes = cache.lookup(hash);
  ASSERT_TRUE(bytes.has_value());
  EXPECT_EQ(*bytes, report);  // verbatim, not re-serialized

  // A torn entry — crash before the atomic publish — is a miss, and the
  // debris is cleared for the next insert.
  svc::write_file_atomic(cache.entry_path(hash), report.substr(0, 10));
  EXPECT_FALSE(cache.lookup(hash).has_value());
  EXPECT_FALSE(fs::exists(cache.entry_path(hash)));
  cache.insert(hash, report);
  EXPECT_TRUE(cache.lookup(hash).has_value());

  // Unparseable bytes must never enter the cache.
  EXPECT_THROW(cache.insert(hash, "not json"), std::exception);

  const auto stats = cache.stats();
  EXPECT_EQ(stats.hits, 2u);
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.inserts, 2u);
}

// ------------------------------------------------------------- end to end

class CampaigndEndToEnd : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!std::ifstream("./campaign"))
      GTEST_SKIP() << "bench binaries not in the working directory; run from build/";
    fs::create_directories("campaignd_test_out");
    std::ofstream spec("campaignd_test_out/tiny.json");
    spec << R"({"name": "tiny", "defaults": {"cycles": 2000, "threads": 1},
      "scenarios": [
        {"name": "uni", "experiment": "closed_loop",
         "trace": {"source": "synthetic", "style": "uniform", "seed": 7},
         "controllers": ["threshold", "fixed_vs"]},
        {"name": "sweep", "experiment": "static_sweep",
         "trace": {"source": "synthetic", "style": "uniform", "seed": 7}}
      ]})";
  }

  static Json status_of(const std::string& out_dir) {
    return Json::parse(slurp(out_dir + "/status.json"));
  }
};

// The acceptance contract: a warm rerun against a shared cache performs
// ZERO simulations (no run-one children, zero simulated cycles) and emits
// byte-identical per-job reports.
TEST_F(CampaigndEndToEnd, WarmRerunIsAllCacheHitsAndByteIdentical) {
  const std::string cold = "campaignd_test_out/cold";
  const std::string warm = "campaignd_test_out/warm";
  fs::remove_all(cold);
  fs::remove_all(warm);
  ASSERT_EQ(run_cmd("./campaign run campaignd_test_out/tiny.json --out=" + cold +
                    " --workers=2 > " + cold + ".log 2>&1"),
            0);
  const Json cold_status = status_of(cold);
  EXPECT_EQ(cold_status.at("executed").as_int(), 3);
  EXPECT_EQ(cold_status.at("cache_hits").as_int(), 0);

  // Fresh out dir, shared cache: everything replays.
  ASSERT_EQ(run_cmd("./campaign run campaignd_test_out/tiny.json --out=" + warm +
                    " --cache=" + cold + "/cache > " + warm + ".log 2>&1"),
            0);
  const Json warm_status = status_of(warm);
  EXPECT_EQ(warm_status.at("executed").as_int(), 0);
  EXPECT_EQ(warm_status.at("executed_cycles").as_double(), 0.0);
  EXPECT_EQ(warm_status.at("cache_hits").as_int(), 3);
  EXPECT_EQ(warm_status.at("jobs_total").as_int(), 3);
  EXPECT_DOUBLE_EQ(warm_status.at("cache_hit_rate").as_double(), 1.0);

  for (const char* name : {"uni_threshold", "uni_fixed_vs", "sweep"}) {
    const std::string file = std::string("BENCH_") + name + ".json";
    EXPECT_EQ(slurp(cold + "/" + file), slurp(warm + "/" + file)) << file;
  }

  // The status subcommand reads the same snapshot.
  ASSERT_EQ(run_cmd("./campaign status --out=" + warm + " > " + warm +
                    "_status.log 2>&1"),
            0);
  const std::string printed = slurp(warm + "_status.log");
  EXPECT_NE(printed.find("hit rate 100%"), std::string::npos) << printed;
}

// A scheduler stopped mid-campaign (here: a one-job budget, the same queue
// state a kill -9 leaves behind) resumes without re-running completed jobs.
TEST_F(CampaigndEndToEnd, InterruptedCampaignResumesWithoutRerunning) {
  const std::string out = "campaignd_test_out/resume";
  fs::remove_all(out);
  ASSERT_EQ(run_cmd("./campaign run campaignd_test_out/tiny.json --out=" + out +
                    " --max_jobs=1 > " + out + ".log 2>&1"),
            0);
  EXPECT_EQ(status_of(out).at("executed").as_int(), 1);
  EXPECT_NE(slurp(out + ".log").find("queue not drained"), std::string::npos);

  ASSERT_EQ(run_cmd("./campaign run campaignd_test_out/tiny.json --out=" + out +
                    " > " + out + "2.log 2>&1"),
            0);
  const std::string log = slurp(out + "2.log");
  // The completed job resumed as done; only the remaining two executed.
  EXPECT_NE(log.find("[cached]"), std::string::npos) << log;
  EXPECT_EQ(status_of(out).at("executed").as_int(), 2);
  EXPECT_EQ(status_of(out).at("done").as_int(), 3);
  svc::JobQueue queue(out + "/queue");
  EXPECT_TRUE(queue.all_done());
}

// The checked-in multi-bus and drift campaign files run cold end to end,
// and a warm rerun against the shared cache replays every job without a
// single simulated cycle, byte-identically — the same reuse contract the
// campaign-cache CI leg asserts for quick.json.
TEST_F(CampaigndEndToEnd, SystemAndDriftCampaignsColdThenWarm) {
  for (const std::string campaign : {"system", "drift"}) {
    const std::string file =
        std::string(RAZORBUS_SOURCE_DIR) + "/campaigns/" + campaign + ".json";
    const std::string cold = "campaignd_test_out/" + campaign + "_cold";
    const std::string warm = "campaignd_test_out/" + campaign + "_warm";
    fs::remove_all(cold);
    fs::remove_all(warm);
    ASSERT_EQ(run_cmd("./campaign run " + file + " --out=" + cold +
                      " --workers=2 > " + cold + ".log 2>&1"),
              0)
        << campaign;
    const Json cold_status = status_of(cold);
    const long long jobs = cold_status.at("jobs_total").as_int();
    EXPECT_GE(jobs, 3) << campaign;
    EXPECT_EQ(cold_status.at("executed").as_int(), jobs) << campaign;
    EXPECT_EQ(cold_status.at("cache_hits").as_int(), 0) << campaign;

    ASSERT_EQ(run_cmd("./campaign run " + file + " --out=" + warm +
                      " --cache=" + cold + "/cache > " + warm + ".log 2>&1"),
              0)
        << campaign;
    const Json warm_status = status_of(warm);
    EXPECT_EQ(warm_status.at("executed").as_int(), 0) << campaign;
    EXPECT_EQ(warm_status.at("executed_cycles").as_double(), 0.0) << campaign;
    EXPECT_EQ(warm_status.at("cache_hits").as_int(), jobs) << campaign;

    // Every cold per-job report replays byte-identically. (The merged
    // BENCH_campaign.json summary carries wall-clock fields, so it is the
    // one BENCH_*.json file exempt from the byte contract.)
    std::size_t compared = 0;
    for (const auto& entry : fs::directory_iterator(cold)) {
      const std::string name = entry.path().filename().string();
      if (name.rfind("BENCH_", 0) != 0 || name == "BENCH_campaign.json") continue;
      EXPECT_EQ(slurp(cold + "/" + name), slurp(warm + "/" + name)) << name;
      ++compared;
    }
    EXPECT_EQ(compared, static_cast<std::size_t>(jobs)) << campaign;
  }
}

// A `campaign worker` attached to a running queue steals work from the
// owning `run`: every job runs exactly once between the two processes, so
// the `executed` counts of their status files sum to the job count.
TEST_F(CampaigndEndToEnd, AttachedWorkerRunsEachJobExactlyOnce) {
  const std::string out = "campaignd_test_out/attach";
  fs::remove_all(out);
  constexpr int kJobs = 8;
  {
    std::ofstream spec("campaignd_test_out/attach.json");
    spec << R"({"name": "attach", "defaults": {"cycles": 20000, "threads": 1},
      "scenarios": [)";
    for (int i = 0; i < kJobs; ++i)
      spec << (i ? "," : "") << R"({"name": "s)" << i
           << R"(", "experiment": "closed_loop", "trace": {"source": "synthetic",
               "style": "uniform", "seed": )"
           << i + 1 << "}}";
    spec << "]}";
  }
  const pid_t owner = spawn_cmd("./campaign run campaignd_test_out/attach.json --out=" +
                                out + " > " + out + ".log 2>&1");
  ASSERT_GT(owner, 0);
  // The owner writes status.json once it has enqueued every job; attach
  // from then on.
  for (int i = 0; i < 6000 && !fs::exists(out + "/status.json"); ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  const int worker_rc = run_cmd("./campaign worker --out=" + out + " > " + out +
                                "_worker.log 2>&1");
  ASSERT_EQ(wait_cmd(owner), 0) << slurp(out + ".log");
  ASSERT_EQ(worker_rc, 0) << slurp(out + "_worker.log");

  // status.json is the owner's; the worker writes status.worker<pid>.json.
  long long executed = 0;
  long long worker_executed = -1;
  int status_files = 0;
  for (const auto& entry : fs::directory_iterator(out)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("status", 0) != 0 || entry.path().extension() != ".json") continue;
    const Json status = Json::parse(slurp(entry.path().string()));
    EXPECT_EQ(status.at("cache_hits").as_int(), 0) << name;
    executed += status.at("executed").as_int();
    if (name != "status.json") worker_executed = status.at("executed").as_int();
    ++status_files;
  }
  EXPECT_EQ(status_files, 2);
  EXPECT_EQ(executed, kJobs);
  // Each job takes about 0.1 s and the worker attaches right after the
  // queue fills, so it must have stolen some of them.
  EXPECT_GE(worker_executed, 1);
  svc::JobQueue queue(out + "/queue");
  EXPECT_TRUE(queue.all_done());
  EXPECT_EQ(queue.done_count(), static_cast<std::size_t>(kJobs));
  for (int i = 0; i < kJobs; ++i)
    EXPECT_TRUE(fs::exists(out + "/BENCH_s" + std::to_string(i) + ".json")) << i;
}

// `manifest --shards=2` partitions the jobs by content hash, and both
// `run --shard=K/2` against one cache run exactly the campaign's jobs
// between them, each in the shard its manifest names. An unsharded run
// against that cache then executes nothing and writes byte-identical
// per-job reports.
TEST_F(CampaigndEndToEnd, ShardedRunsCoverTheCampaignExactlyOnce) {
  const std::string root = "campaignd_test_out/sharded";
  const std::string cache = root + "/cache";
  fs::remove_all(root);
  fs::create_directories(root);
  ASSERT_EQ(run_cmd("./campaign manifest campaignd_test_out/tiny.json --shards=2 "
                    "--out=" + root + "/manifest > " + root + "/manifest.log 2>&1"),
            0);
  std::set<std::string> ran;
  long long executed = 0;
  for (int k = 0; k < 2; ++k) {
    const std::string out = root + "/shard" + std::to_string(k);
    ASSERT_EQ(run_cmd("./campaign run campaignd_test_out/tiny.json --shard=" +
                      std::to_string(k) + "/2 --out=" + out + " --cache=" + cache +
                      " > " + out + ".log 2>&1"),
              0)
        << slurp(out + ".log");
    const Json status = status_of(out);
    executed += status.at("executed").as_int();
    EXPECT_EQ(status.at("cache_hits").as_int(), 0);

    std::set<std::string> listed;
    const Json manifest = Json::parse(
        slurp(root + "/manifest/shard_" + std::to_string(k) + "_of_2.json"));
    EXPECT_EQ(manifest.at("campaign").as_string(), "tiny");
    EXPECT_EQ(manifest.at("shards").as_int(), 2);
    for (const auto& entry : manifest.at("jobs").items())
      listed.insert(entry.at("name").as_string());
    std::set<std::string> shard_jobs;
    for (const auto& [name, state] : status.at("jobs").members()) {
      EXPECT_EQ(state.as_string(), "done") << name;
      shard_jobs.insert(name);
      EXPECT_TRUE(ran.insert(name).second) << name << " ran in both shards";
    }
    EXPECT_EQ(shard_jobs, listed) << "shard " << k;
  }
  EXPECT_EQ(ran, (std::set<std::string>{"uni_threshold", "uni_fixed_vs", "sweep"}));
  EXPECT_EQ(executed, 3);

  const std::string whole = root + "/whole";
  ASSERT_EQ(run_cmd("./campaign run campaignd_test_out/tiny.json --out=" + whole +
                    " --cache=" + cache + " > " + whole + ".log 2>&1"),
            0);
  EXPECT_EQ(status_of(whole).at("executed").as_int(), 0);
  for (int k = 0; k < 2; ++k) {
    const std::string out = root + "/shard" + std::to_string(k);
    const Json status = status_of(out);
    for (const auto& [name, state] : status.at("jobs").members()) {
      const std::string file = "/BENCH_" + name + ".json";
      EXPECT_EQ(slurp(out + file), slurp(whole + file)) << name;
    }
  }
}

// Malformed service flags fail before any work, with an error that names
// the flag; nothing is clamped or silently read as a default.
TEST_F(CampaigndEndToEnd, MalformedServiceFlagsFailBeforeAnyWork) {
  const std::string out = "campaignd_test_out/bad_flags";
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"--shard=0/1x", "flag --shard expects"},
      {"--shard=0/", "flag --shard expects"},
      {"--shard=/2", "flag --shard expects"},
      {"--shard=2/2", "flag --shard expects"},
      {"--shard=-1/2", "flag --shard expects"},
      {"--shard=1", "flag --shard expects"},
      {"--workers=-3", "flag --workers expects"},
      {"--workers=0", "flag --workers expects"},
      {"--workers=5000", "flag --workers expects"},
      {"--max_jobs=-1", "flag --max_jobs expects"},
      {"--force=ture", "flag --force expects true or false"},
  };
  for (const auto& [flag, message] : cases) {
    fs::remove_all(out);
    const int rc = run_cmd("./campaign run campaignd_test_out/tiny.json --out=" + out +
                           " " + flag + " > " + out + ".log 2>&1");
    EXPECT_EQ(WEXITSTATUS(rc), 2) << flag;
    const std::string log = slurp(out + ".log");
    EXPECT_NE(log.find(message), std::string::npos) << flag << ": " << log;
    EXPECT_FALSE(fs::exists(out)) << flag << " started work";
  }
  EXPECT_NE(run_cmd("./campaign worker --out=" + out + " --workers=0 > " + out +
                    ".log 2>&1"),
            0);
  EXPECT_NE(slurp(out + ".log").find("flag --workers expects"), std::string::npos);
}

}  // namespace
}  // namespace razorbus

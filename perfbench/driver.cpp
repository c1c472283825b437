// perfbench_driver: runs one workload of the razorbus benchmark and writes
// its raw measurements as JSON (run.py turns them into metrics).
//
//   perfbench_driver --workload NAME --seed N --seconds S --trace 0|1
//                    --scale full|smoke --work DIR --runner BIN --out FILE
//   perfbench_driver --setup-only --workload NAME --seed N --scale ... --work DIR
//                    --runner BIN
//   perfbench_driver --warm
//
// Measure mode runs the workload's setup once, then closed batches until
// --seconds is spent. With --trace 1 the first half of the budget runs
// untraced and the second half traced (their difference is the tracing
// overhead), followed by the layer probes and replays. --setup-only prints
// one JSON line as soon as the workload could start simulating; run.py
// times it from process start. --warm builds or loads every table the
// workloads use, at every hardware thread, and reports what that cost.
#include <sched.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "interconnect/bus_design.hpp"
#include "interconnect/rc_builder.hpp"
#include "lut/cache.hpp"
#include "lut/table.hpp"
#include "tech/device.hpp"
#include "util/parallel.hpp"
#include "util/simd.hpp"
#include "workloads.hpp"

using namespace razorbus;
using namespace perfbench;

namespace {

struct Args {
  std::map<std::string, std::string> values;
  bool has(const std::string& key) const { return values.count(key) != 0; }
  const std::string& get(const std::string& key) const {
    const auto it = values.find(key);
    if (it == values.end()) throw std::invalid_argument("missing --" + key);
    return it->second;
  }
};

Args parse(int argc, char** argv) {
  static const std::map<std::string, bool> known = {
      {"workload", true}, {"seed", true},  {"seconds", true}, {"trace", true},
      {"scale", true},    {"work", true},  {"runner", true},  {"out", true},
      {"setup-only", false}, {"warm", false}};
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto it = arg.rfind("--", 0) == 0 ? known.find(arg.substr(2)) : known.end();
    if (it == known.end()) throw std::invalid_argument("unknown argument '" + arg + "'");
    if (!it->second) {
      args.values[it->first] = "1";
    } else {
      if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
      args.values[it->first] = argv[++i];
    }
  }
  return args;
}

Options options_from(const Args& args) {
  Options options;
  options.workload = args.get("workload");
  options.seed = std::stoull(args.get("seed"));
  options.scale = scale_named(args.has("scale") ? args.get("scale") : "full");
  if (args.has("work")) options.work_dir = args.get("work");
  if (args.has("runner")) options.runner = args.get("runner");
  return options;
}

// Moves the constructing thread to the next allowed CPU every 20 ms until
// destroyed, then restores its affinity. On a shared VM each vCPU drifts
// between fast and slow states for seconds at a time; left alone, a
// single-threaded run stays on one vCPU and reports that vCPU's state. A job
// that visits every vCPU reports their average, which repeats from run to
// run far better, at the cost of one migration per 20 ms.
class CpuRotation {
 public:
  static constexpr int kPeriodMs = 20;

  CpuRotation() : tid_(static_cast<pid_t>(::syscall(SYS_gettid))) {
    CPU_ZERO(&original_);
    if (::sched_getaffinity(0, sizeof(original_), &original_) != 0) return;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu)
      if (CPU_ISSET(cpu, &original_)) cpus_.push_back(cpu);
    if (cpus_.size() > 1) thread_ = std::thread([this] { loop(); });
  }
  ~CpuRotation() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
    if (!cpus_.empty()) ::sched_setaffinity(tid_, sizeof(original_), &original_);
  }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

 private:
  void loop() {
    for (std::size_t k = 0; !stop_.load(); ++k) {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpus_[k % cpus_.size()], &one);
      ::sched_setaffinity(tid_, sizeof(one), &one);
      std::this_thread::sleep_for(std::chrono::milliseconds(kPeriodMs));
    }
  }

  pid_t tid_;
  cpu_set_t original_;
  std::vector<int> cpus_;
  std::atomic<bool> stop_{false};
  std::thread thread_;  // last: starts after the members above
};

Json build_meta() {
  Json meta = Json::object();
  meta.set("compiler", PERFBENCH_COMPILER);
  meta.set("build_type", PERFBENCH_BUILD_TYPE);
  meta.set("asserts", PERFBENCH_ASSERTS != 0);
  meta.set("simd_compiled", PERFBENCH_SIMD != 0);
  meta.set("simd_backend", simd::backend_name());
  meta.set("executor_threads", static_cast<long long>(util::global_threads()));
  meta.set("cache_dir", lut::cache_directory());
  return meta;
}

// Builds (cold) or loads (warm) every table the workloads and the campaign
// jobs use: the paper bus and its 16- and 64-wire variants.
int warm() {
  util::set_global_threads(0);
  Tracer timer(false);
  interconnect::BusDesign paper = interconnect::BusDesign::paper_bus();
  const tech::DriverModel driver(paper.node);
  interconnect::size_repeaters(paper, driver, tech::worst_case_corner());
  std::uint64_t sims = 0;
  for (const int width : {32, 16, 64}) {
    interconnect::BusDesign design =
        width == 32 ? paper : interconnect::BusDesign::wide_bus(width);
    design.repeater_size = paper.repeater_size;
    lut::BuildStats stats;
    lut::build_or_load(design, tech::DriverModel(design.node), lut::LutConfig{}, {}, &stats);
    sims += stats.transient_sims;
  }
  Json out = Json::object();
  out.set("warmup_s", timer.now());
  out.set("transient_sims", static_cast<unsigned long long>(sims));
  std::printf("%s\n", out.dump(0).c_str());
  return 0;
}

int setup_only(const Options& options) {
  util::set_global_threads(1);
  Tracer tracer(true);
  const auto workload = make_workload(options);
  workload->setup(tracer);
  Json out = Json::object();
  out.set("ready", true);
  out.set("system_construct_s", tracer.total("core.system_construct"));
  std::printf("%s\n", out.dump(0).c_str());
  std::fflush(stdout);
  return 0;
}

Json batch_json(const BatchResult& batch, const char* phase) {
  Json out = Json::object();
  out.set("phase", phase);
  out.set("attempted", static_cast<unsigned long long>(batch.attempted));
  out.set("wall_s", batch.wall_s);
  out.set("sim_cycles", batch.sim_cycles);
  out.set("failed", static_cast<unsigned long long>(batch.failed));
  Json jobs = Json::array();
  for (const JobRecord& job : batch.jobs) {
    Json j = Json::object();
    j.set("latency_s", job.latency_s);
    if (job.child_wall_s >= 0.0) j.set("child_wall_s", job.child_wall_s);
    jobs.push(std::move(j));
  }
  out.set("jobs", std::move(jobs));
  Json stats = Json::array();
  for (const Json& s : batch.stats) stats.push(s);
  out.set("stats", std::move(stats));
  Json errors = Json::array();
  for (const std::string& e : batch.errors) errors.push(e);
  out.set("errors", std::move(errors));
  return out;
}

int measure(const Options& options, double seconds, bool traced, const std::string& out_path) {
  util::set_global_threads(1);
  Tracer tracer(traced);
  const auto workload = make_workload(options);
  {
    auto span = tracer.always("setup");
    workload->setup(tracer);
  }

  // In-process jobs rotate over the CPUs; campaign jobs are child
  // processes the scheduler already spreads.
  std::optional<CpuRotation> rotation;
  if (workload->in_process()) rotation.emplace();

  Json batches = Json::array();
  int index = 0;
  // Closed batches until the phase's budget is spent: a new batch starts
  // only if one more of the last batch's length still fits.
  const auto phase = [&](const char* name, double budget, int min_batches) {
    tracer.set_enabled(std::string(name) == "traced");
    auto span = tracer.always(name);
    const double start = tracer.now();
    double last = 0.0;
    for (int b = 0; b < min_batches || tracer.now() - start + last <= budget; ++b) {
      const BatchResult batch = workload->run_batch(tracer, index++);
      last = batch.wall_s;
      batches.push(batch_json(batch, name));
    }
  };
  if (traced) {
    phase("untraced", 0.5 * seconds, 1);
    phase("traced", 0.5 * seconds, 1);
  } else {
    phase("untraced", seconds, options.scale.min_batches);
  }

  Json out = Json::object();
  out.set("workload", options.workload);
  out.set("seed", static_cast<unsigned long long>(options.seed));
  out.set("traced", traced);
  Json meta = build_meta();
  meta.set("cpu_rotation_ms", rotation ? CpuRotation::kPeriodMs : 0);
  out.set("meta", std::move(meta));
  out.set("batches", std::move(batches));
  out.set("peak_rss_mb", workload->peak_rss_mb());
  if (traced) {
    Json counters = Json::object();
    bool exact = false;
    {
      auto span = tracer.always("layers");
      setup_layer_probes(tracer, options.scale.replays);
      exact = workload->layers(tracer, counters);
    }
    out.set("counters", std::move(counters));
    out.set("replay_exact", exact);
  }
  out.set("spans", tracer.to_json());

  std::ofstream file(out_path, std::ios::trunc);
  file << out.dump(1) << "\n";
  if (!file) throw std::runtime_error("cannot write " + out_path);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse(argc, argv);
    if (args.has("warm")) return warm();
    const Options options = options_from(args);
    if (args.has("setup-only")) return setup_only(options);
    return measure(options, std::stod(args.get("seconds")), args.get("trace") == "1",
                   args.get("out"));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
    return 2;
  }
}

// The benchmark's measurement side (README.md): an in-memory span tracer
// and the four workloads, each a closed batch of jobs submitted by one
// client that waits for every result.
//
// Host time is read only here and in driver.cpp, around the benchmark's
// own calls into the library's public functions; the simulator stays
// clock-free.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "util/json.hpp"

namespace perfbench {

using razorbus::Json;
using Clock = std::chrono::steady_clock;

// Spans (name, start, end, parent) kept in memory and written out when the
// run ends. A disabled tracer records only the spans opened with
// `always = true` (batches and jobs, which the end-to-end metrics need), so
// an untraced run pays one branch per layer boundary. Single-threaded.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }
  // A traced run measures an untraced phase first, then enables tracing.
  void set_enabled(bool enabled) { enabled_ = enabled; }
  // Seconds since the tracer was created.
  double now() const {
    return std::chrono::duration<double>(Clock::now() - origin_).count();
  }

  class Span {
   public:
    Span(Tracer& tracer, const char* name, bool always);
    ~Span() { close(); }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;
    // Ends the span early; returns its duration in seconds (0 if inert).
    double close();

   private:
    Tracer* tracer_ = nullptr;  // null when the span records nothing
    std::size_t index_ = 0;
  };

  // Layer span: recorded only when tracing is enabled.
  Span span(const char* name) { return Span(*this, name, false); }
  // Batch/job span: recorded in every run.
  Span always(const char* name) { return Span(*this, name, true); }

  // One record per span: {"id", "parent" (null at the root), "name",
  // "start", "end"}, times in seconds since the tracer was created.
  Json to_json() const;
  // Summed duration of every closed span called `name`.
  double total(const std::string& name) const;

 private:
  struct Record {
    std::string name;
    long long parent = -1;
    double start = 0.0;
    double end = -1.0;
  };

  bool enabled_;
  Clock::time_point origin_;
  std::vector<Record> records_;
  std::vector<std::size_t> open_;  // innermost open span last
};

// Work sizes of one run. `full` is what the benchmark measures; `smoke`
// shrinks every job so a whole workload runs in about a second.
struct Scale {
  std::uint64_t stream_cycles;    // closed_loop_stream: cycles per job
  std::uint64_t system_cycles;    // system_3bus_drift: lockstep cycles per job
  std::uint64_t sweep_cycles;     // sweep_suite_simd: cycles per benchmark
  std::uint64_t campaign_cycles;  // campaign_short_jobs: cycles per job
  int min_batches;                // untraced runs measure at least this many
  int replays;                    // traced runs: repeats of each layer probe
};
Scale scale_named(const std::string& name);  // "full" or "smoke"

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  Scale scale{};
  std::string work_dir;  // campaign out/cache directories live under here
  std::string runner;    // the `campaign` binary (its `run-one` runs a job)
};

// One job as the client saw it.
struct JobRecord {
  double latency_s = 0.0;
  double child_wall_s = -1.0;  // campaign only: the job's own wall_seconds
};

struct BatchResult {
  std::uint64_t attempted = 0;  // jobs submitted
  double wall_s = 0.0;
  double sim_cycles = 0.0;  // lane-cycles / supply-point cycles / job cycles
  std::vector<JobRecord> jobs;
  std::vector<Json> stats;  // simulated statistics, one object per job
  std::uint64_t failed = 0;  // failed jobs, and jobs executed more than once
  std::vector<std::string> errors;
};

class Workload {
 public:
  virtual ~Workload() = default;
  // Everything a job needs before it can simulate: bus systems (repeater
  // sizing and a warm LUT load) and trace sources. Timed as setup_s.
  virtual void setup(Tracer& tracer) = 0;
  // One closed batch: submit the jobs, wait for every result.
  virtual BatchResult run_batch(Tracer& tracer, int batch) = 0;
  // Traced runs only: replay probes that split a job's time by layer. Each
  // replay runs one job and then its parts one by one, back to back, so the
  // job and its parts are timed under the same host conditions.
  // Writes deterministic counters into `counters`; returns false when a
  // replay did not reproduce the job's simulated totals exactly.
  virtual bool layers(Tracer& tracer, Json& counters) = 0;
  // Peak resident memory of the process doing the simulation, in MB.
  virtual double peak_rss_mb() const;
  // False when the jobs run in child processes.
  virtual bool in_process() const { return true; }
};

// Throws std::invalid_argument on an unknown workload name.
std::unique_ptr<Workload> make_workload(const Options& options);

// Probes shared by every workload's traced run: repeater sizing and a LUT
// disk load of the paper bus, each timed on its own.
void setup_layer_probes(Tracer& tracer, int replays);

}  // namespace perfbench

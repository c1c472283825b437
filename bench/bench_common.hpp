// Shared plumbing for the reproduction harnesses.
//
// Every registered scenario regenerates one table or figure of the paper
// (see DESIGN.md §4 for the index). They all share the same shape:
// characterise the paper bus (cached on disk after the first run), stream
// the benchmark suite, run one experiment, print tables. The scenario runner factors
// that shape out of the 12 scenarios: flag parsing (--cycles, --json,
// --threads), the banner, wall-clock timing, and a machine-readable JSON
// report so the result trajectory of every scenario can be tracked across
// commits. `campaign scenario <name>` and campaign jobs both enter through
// run_scenario(); simulator speed is measured by the benchmark
// (perfbench/), not here. --threads=N sizes the shared execution pool
// (util::set_global_threads); every experiment result is bit-identical at
// any N (DESIGN.md §9) — only wall_seconds and threads vary.
#pragma once

#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/experiments.hpp"
#include "core/system.hpp"
#include "cpu/kernels.hpp"
#include "trace/source.hpp"
#include "util/cli.hpp"
#include "util/json.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

namespace razorbus::bench {

core::SystemOptions options_with_progress(const char* what);

// The characterised paper bus (built once, then loaded from the cache).
const core::DvsBusSystem& paper_system();

// One mini-CPU benchmark's load stream, `cycles` bus cycles at `width`
// wires: 32-bit loads, packed into flits of consecutive words on wider
// buses (the README "memory bus" recipe). `width` must be a multiple of 32.
std::unique_ptr<trace::TraceSource> benchmark_source(const cpu::Benchmark& bench,
                                                     std::size_t cycles, int width = 32);

// The benchmark suite as 10 streams of `cycles` bus cycles each, in
// Table 1 order: the one expansion of the suite, shared by the scenarios
// and the campaign jobs. Nothing executes until a driver pulls a block, so
// the suite is never resident (sweeps take trace::concatenate_sources of
// it; closed loops take the sources one by one).
std::vector<std::unique_ptr<trace::TraceSource>> suite_sources(std::size_t cycles,
                                                               int width = 32);

void print_header(const char* title, const char* paper_ref);

// ------------------------------------------------------- scenario runner

// Handed to a scenario's run(): parsed flags, the resolved cycle budget,
// and sinks for results. Everything recorded here lands in the JSON report
// when the scenario runs with --json[=path].
class ScenarioContext {
 public:
  explicit ScenarioContext(CliFlags& flags) : flags_(flags) {}

  CliFlags& flags() { return flags_; }
  std::size_t cycles = 0;  // resolved --cycles (scenario default applied)

  // Record a named scalar result (gain, error rate, supply, ...).
  void metric(const std::string& name, double value) { metrics_.set(name, value); }
  // Record a named string annotation.
  void note(const std::string& name, const std::string& value) {
    notes_.set(name, value);
  }
  // Pretty-print a table to stdout AND record it in the report.
  void table(const std::string& name, const Table& t);

  Json& metrics() { return metrics_; }

 private:
  friend int run_scenario(int argc, char** argv, const struct Scenario& scenario);

  CliFlags& flags_;
  Json metrics_ = Json::object();
  Json notes_ = Json::object();
  Json tables_ = Json::object();
};

struct Scenario {
  std::string name;         // registry identifier (fig4_voltage_sweep)
  std::string description;  // one-line banner text
  std::string paper_ref;    // which table/figure/section it reproduces
  // Default --cycles value; 0 means the scenario takes no cycle budget.
  std::size_t default_cycles = 0;
  // Extra flag names run() will query (beyond --cycles/--json). Declared
  // up front so a typo'd flag fails BEFORE the expensive run, not after.
  std::vector<std::string> extra_flags;
  std::function<void(ScenarioContext&)> run;
};

// The one scenario entry: parses flags (positional arguments are the
// caller's), rejects unknown flags, prints the banner, times run(), and
// with --json[=path] writes the report (default path BENCH_<name>.json).
// Returns the process exit code.
int run_scenario(int argc, char** argv, const Scenario& scenario);

}  // namespace razorbus::bench

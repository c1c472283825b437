// Scenario-runner implementation (see bench_common.hpp).
#include "bench_common.hpp"

#include <chrono>
#include <exception>
#include <fstream>
#include <iostream>
#include <stdexcept>

#include "util/parallel.hpp"

namespace razorbus::bench {

core::SystemOptions options_with_progress(const char* what) {
  core::SystemOptions options;
  std::string label = what;
  options.progress = [label, printed = -1](int done, int total) mutable {
    const int pct = total ? done * 100 / total : 100;
    if (pct / 10 != printed) {
      printed = pct / 10;
      std::fprintf(stderr, "[characterising %s: %d%%]\n", label.c_str(), pct);
    }
  };
  return options;
}

const core::DvsBusSystem& paper_system() {
  static const core::DvsBusSystem system(interconnect::BusDesign::paper_bus(),
                                         options_with_progress("paper bus"));
  return system;
}

std::unique_ptr<trace::TraceSource> benchmark_source(const cpu::Benchmark& bench,
                                                     std::size_t cycles, int width) {
  if (width % 32 != 0)
    throw std::invalid_argument("benchmark traces require a width that is a "
                                "multiple of 32, got " +
                                std::to_string(width));
  const int factor = width / 32;
  auto s = bench.stream(cycles * static_cast<std::size_t>(factor));
  if (factor > 1) s = trace::widen_source(std::move(s), factor);
  return s;
}

std::vector<std::unique_ptr<trace::TraceSource>> suite_sources(std::size_t cycles,
                                                               int width) {
  std::vector<std::unique_ptr<trace::TraceSource>> sources;
  for (const auto& bench : cpu::spec2000_suite())
    sources.push_back(benchmark_source(bench, cycles, width));
  return sources;
}

void print_header(const char* title, const char* paper_ref) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title);
  std::printf("Reproduces: %s\n", paper_ref);
  std::printf("================================================================\n");
}

void ScenarioContext::table(const std::string& name, const Table& t) {
  t.print(std::cout);
  Json jt = Json::object();
  Json headers = Json::array();
  for (const auto& h : t.header()) headers.push(h);
  jt.set("headers", std::move(headers));
  Json rows = Json::array();
  for (const auto& row : t.rows()) {
    Json jr = Json::array();
    for (const auto& cell : row) jr.push(cell);
    rows.push(std::move(jr));
  }
  jt.set("rows", std::move(rows));
  tables_.set(name, std::move(jt));
}

int run_scenario(int argc, char** argv, const Scenario& scenario) {
  try {
    CliFlags flags(argc, argv);
    ScenarioContext ctx(flags);
    if (scenario.default_cycles > 0) {
      const std::int64_t cycles =
          flags.get_int("cycles", static_cast<std::int64_t>(scenario.default_cycles));
      if (cycles < 1)
        throw std::invalid_argument("--cycles must be >= 1, got " +
                                    std::to_string(cycles));
      ctx.cycles = static_cast<std::size_t>(cycles);
    }

    // Shared executor width: --threads=N shards the characterization and
    // the parallel experiment drivers over N threads (0 = hardware
    // concurrency, the default). Results are bit-identical at any width
    // (DESIGN.md §9), so this is purely a wall-clock knob.
    const std::int64_t requested_threads = flags.get_int("threads", 0);
    if (requested_threads < 0)
      throw std::invalid_argument("--threads must be >= 0, got " +
                                  std::to_string(requested_threads));
    util::set_global_threads(static_cast<unsigned>(requested_threads));

    // --json writes BENCH_<name>.json; --json=path overrides the location.
    std::string json_path;
    if (flags.has("json")) {
      json_path = flags.get("json", "true");
      if (json_path == "true" || json_path.empty())
        json_path = "BENCH_" + scenario.name + ".json";
    }

    // Fail fast on stray flags: mark the declared scenario flags as known,
    // then reject anything else before the (possibly long) run starts.
    for (const auto& name : scenario.extra_flags) flags.has(name);
    flags.reject_unused();

    print_header((scenario.name + ": " + scenario.description).c_str(),
                 scenario.paper_ref.c_str());
    std::fprintf(stderr, "[executor: %u thread%s]\n", util::global_threads(),
                 util::global_threads() == 1 ? "" : "s");

    const auto start = std::chrono::steady_clock::now();
    scenario.run(ctx);
    const double wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();

    std::printf("\n[%s: %.2f s]\n", scenario.name.c_str(), wall_seconds);

    if (!json_path.empty()) {
      Json report = Json::object();
      report.set("scenario", scenario.name);
      report.set("paper_ref", scenario.paper_ref);
      if (scenario.default_cycles > 0) report.set("cycles", ctx.cycles);
      // --threads=0 (auto) resolves to the hardware concurrency, which
      // differs across runners. Record "auto" in the diffable field and
      // the resolved count separately, so the CI regression gate can
      // compare reports from machines with different core counts.
      if (requested_threads > 0) {
        report.set("threads", static_cast<long long>(util::global_threads()));
      } else {
        report.set("threads", "auto");
        report.set("threads_resolved", static_cast<long long>(util::global_threads()));
      }
      report.set("wall_seconds", wall_seconds);
      report.set("metrics", std::move(ctx.metrics_));
      report.set("notes", std::move(ctx.notes_));
      report.set("tables", std::move(ctx.tables_));
      std::ofstream out(json_path, std::ios::trunc);
      if (!out) {
        std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
        return 1;
      }
      out << report.dump(2) << "\n";
      std::fprintf(stderr, "[wrote %s]\n", json_path.c_str());
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: %s\n", scenario.name.c_str(), e.what());
    return 1;
  }
}

}  // namespace razorbus::bench

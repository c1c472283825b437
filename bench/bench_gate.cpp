// CI bench-regression gate CLI (DESIGN.md §11).
//
//   bench_gate --history=DIR <current.json> [--allow-missing-baseline]
//
// <current.json> and every DIR/*.json entry hold one benchmark result line,
// the last line perfbench/run.py prints. Every metric whose unit is "1/s"
// (throughput) is compared against the per-metric lower median of the last
// kWindow entries in DIR (sorted by filename, the CI result-history
// convention), so one noisy main-branch entry cannot move the bar; the gate
// exits 1 when any of them dropped by more than kThreshold.
// Unparseable entries are skipped with a note. A missing baseline (no
// directory, or an empty/unreadable window) exits 0 with
// --allow-missing-baseline (first run on a branch, expired cache) and
// otherwise exits 2 with a message saying how to seed one. A current line
// that is malformed, has "correct": false or has no "metrics" object
// always exits 2. Improvements and added/removed metrics never fail.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <vector>

#include "core/bench_gate.hpp"
#include "util/cli.hpp"
#include "util/json.hpp"
#include "util/table.hpp"

using namespace razorbus;

namespace fs = std::filesystem;

namespace {

constexpr std::size_t kWindow = 10;
constexpr double kThreshold = 0.20;

int no_baseline(const std::string& what, bool allow_missing) {
  if (allow_missing) {
    std::printf("bench_gate: no baseline %s — nothing to compare, passing\n",
                what.c_str());
    return 0;
  }
  std::fprintf(stderr,
               "bench_gate: no baseline %s.\n"
               "A baseline is required: seed one from a main-branch run (CI "
               "records perfbench's result line into the bench-history cache on "
               "every main build), or pass --allow-missing-baseline to accept an "
               "ungated first run.\n",
               what.c_str());
  return 2;
}

int print_and_judge(const core::BenchGateResult& result, const std::string& against) {
  if (result.compared.empty()) {
    std::printf("bench_gate: no 1/s metric in both %s and the current line — passing\n",
                against.c_str());
    return 0;
  }
  Table table({"Metric", "Baseline", "Current", "Ratio", "Verdict"});
  for (const auto& finding : result.compared) {
    // jobs_per_s sits in single digits for the in-process workloads.
    const int decimals = finding.baseline < 100.0 ? 2 : 0;
    table.row()
        .add(finding.name)
        .add(finding.baseline, decimals)
        .add(finding.current, decimals)
        .add(finding.ratio, 3)
        .add(finding.regression ? "REGRESSED" : "ok");
  }
  table.print(std::cout);
  for (const auto& name : result.missing)
    std::printf("note: %s present in the history only (workload removed?)\n",
                name.c_str());
  for (const auto& name : result.added)
    std::printf("note: %s is new in this run\n", name.c_str());

  if (!result.ok()) {
    std::printf(
        "\nbench_gate: %zu metric(s) regressed by more than %.0f%% vs %s.\n"
        "If the slowdown is expected, include [bench-skip] in the commit message.\n",
        result.regressions(), 100.0 * kThreshold, against.c_str());
    return 1;
  }
  std::printf("\nbench_gate: %zu metric(s) within the %.0f%% threshold\n",
              result.compared.size(), 100.0 * kThreshold);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return cli_main(argc, argv, [](const CliFlags& flags) {
    const bool allow_missing = flags.get_bool("allow-missing-baseline", false);
    const std::string history_dir = flags.get("history", "");
    if (history_dir.empty() || flags.positional().size() != 1)
      throw std::invalid_argument(
          "usage: bench_gate --history=DIR <current.json> [--allow-missing-baseline]");
    flags.reject_unused();
    const Json current = Json::parse_file(flags.positional()[0]);

    std::vector<std::string> paths;
    if (fs::is_directory(history_dir))
      for (const auto& entry : fs::directory_iterator(history_dir))
        if (entry.path().extension() == ".json") paths.push_back(entry.path().string());
    // Filenames are the history order (CI zero-pads run numbers); gate
    // against the newest kWindow entries.
    std::sort(paths.begin(), paths.end());
    if (paths.size() > kWindow) paths.erase(paths.begin(), paths.end() - kWindow);
    std::vector<Json> history;
    for (const auto& path : paths) {
      try {
        history.push_back(Json::parse_file(path));
      } catch (const std::exception&) {
        std::printf("note: skipping unparseable history entry %s\n", path.c_str());
      }
    }
    // Compared before the baseline check, so a malformed current line
    // exits 2 even when there is nothing to gate it against.
    const core::BenchGateResult result =
        core::compare_bench_history(history, current, kThreshold);
    if (history.empty())
      return no_baseline("(no parseable entry in " + history_dir + ")", allow_missing);

    const auto label = history_dir + " (last " + std::to_string(history.size()) +
                       " entr" + (history.size() == 1 ? "y" : "ies") +
                       ", lower-median baseline)";
    std::printf("bench_gate: gating against %s\n", label.c_str());
    return print_and_judge(result, label);
  });
}

// Pinned campaign report bytes.
//
// Every declarative job of campaigns/{quick,system,drift}.json runs at its
// own budget, and every job of campaigns/streaming.json at its budget
// divided by kStreamingScale, through `campaign run-one` exactly as the
// campaign service executes it. Each BENCH_<job>.json, minus its
// wall-clock and host fields, must equal tests/golden/BENCH_<job>.json byte for
// byte: refactors of the experiment drivers may change how a report is
// computed, never what it says. (Bench-referencing jobs are pinned against
// their own goldens by campaign_test instead.)
//
// Like campaign_test, this spawns the sibling `campaign` binary, so it runs
// from the build directory.
#include <gtest/gtest.h>

#include <fstream>
#include <string>
#include <vector>

#include "core/scenario_spec.hpp"
#include "test_support.hpp"
#include "util/json.hpp"

namespace razorbus {
namespace {

// campaigns/streaming.json runs 10^7..10^8 cycles per job; divided by this
// factor its jobs take seconds while still spanning many stream blocks of
// the default size, many controller windows and every trace source kind.
constexpr std::size_t kStreamingScale = 1000;

const std::string kSourceDir = RAZORBUS_SOURCE_DIR;
const std::string kOut = "golden_test_out";

using test_support::normalized_report;
using test_support::run_cmd;
using test_support::slurp;

std::vector<core::ScenarioSpec> declarative_jobs(const std::string& campaign,
                                                 std::size_t scale) {
  const core::CampaignSpec spec =
      core::CampaignSpec::from_file(kSourceDir + "/campaigns/" + campaign + ".json");
  std::vector<core::ScenarioSpec> out;
  for (core::ScenarioJob& job : core::expand_campaign(spec)) {
    if (job.spec.kind == core::ScenarioSpec::Kind::bench) continue;
    job.spec.cycles /= scale;
    out.push_back(std::move(job.spec));
  }
  return out;
}

void expect_reports_match_golden(const std::string& campaign, std::size_t scale) {
  if (!std::ifstream("./campaign"))
    GTEST_SKIP() << "campaign binary not in the working directory; run from build/";
  const std::string dir = kOut + "/" + campaign;
  ASSERT_EQ(run_cmd("rm -rf " + dir + " && mkdir -p " + dir), 0);

  const std::vector<core::ScenarioSpec> jobs = declarative_jobs(campaign, scale);
  ASSERT_FALSE(jobs.empty());
  for (const core::ScenarioSpec& job : jobs) {
    SCOPED_TRACE(campaign + "/" + job.name);
    const std::string spec_path = dir + "/" + job.name + ".spec.json";
    const std::string report = "BENCH_" + job.name + ".json";
    std::ofstream(spec_path) << job.to_json().dump(2) << "\n";
    const std::string cmd = "./campaign run-one " + spec_path + " --json=" + dir + "/" +
                            report + " > " + dir + "/" + job.name + ".log 2>&1";
    ASSERT_EQ(run_cmd(cmd), 0) << slurp(dir + "/" + job.name + ".log");
    EXPECT_EQ(normalized_report(dir + "/" + report),
              slurp(kSourceDir + "/tests/golden/" + report));
  }
}

TEST(GoldenReports, Quick) { expect_reports_match_golden("quick", 1); }
TEST(GoldenReports, System) { expect_reports_match_golden("system", 1); }
TEST(GoldenReports, Drift) { expect_reports_match_golden("drift", 1); }
TEST(GoldenReports, StreamingScaled) {
  expect_reports_match_golden("streaming", kStreamingScale);
}

}  // namespace
}  // namespace razorbus

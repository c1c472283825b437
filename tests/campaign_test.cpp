// Scenario-campaign subsystem (DESIGN.md §11).
//
// Two layers under test:
//  * core::ScenarioSpec / CampaignSpec — strict JSON parsing (unknown key,
//    wrong type, out-of-range width all throw), to_json round trips, and
//    the scenarios x widths x controllers cross-product expansion.
//  * The campaign runner end to end — the acceptance contract that a
//    campaign job referencing a registered bench scenario, and
//    `campaign scenario` run directly, produce the reports pinned in
//    tests/golden/ (modulo wall-clock fields), that a finished campaign
//    resumes from its result files, and that malformed input fails before
//    any work. These spawn the sibling `campaign` binary from the build
//    directory, like CI does.
#include <gtest/gtest.h>

#include <fstream>

#include "core/scenario_spec.hpp"
#include "test_support.hpp"
#include "util/json.hpp"

namespace razorbus {
namespace {

using test_support::normalized_report;
using test_support::run_cmd;
using test_support::slurp;

core::ScenarioSpec parse_scenario(const std::string& text) {
  return core::ScenarioSpec::from_json(Json::parse(text));
}

core::CampaignSpec parse_campaign(const std::string& text) {
  return core::CampaignSpec::from_json(Json::parse(text));
}

// ------------------------------------------------------------ spec parsing

TEST(ScenarioSpec, BenchShorthandAndObjectForms) {
  const core::ScenarioSpec shorthand = parse_scenario("\"fig4_voltage_sweep\"");
  EXPECT_EQ(shorthand.kind, core::ScenarioSpec::Kind::bench);
  EXPECT_EQ(shorthand.bench, "fig4_voltage_sweep");
  EXPECT_EQ(shorthand.name, "fig4_voltage_sweep");

  const core::ScenarioSpec full = parse_scenario(
      R"({"bench": "fig8_dvs_trace", "cycles": 20000, "threads": 1,
          "flags": {"max_rows": 16}})");
  EXPECT_EQ(full.kind, core::ScenarioSpec::Kind::bench);
  EXPECT_EQ(full.cycles, 20000u);
  EXPECT_EQ(full.threads, 1u);
  ASSERT_EQ(full.flags.size(), 1u);
  EXPECT_EQ(full.flags[0].first, "max_rows");
  EXPECT_EQ(full.flags[0].second, "16");
}

TEST(ScenarioSpec, DeclarativeClosedLoopParses) {
  const core::ScenarioSpec spec = parse_scenario(
      R"({"name": "uniform_dvs", "experiment": "closed_loop",
          "trace": {"source": "synthetic", "style": "pointer_like",
                    "load_rate": 0.7, "seed": 42},
          "widths": [16, 64], "controllers": ["threshold", "fixed_vs"],
          "corners": ["typical", "worst"], "engine": "reference",
          "encoding": "bus_invert", "cycles": 50000})");
  EXPECT_EQ(spec.kind, core::ScenarioSpec::Kind::closed_loop);
  EXPECT_EQ(spec.trace.style, trace::SyntheticStyle::pointer_like);
  EXPECT_DOUBLE_EQ(spec.trace.load_rate, 0.7);
  EXPECT_EQ(spec.trace.seed, 42u);
  EXPECT_EQ(spec.widths, (std::vector<int>{16, 64}));
  ASSERT_EQ(spec.controllers.size(), 2u);
  EXPECT_EQ(spec.controllers[0].kind, dvs::ControllerKind::threshold);
  EXPECT_EQ(spec.controllers[1].kind, dvs::ControllerKind::fixed_vs);
  ASSERT_EQ(spec.corners.size(), 2u);
  EXPECT_EQ(spec.corners[1], tech::worst_case_corner());
  EXPECT_EQ(spec.engine, bus::EngineMode::reference);
  EXPECT_TRUE(spec.bus_invert);
}

// "simd" is a legacy spelling of bit_parallel: it resolves, and echoes, as
// bit_parallel; anything else but the engine names is rejected before
// characterization starts.
TEST(ScenarioSpec, SimdEngineParsesAsBitParallel) {
  const core::ScenarioSpec spec = parse_scenario(
      R"({"name": "sweep_simd", "experiment": "static_sweep",
          "engine": "simd", "stream": true})");
  EXPECT_EQ(spec.engine, bus::EngineMode::bit_parallel);
  EXPECT_TRUE(spec.stream);
  const core::ScenarioSpec back = core::ScenarioSpec::from_json(spec.to_json());
  EXPECT_EQ(back.engine, bus::EngineMode::bit_parallel);
  EXPECT_THROW(parse_scenario(R"({"name": "x", "experiment": "static_sweep",
                                  "engine": "vector"})"),
               std::invalid_argument);
}

TEST(ScenarioSpec, ControllerTuningKnobs) {
  const core::ScenarioSpec spec = parse_scenario(
      R"({"name": "tuned", "experiment": "closed_loop",
          "controllers": [{"kind": "threshold", "low": 0.005, "high": 0.01,
                           "window": 2000},
                          {"kind": "proportional", "gain": 6.0}]})");
  ASSERT_EQ(spec.controllers.size(), 2u);
  EXPECT_DOUBLE_EQ(spec.controllers[0].threshold.low_threshold, 0.005);
  EXPECT_DOUBLE_EQ(spec.controllers[0].threshold.high_threshold, 0.01);
  EXPECT_EQ(spec.controllers[0].threshold.window_cycles, 2000u);
  EXPECT_DOUBLE_EQ(spec.controllers[1].proportional.gain, 6.0);
}

// The malformed-spec error paths the loader must catch BEFORE any
// characterization work starts.
TEST(ScenarioSpec, MalformedSpecsThrow) {
  // Unknown key (typo'd "cycels").
  EXPECT_THROW(parse_scenario(R"({"bench": "fig4_voltage_sweep", "cycels": 10})"),
               std::invalid_argument);
  // Wrong type.
  EXPECT_THROW(parse_scenario(R"({"bench": "fig4_voltage_sweep", "cycles": "many"})"),
               std::invalid_argument);
  EXPECT_THROW(parse_scenario(R"({"name": "x", "experiment": "closed_loop",
                                  "widths": ["wide"]})"),
               std::invalid_argument);
  // Runner-owned flags cannot be shadowed through "flags".
  EXPECT_THROW(parse_scenario(R"({"bench": "fig4_voltage_sweep",
                                  "flags": {"json": "elsewhere.json"}})"),
               std::invalid_argument);
  // Negative cycle budgets must not wrap to a huge std::size_t.
  EXPECT_THROW(parse_scenario(R"({"bench": "fig4_voltage_sweep", "cycles": -1})"),
               std::invalid_argument);
  EXPECT_THROW(parse_campaign(R"({"name": "x", "defaults": {"cycles": -5},
                                  "scenarios": ["engine"]})"),
               std::invalid_argument);
  // Out-of-range widths (BusWord holds 1..128 wires).
  EXPECT_THROW(parse_scenario(R"({"name": "x", "experiment": "closed_loop",
                                  "widths": [0]})"),
               std::invalid_argument);
  EXPECT_THROW(parse_scenario(R"({"name": "x", "experiment": "closed_loop",
                                  "widths": [256]})"),
               std::invalid_argument);
  // Neither bench nor experiment / both at once.
  EXPECT_THROW(parse_scenario(R"({"name": "x"})"), std::invalid_argument);
  EXPECT_THROW(parse_scenario(R"({"name": "x", "bench": "engine",
                                  "experiment": "closed_loop"})"),
               std::invalid_argument);
  // Unknown enum values.
  EXPECT_THROW(parse_scenario(R"({"name": "x", "experiment": "warp_speed"})"),
               std::invalid_argument);
  EXPECT_THROW(parse_scenario(R"({"name": "x", "experiment": "closed_loop",
                                  "controllers": ["pid"]})"),
               std::invalid_argument);
  EXPECT_THROW(parse_scenario(R"({"name": "x", "experiment": "closed_loop",
                                  "trace": {"source": "synthetic", "style": "plaid"}})"),
               std::invalid_argument);
  EXPECT_THROW(parse_scenario(R"({"name": "x", "experiment": "closed_loop",
                                  "corners": ["mars"]})"),
               std::invalid_argument);
  EXPECT_THROW(parse_scenario(R"({"name": "x", "experiment": "closed_loop",
                                  "encoding": "gray"})"),
               std::invalid_argument);
  // controllers on a static sweep (closed-loop-only axis).
  EXPECT_THROW(parse_scenario(R"({"name": "x", "experiment": "static_sweep",
                                  "controllers": ["threshold"]})"),
               std::invalid_argument);
  // Names become file names / subprocess args: shell metachars rejected.
  EXPECT_THROW(parse_scenario(R"({"name": "rm -rf", "experiment": "closed_loop"})"),
               std::invalid_argument);
  // Trace sources with missing required fields.
  EXPECT_THROW(parse_scenario(R"({"name": "x", "experiment": "closed_loop",
                                  "trace": {"source": "file"}})"),
               std::invalid_argument);
  EXPECT_THROW(parse_scenario(R"({"name": "x", "experiment": "closed_loop",
                                  "trace": {"source": "benchmark"}})"),
               std::invalid_argument);
}

TEST(CampaignSpec, ParsesDefaultsAndRejectsEmpty) {
  const core::CampaignSpec campaign = parse_campaign(
      R"({"name": "quick", "defaults": {"cycles": 20000, "threads": 2},
          "scenarios": ["fig4_voltage_sweep"]})");
  EXPECT_EQ(campaign.default_cycles, 20000u);
  EXPECT_EQ(campaign.default_threads, 2u);
  ASSERT_EQ(campaign.scenarios.size(), 1u);

  EXPECT_THROW(parse_campaign(R"({"name": "empty", "scenarios": []})"),
               std::invalid_argument);
  EXPECT_THROW(parse_campaign(R"({"name": "x", "scenarios": ["engine"], "typo": 1})"),
               std::invalid_argument);
  EXPECT_THROW(Json::parse("{\"name\": \"x\",}"), JsonParseError);
}

TEST(ScenarioSpec, ToJsonRoundTrips) {
  const std::string text =
      R"({"name": "uniform_dvs", "experiment": "closed_loop",
          "trace": {"source": "synthetic", "style": "sparse", "load_rate": 0.1,
                    "seed": 7},
          "widths": [32, 128],
          "controllers": [{"kind": "proportional", "gain": 3.5}],
          "corners": [{"process": "fast", "temp_c": 25.0, "ir_drop": 0.05}],
          "engine": "reference", "cycles": 123456, "threads": 3})";
  const core::ScenarioSpec spec = parse_scenario(text);
  const core::ScenarioSpec back = core::ScenarioSpec::from_json(spec.to_json());
  EXPECT_EQ(back.to_json().dump(0), spec.to_json().dump(0));
  EXPECT_EQ(back.trace.seed, 7u);
  EXPECT_DOUBLE_EQ(back.controllers.at(0).proportional.gain, 3.5);
  EXPECT_EQ(back.corners.at(0).process, tech::ProcessCorner::fast);
  EXPECT_DOUBLE_EQ(back.corners.at(0).ir_drop_fraction, 0.05);
}

// ------------------------------------------------- multi_bus and drift

// What from_json actually threw, so the strict-validation tests can pin
// the full message (a typo'd campaign should say exactly what's wrong).
std::string thrown_message(const std::string& text) {
  try {
    parse_scenario(text);
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

TEST(ScenarioSpec, MultiBusParses) {
  const core::ScenarioSpec spec = parse_scenario(
      R"({"name": "soc", "experiment": "multi_bus", "arbitration": "weighted",
          "buses": [
            {"width": 16, "weight": 0.5,
             "trace": {"source": "synthetic", "style": "uniform", "seed": 1}},
            {"width": 64, "weight": 2.0,
             "trace": {"source": "synthetic", "style": "sparse", "seed": 2}}
          ],
          "cycles": 30000})");
  EXPECT_EQ(spec.kind, core::ScenarioSpec::Kind::multi_bus);
  EXPECT_EQ(spec.arbitration, dvs::ArbitrationPolicy::weighted);
  ASSERT_EQ(spec.buses.size(), 2u);
  EXPECT_EQ(spec.buses[0].width, 16);
  EXPECT_DOUBLE_EQ(spec.buses[0].weight, 0.5);
  EXPECT_EQ(spec.buses[1].trace.style, trace::SyntheticStyle::sparse);
  // The default controller axis is a single threshold controller.
  ASSERT_EQ(spec.controllers.size(), 1u);
  EXPECT_EQ(spec.controllers[0].kind, dvs::ControllerKind::threshold);
}

TEST(ScenarioSpec, DriftParses) {
  const core::ScenarioSpec linear = parse_scenario(
      R"({"name": "aging", "experiment": "closed_loop",
          "drift": {"temp_start": 25.0, "temp_end": 100.0,
                    "vth_shift_start": 0.0, "vth_shift_end": 0.05}})");
  EXPECT_TRUE(linear.drift.enabled);
  EXPECT_DOUBLE_EQ(linear.drift.temp_end, 100.0);
  EXPECT_DOUBLE_EQ(linear.drift.vth_shift_end, 0.05);

  const core::ScenarioSpec piecewise = parse_scenario(
      R"({"name": "steps", "experiment": "closed_loop",
          "drift": {"points": [{"cycle": 0, "temp_c": 25.0},
                               {"cycle": 5000, "temp_c": 100.0,
                                "vth_shift": 0.02}]}})");
  ASSERT_EQ(piecewise.drift.points.size(), 2u);
  EXPECT_EQ(piecewise.drift.points[1].cycle, 5000u);
  EXPECT_DOUBLE_EQ(piecewise.drift.points[1].vth_shift, 0.02);
}

// The new keys must fail with PRECISE messages (ISSUE satellite): the
// offending object and field, not a generic parse error.
TEST(ScenarioSpec, MultiBusAndDriftValidationMessages) {
  EXPECT_EQ(thrown_message(
                R"({"name": "x", "experiment": "multi_bus",
                    "arbitration": "priority",
                    "buses": [{"width": 32}]})"),
            "scenario spec: scenario: unknown arbitration policy 'priority' "
            "(expected max_error, sum_error or weighted)");
  EXPECT_EQ(thrown_message(
                R"({"name": "x", "experiment": "closed_loop",
                    "drift": {"points": [{"cycle": 500, "temp_c": 25.0},
                                         {"cycle": 500, "temp_c": 50.0}]}})"),
            "scenario spec: drift: 'points' cycles must be strictly increasing");
  EXPECT_EQ(thrown_message(
                R"({"name": "x", "experiment": "multi_bus",
                    "buses": [{"width": 16,
                               "trace": {"source": "benchmark", "name": "gzip"}}]})"),
            "scenario spec: buses: benchmark trace 'gzip' is 32 bits wide but "
            "the bus width 16 is not a multiple of 32");
}

// Drift rides the closed loop under either window-count controller;
// fixed_vs runs at one supply with no control window, so it is the one
// controller kind a drift spec rejects.
TEST(ScenarioSpec, DriftAcceptsProportionalAndRejectsFixedVs) {
  const core::ScenarioSpec spec = parse_scenario(
      R"({"name": "x", "experiment": "closed_loop", "controllers": ["proportional"],
          "drift": {"temp_start": 100.0, "temp_end": 25.0}})");
  EXPECT_TRUE(spec.drift.enabled);
  ASSERT_EQ(spec.controllers.size(), 1u);
  EXPECT_EQ(spec.controllers[0].kind, dvs::ControllerKind::proportional);

  EXPECT_EQ(thrown_message(
                R"({"name": "x", "experiment": "closed_loop",
                    "controllers": ["proportional", "fixed_vs"],
                    "drift": {"temp_start": 100.0, "temp_end": 25.0}})"),
            "scenario spec: scenario: drift runs reject fixed_vs controllers (no "
            "control window to re-derive the corner at)");
}

TEST(ScenarioSpec, MultiBusAndDriftMisuseThrows) {
  // multi_bus takes per-bus traces and widths, not the scenario axes.
  EXPECT_THROW(parse_scenario(R"({"name": "x", "experiment": "multi_bus",
                                  "buses": [{"width": 32}],
                                  "trace": {"source": "synthetic"}})"),
               std::invalid_argument);
  EXPECT_THROW(parse_scenario(R"({"name": "x", "experiment": "multi_bus",
                                  "buses": [{"width": 32}], "widths": [16]})"),
               std::invalid_argument);
  // buses only on multi_bus; multi_bus requires buses.
  EXPECT_THROW(parse_scenario(R"({"name": "x", "experiment": "closed_loop",
                                  "buses": [{"width": 32}]})"),
               std::invalid_argument);
  EXPECT_THROW(parse_scenario(R"({"name": "x", "experiment": "multi_bus"})"),
               std::invalid_argument);
  EXPECT_THROW(parse_scenario(R"({"name": "x", "experiment": "multi_bus",
                                  "buses": []})"),
               std::invalid_argument);
  // One stream per bus: a whole-suite lane makes no sense.
  EXPECT_THROW(parse_scenario(R"({"name": "x", "experiment": "multi_bus",
                                  "buses": [{"width": 32,
                                             "trace": {"source": "suite"}}]})"),
               std::invalid_argument);
  // Arbitration fuses into ONE threshold controller input.
  EXPECT_THROW(parse_scenario(R"({"name": "x", "experiment": "multi_bus",
                                  "buses": [{"width": 32}],
                                  "controllers": ["fixed_vs"]})"),
               std::invalid_argument);
  // Drift needs a closed-loop kind and a controller with a control window.
  EXPECT_THROW(parse_scenario(R"({"name": "x", "experiment": "static_sweep",
                                  "drift": {"temp_start": 25.0}})"),
               std::invalid_argument);
  EXPECT_THROW(parse_scenario(R"({"name": "x", "experiment": "closed_loop",
                                  "controllers": ["fixed_vs"],
                                  "drift": {"temp_start": 25.0}})"),
               std::invalid_argument);
  // Out-of-range drift states.
  EXPECT_THROW(parse_scenario(R"({"name": "x", "experiment": "closed_loop",
                                  "drift": {"temp_end": 400.0}})"),
               std::invalid_argument);
  EXPECT_THROW(parse_scenario(R"({"name": "x", "experiment": "closed_loop",
                                  "drift": {"vth_shift_end": 0.5}})"),
               std::invalid_argument);
  // Bad lane weights.
  EXPECT_THROW(parse_scenario(R"({"name": "x", "experiment": "multi_bus",
                                  "buses": [{"width": 32, "weight": 0}]})"),
               std::invalid_argument);
}

TEST(ScenarioSpec, MultiBusAndDriftRoundTrip) {
  const std::string text =
      R"({"name": "soc_drift", "experiment": "multi_bus",
          "arbitration": "sum_error",
          "buses": [
            {"width": 16, "weight": 0.5,
             "trace": {"source": "synthetic", "style": "uniform", "seed": 1}},
            {"width": 64,
             "trace": {"source": "synthetic", "style": "sparse", "seed": 2}}
          ],
          "drift": {"temp_start": 25.0, "temp_end": 100.0,
                    "vth_shift_start": 0.0, "vth_shift_end": 0.05},
          "cycles": 30000, "stream": true})";
  const core::ScenarioSpec spec = parse_scenario(text);
  const core::ScenarioSpec back = core::ScenarioSpec::from_json(spec.to_json());
  EXPECT_EQ(back.to_json().dump(0), spec.to_json().dump(0));
  EXPECT_EQ(back.arbitration, dvs::ArbitrationPolicy::sum_error);
  ASSERT_EQ(back.buses.size(), 2u);
  EXPECT_DOUBLE_EQ(back.buses[0].weight, 0.5);
  EXPECT_TRUE(back.drift.enabled);
  EXPECT_DOUBLE_EQ(back.drift.vth_shift_end, 0.05);

  // Piecewise drift survives the round trip too.
  const core::ScenarioSpec steps = parse_scenario(
      R"({"name": "steps", "experiment": "closed_loop",
          "drift": {"points": [{"cycle": 0, "temp_c": 25.0},
                               {"cycle": 9000, "temp_c": 100.0,
                                "vth_shift": 0.03}]}})");
  const core::ScenarioSpec steps_back =
      core::ScenarioSpec::from_json(steps.to_json());
  EXPECT_EQ(steps_back.to_json().dump(0), steps.to_json().dump(0));
  ASSERT_EQ(steps_back.drift.points.size(), 2u);
  EXPECT_DOUBLE_EQ(steps_back.drift.points[1].vth_shift, 0.03);
}

// ------------------------------------------------------------- expansion

TEST(CampaignExpansion, CrossProductWithAxisSuffixes) {
  const core::CampaignSpec campaign = parse_campaign(
      R"({"name": "grid", "defaults": {"cycles": 1000},
          "scenarios": [
            {"bench": "fig4_voltage_sweep"},
            {"name": "grid_dvs", "experiment": "closed_loop",
             "widths": [16, 64], "controllers": ["threshold", "fixed_vs"]},
            {"name": "solo", "experiment": "static_sweep"}
          ]})");
  const auto jobs = core::expand_campaign(campaign);
  ASSERT_EQ(jobs.size(), 6u);
  EXPECT_EQ(jobs[0].name, "fig4_voltage_sweep");
  EXPECT_EQ(jobs[1].name, "grid_dvs_w16_threshold");
  EXPECT_EQ(jobs[2].name, "grid_dvs_w16_fixed_vs");
  EXPECT_EQ(jobs[3].name, "grid_dvs_w64_threshold");
  EXPECT_EQ(jobs[4].name, "grid_dvs_w64_fixed_vs");
  EXPECT_EQ(jobs[5].name, "solo");
  // Each job collapsed to a single point with the defaults applied.
  EXPECT_EQ(jobs[1].spec.widths, std::vector<int>{16});
  ASSERT_EQ(jobs[1].spec.controllers.size(), 1u);
  EXPECT_EQ(jobs[1].spec.cycles, 1000u);
  // Single-axis scenarios keep their plain name (no suffix).
  EXPECT_EQ(jobs[5].spec.widths, std::vector<int>{32});
}

// A tuning sweep repeats one controller kind; unlabelled duplicates get
// occurrence suffixes and explicit labels name the axis point directly.
TEST(CampaignExpansion, ControllerTuningSweepsKeepDistinctJobNames) {
  const core::CampaignSpec campaign = parse_campaign(
      R"({"name": "tuning", "defaults": {"cycles": 1000}, "scenarios": [
            {"name": "band", "experiment": "closed_loop",
             "controllers": [{"kind": "threshold", "low": 0.005, "high": 0.01},
                             {"kind": "threshold", "low": 0.02, "high": 0.05},
                             {"kind": "threshold", "label": "paper_band"}]}
          ]})");
  const auto jobs = core::expand_campaign(campaign);
  ASSERT_EQ(jobs.size(), 3u);
  EXPECT_EQ(jobs[0].name, "band_threshold");
  EXPECT_EQ(jobs[1].name, "band_threshold_2");
  EXPECT_EQ(jobs[2].name, "band_paper_band");
  EXPECT_DOUBLE_EQ(jobs[1].spec.controllers.at(0).threshold.low_threshold, 0.02);
}

// multi_bus has no widths axis, but the controllers (tuning) axis still
// multiplies out — each job keeps the full lane list.
TEST(CampaignExpansion, MultiBusControllerAxisExpands) {
  const core::CampaignSpec campaign = parse_campaign(
      R"({"name": "soc", "defaults": {"cycles": 1000}, "scenarios": [
            {"name": "fabric", "experiment": "multi_bus",
             "arbitration": "sum_error",
             "buses": [{"width": 16}, {"width": 64, "weight": 2.0}],
             "controllers": [{"kind": "threshold", "low": 0.005, "high": 0.01},
                             {"kind": "threshold", "label": "paper_band"}]}
          ]})");
  const auto jobs = core::expand_campaign(campaign);
  ASSERT_EQ(jobs.size(), 2u);
  EXPECT_EQ(jobs[0].name, "fabric_threshold");
  EXPECT_EQ(jobs[1].name, "fabric_paper_band");
  for (const auto& job : jobs) {
    EXPECT_EQ(job.spec.kind, core::ScenarioSpec::Kind::multi_bus);
    EXPECT_EQ(job.spec.arbitration, dvs::ArbitrationPolicy::sum_error);
    ASSERT_EQ(job.spec.buses.size(), 2u);
    ASSERT_EQ(job.spec.controllers.size(), 1u);
    EXPECT_EQ(job.spec.cycles, 1000u);
  }
  EXPECT_DOUBLE_EQ(jobs[0].spec.controllers.at(0).threshold.low_threshold, 0.005);
}

TEST(CampaignExpansion, DuplicateJobNamesAreRejected) {
  const core::CampaignSpec campaign = parse_campaign(
      R"({"name": "dup", "scenarios": [
            {"name": "same", "experiment": "static_sweep", "cycles": 10},
            {"name": "same", "experiment": "closed_loop", "cycles": 10}
          ]})");
  EXPECT_THROW(core::expand_campaign(campaign), std::invalid_argument);
}

// ----------------------------------------------- end-to-end byte identity

// Everything below spawns the sibling `campaign` binary, so it runs from
// the build directory (as ctest and CI do).

const std::string kSourceDir = RAZORBUS_SOURCE_DIR;

class CampaignEndToEnd : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!std::ifstream("./campaign"))
      GTEST_SKIP() << "campaign binary not in the working directory; run from build/";
    ASSERT_EQ(run_cmd("rm -rf campaign_test_out && mkdir -p campaign_test_out"), 0);
  }
};

TEST_F(CampaignEndToEnd, BenchJobReportsMatchGolden) {
  // The acceptance scenarios: fig4, fig8 and table1, at budgets small
  // enough for CI but large enough to exercise sweeps, the consecutive
  // closed-loop driver and the per-trace suite driver. Their reports are
  // pinned in tests/golden/, and `campaign scenario` must reproduce them
  // outside a campaign.
  std::ofstream spec("campaign_test_out/paper_small.json");
  spec << R"({
    "name": "paper_small",
    "defaults": {"threads": 1},
    "scenarios": [
      {"bench": "fig4_voltage_sweep", "cycles": 3000},
      {"bench": "fig8_dvs_trace", "cycles": 20000, "flags": {"max_rows": 16}},
      {"bench": "table1_dvs_gains", "cycles": 10000}
    ]
  })";
  spec.close();

  ASSERT_EQ(run_cmd("./campaign run campaign_test_out/paper_small.json "
                    "--out=campaign_test_out/run "
                    "--json=campaign_test_out/BENCH_campaign.json "
                    "> campaign_test_out/campaign.log 2>&1"),
            0);

  for (const char* job : {"fig4_voltage_sweep", "fig8_dvs_trace", "table1_dvs_gains"}) {
    const std::string report = "BENCH_" + std::string(job) + ".json";
    EXPECT_EQ(normalized_report("campaign_test_out/run/" + report),
              slurp(kSourceDir + "/tests/golden/" + report))
        << job;
  }
  ASSERT_EQ(run_cmd("./campaign scenario fig4_voltage_sweep --cycles=3000 --threads=1 "
                    "--json=campaign_test_out/scenario_fig4.json "
                    "> campaign_test_out/scenario_fig4.log 2>&1"),
            0);
  EXPECT_EQ(normalized_report("campaign_test_out/scenario_fig4.json"),
            slurp(kSourceDir + "/tests/golden/BENCH_fig4_voltage_sweep.json"));

  // The consolidated report aggregates all three per-job reports.
  const Json aggregate = Json::parse(slurp("campaign_test_out/BENCH_campaign.json"));
  EXPECT_EQ(aggregate.at("campaign").as_string(), "paper_small");
  EXPECT_EQ(aggregate.at("jobs").as_int(), 3);
  ASSERT_TRUE(aggregate.at("scenarios").has("table1_dvs_gains"));
  EXPECT_EQ(aggregate.at("scenarios").at("fig4_voltage_sweep").at("cycles").as_int(),
            3000);

  // Resume: a second run must execute nothing (all jobs cached) and still
  // rewrite the same consolidated report.
  ASSERT_EQ(run_cmd("./campaign run campaign_test_out/paper_small.json "
                    "--out=campaign_test_out/run "
                    "--json=campaign_test_out/BENCH_campaign2.json "
                    "> campaign_test_out/campaign2.log 2>&1"),
            0);
  const std::string log = slurp("campaign_test_out/campaign2.log");
  EXPECT_NE(log.find("3 cached"), std::string::npos) << log;
  // Scheduling accounting (wall clock, cache traffic, executed counts)
  // legitimately differs between the cold run and the resumed run; the
  // scenario payloads must not.
  const auto normalized_aggregate = [&](const std::string& path) {
    Json doc = Json::parse(slurp(path));
    for (const char* key :
         {"wall_seconds", "cached", "cache", "executed", "executed_cycles"})
      doc.erase(key);
    return doc.dump(2);
  };
  EXPECT_EQ(normalized_aggregate("campaign_test_out/BENCH_campaign.json"),
            normalized_aggregate("campaign_test_out/BENCH_campaign2.json"));
}

TEST_F(CampaignEndToEnd, DeclarativeJobRunsAndReports) {
  std::ofstream spec("campaign_test_out/decl.json");
  spec << R"({
    "name": "decl",
    "scenarios": [
      {"name": "sparse_dvs", "experiment": "closed_loop",
       "trace": {"source": "synthetic", "style": "sparse", "load_rate": 0.1,
                 "seed": 11},
       "widths": [16], "cycles": 30000, "threads": 1}
    ]
  })";
  spec.close();
  ASSERT_EQ(run_cmd("./campaign run campaign_test_out/decl.json "
                    "--out=campaign_test_out/decl_run "
                    "--json=campaign_test_out/BENCH_decl.json "
                    "> campaign_test_out/decl.log 2>&1"),
            0);
  const Json report =
      Json::parse(slurp("campaign_test_out/decl_run/BENCH_sparse_dvs.json"));
  EXPECT_EQ(report.at("scenario").as_string(), "sparse_dvs");
  EXPECT_EQ(report.at("cycles").as_int(), 30000);
  EXPECT_TRUE(report.at("metrics").has("typical_100C_sparse_gain"));
  EXPECT_EQ(report.at("notes").at("width").as_string(), "16");
}

// Drift under the proportional controller takes the threshold
// controller's 1-lane BusSystem path, so its report counts the corner
// updates too.
TEST_F(CampaignEndToEnd, ProportionalDriftJobReportsEnvUpdates) {
  std::ofstream spec("campaign_test_out/prop_drift.spec.json");
  spec << R"({"name": "prop_drift", "experiment": "closed_loop",
    "trace": {"source": "synthetic", "style": "uniform", "seed": 5},
    "controllers": ["proportional"],
    "drift": {"temp_start": 100.0, "temp_end": 25.0,
              "vth_shift_start": 0.0, "vth_shift_end": 0.03},
    "cycles": 30000, "threads": 1})";
  spec.close();
  ASSERT_EQ(run_cmd("./campaign run-one campaign_test_out/prop_drift.spec.json "
                    "--json=campaign_test_out/BENCH_prop_drift.json "
                    "> campaign_test_out/prop_drift.log 2>&1"),
            0)
      << slurp("campaign_test_out/prop_drift.log");
  const Json report = Json::parse(slurp("campaign_test_out/BENCH_prop_drift.json"));
  EXPECT_EQ(report.at("notes").at("controller").as_string(), "proportional");
  EXPECT_EQ(report.at("notes").at("drift").as_string(), "enabled");
  EXPECT_GT(report.at("metrics").at("typical_100C_env_updates").as_double(), 0.0);
  EXPECT_TRUE(report.at("metrics").has("typical_100C_uniform_wall_tracking"));
}

TEST_F(CampaignEndToEnd, EditedSpecInvalidatesResume) {
  const auto write_spec = [](int cycles) {
    std::ofstream spec("campaign_test_out/edit.json");
    spec << R"({"name": "edit", "scenarios": [
      {"name": "sweep", "experiment": "static_sweep",
       "trace": {"source": "synthetic", "style": "uniform", "seed": 3},
       "cycles": )"
         << cycles << R"(, "threads": 1}]})";
  };
  const std::string cmd =
      "./campaign run campaign_test_out/edit.json --out=campaign_test_out/edit_run "
      "--json=campaign_test_out/BENCH_edit.json > campaign_test_out/edit.log 2>&1";
  write_spec(2000);
  ASSERT_EQ(run_cmd(cmd), 0);
  // Unchanged rerun: cached.
  ASSERT_EQ(run_cmd(cmd), 0);
  EXPECT_NE(slurp("campaign_test_out/edit.log").find("1 cached"), std::string::npos);
  // Edited cycle budget, same job name: must NOT resume from the stale
  // report — the rerun executes and the aggregate carries the new budget.
  write_spec(4000);
  ASSERT_EQ(run_cmd(cmd), 0);
  EXPECT_NE(slurp("campaign_test_out/edit.log").find("0 cached"), std::string::npos);
  const Json aggregate = Json::parse(slurp("campaign_test_out/BENCH_edit.json"));
  EXPECT_EQ(aggregate.at("scenarios").at("sweep").at("cycles").as_int(), 4000);
}

// Torn-file tolerance (the PointStore contract, applied to job results): a
// BENCH_<job>.json truncated by a crash mid-write must not wedge resume —
// the job is skipped as done and re-run, restoring a byte-identical report.
TEST_F(CampaignEndToEnd, TornReportIsSkippedAndRerun) {
  std::ofstream spec("campaign_test_out/torn.json");
  spec << R"({"name": "torn", "scenarios": [
    {"name": "sweep", "experiment": "static_sweep",
     "trace": {"source": "synthetic", "style": "uniform", "seed": 3},
     "cycles": 2000, "threads": 1}]})";
  spec.close();
  const std::string cmd =
      "./campaign run campaign_test_out/torn.json --out=campaign_test_out/torn_run "
      "--json=campaign_test_out/BENCH_torn.json > campaign_test_out/torn.log 2>&1";
  ASSERT_EQ(run_cmd(cmd), 0);
  const std::string report_path = "campaign_test_out/torn_run/BENCH_sweep.json";
  const std::string intact = slurp(report_path);
  ASSERT_GT(intact.size(), 64u);

  // Tear the report in half: the result cache still holds the full bytes,
  // so the re-run replays them without simulating.
  {
    std::ofstream torn(report_path, std::ios::trunc | std::ios::binary);
    torn << intact.substr(0, intact.size() / 2);
  }
  ASSERT_EQ(run_cmd(cmd), 0);
  // Not resumed-as-done (the torn report was rejected) — replayed from the
  // result cache instead of simulated.
  EXPECT_NE(slurp("campaign_test_out/torn.log").find("cache-hit sweep"),
            std::string::npos);
  EXPECT_EQ(slurp(report_path), intact);

  // Tear the report AND its cache entry: the re-run must fall all the way
  // back to simulation and restore identical results — byte-identical up
  // to wall_seconds, the one field a fresh simulation legitimately moves.
  {
    std::ofstream torn(report_path, std::ios::trunc | std::ios::binary);
    torn << intact.substr(0, intact.size() / 2);
  }
  ASSERT_EQ(run_cmd("sh -c 'for f in campaign_test_out/torn_run/cache/r_*.json; do "
                    "head -c 16 \"$f\" > \"$f.t\" && mv \"$f.t\" \"$f\"; done'"),
            0);
  ASSERT_EQ(run_cmd(cmd), 0);
  EXPECT_NE(slurp("campaign_test_out/torn.log").find("done sweep"), std::string::npos);
  const auto without_wall = [](const std::string& text) {
    Json doc = Json::parse(text);
    doc.erase("wall_seconds");
    return doc.dump(2);
  };
  EXPECT_EQ(without_wall(slurp(report_path)), without_wall(intact));
}

// `campaign scenario` checks its input before any work: an unknown name
// (the error lists the known ones), a typo'd flag, a stray extra argument
// and a missing name all exit non-zero before the banner and write no
// report.
TEST_F(CampaignEndToEnd, ScenarioRejectsBadInputBeforeAnyWork) {
  const std::string report = "campaign_test_out/bad_scenario.json";
  const std::string log = "campaign_test_out/bad_scenario.log";
  const auto expect_rejected = [&](const std::string& args, const std::string& error) {
    SCOPED_TRACE(args);
    EXPECT_NE(run_cmd("./campaign scenario " + args + " --json=" + report + " > " + log +
                      " 2>&1"),
              0);
    const std::string text = slurp(log);
    EXPECT_NE(text.find(error), std::string::npos) << text;
    EXPECT_EQ(text.find("Reproduces:"), std::string::npos) << text;
    EXPECT_FALSE(std::ifstream(report).good());
  };
  expect_rejected("fig4_voltage_swep",
                  "unknown scenario 'fig4_voltage_swep' (known: fig4_voltage_sweep, ");
  expect_rejected("fig4_voltage_sweep --cycels=5", "unknown flag(s): --cycels");
  expect_rejected("fig4_voltage_sweep extra", "usage: campaign");
  expect_rejected("", "usage: campaign");
}

TEST_F(CampaignEndToEnd, MalformedCampaignFailsBeforeAnyWork) {
  std::ofstream spec("campaign_test_out/bad.json");
  spec << R"({"name": "bad", "scenarios": [{"bench": "fig4_voltage_sweep",
              "cycels": 10}]})";
  spec.close();
  EXPECT_NE(run_cmd("./campaign run campaign_test_out/bad.json "
                    "--out=campaign_test_out/bad_run "
                    "> campaign_test_out/bad.log 2>&1"),
            0);
  const std::string log = slurp("campaign_test_out/bad.log");
  EXPECT_NE(log.find("unknown key 'cycels'"), std::string::npos) << log;
  // Nothing ran: the output directory was never created.
  EXPECT_FALSE(std::ifstream("campaign_test_out/bad_run/campaign.json").good());

  // A typo'd bench NAME must also fail before any job executes, even when
  // it sits behind other (expensive) scenarios in the campaign.
  std::ofstream typo("campaign_test_out/typo.json");
  typo << R"({"name": "typo", "scenarios": [
              {"bench": "fig4_voltage_sweep", "cycles": 1000},
              {"bench": "fig4_voltage_swep"}]})";
  typo.close();
  EXPECT_NE(run_cmd("./campaign run campaign_test_out/typo.json "
                    "--out=campaign_test_out/typo_run "
                    "> campaign_test_out/typo.log 2>&1"),
            0);
  const std::string typo_log = slurp("campaign_test_out/typo.log");
  EXPECT_NE(typo_log.find("unknown scenario 'fig4_voltage_swep'"), std::string::npos)
      << typo_log;
  EXPECT_FALSE(std::ifstream("campaign_test_out/typo_run/campaign.json").good());
}

}  // namespace
}  // namespace razorbus

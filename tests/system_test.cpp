// Multi-bus shared-supply systems (sys::BusSystem, ISSUE tentpole): the
// load-bearing invariant is N=1 PARITY — a one-bus system must report
// bit-identically to the single-bus closed-loop drivers, materialized and
// streamed, at every width and engine mode — plus arbitration-policy unit
// semantics on hand-built error vectors and a deterministic mixed-width
// 3-bus system whose streamed and materialized runs agree byte for byte.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/experiments.hpp"
#include "dvs/arbitration.hpp"
#include "sys/bus_system.hpp"
#include "test_support.hpp"
#include "trace/source.hpp"
#include "trace/synthetic.hpp"

using namespace razorbus;
using test_support::small_system;

namespace {

// One characterised system per width (the width_test idiom): the tables
// depend only on the per-wire design, so all widths share one cached
// small-config characterization.
const core::DvsBusSystem& system_at(int width) {
  if (width == 32) return small_system();
  static std::vector<std::unique_ptr<core::DvsBusSystem>> systems;
  static std::vector<int> widths;
  for (std::size_t i = 0; i < widths.size(); ++i)
    if (widths[i] == width) return *systems[i];
  interconnect::BusDesign design = interconnect::BusDesign::wide_bus(width);
  design.repeater_size = test_support::sized_paper_bus().repeater_size;
  core::SystemOptions options;
  options.lut_config = test_support::small_lut_config();
  systems.push_back(std::make_unique<core::DvsBusSystem>(design, options));
  widths.push_back(width);
  return *systems.back();
}

trace::SyntheticConfig synth_config(std::size_t cycles, std::uint64_t seed,
                                    int n_bits = 32,
                                    trace::SyntheticStyle style =
                                        trace::SyntheticStyle::uniform) {
  trace::SyntheticConfig cfg;
  cfg.style = style;
  cfg.cycles = cycles;
  cfg.load_rate = 0.5;
  cfg.seed = seed;
  cfg.n_bits = n_bits;
  return cfg;
}

trace::Trace synth(std::size_t cycles, std::uint64_t seed, int n_bits = 32,
                   trace::SyntheticStyle style = trace::SyntheticStyle::uniform) {
  return trace::generate_synthetic(synth_config(cycles, seed, n_bits, style),
                                   "w" + std::to_string(n_bits));
}

// Small window so short parity traces exercise many decisions; series on,
// so the per-window samples are part of the parity check.
core::DvsRunConfig single_config() {
  core::DvsRunConfig config;
  config.controller.window_cycles = 2000;
  config.regulator_delay_cycles = 700;
  config.record_series = true;
  return config;
}

sys::SystemRunConfig system_config(
    const core::DvsRunConfig& single,
    dvs::ArbitrationPolicy policy = dvs::ArbitrationPolicy::max_error) {
  sys::SystemRunConfig config;
  config.controller = single.controller;
  config.regulator_delay_cycles = single.regulator_delay_cycles;
  config.start_supply = single.start_supply;
  config.timing_jitter_sigma = single.timing_jitter_sigma;
  config.record_series = single.record_series;
  config.engine = single.engine;
  config.arbitration = policy;
  return config;
}

void expect_totals_eq(const bus::RunningTotals& a, const bus::RunningTotals& b) {
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.errors, b.errors);
  EXPECT_EQ(a.shadow_failures, b.shadow_failures);
  EXPECT_EQ(a.bus_energy, b.bus_energy);
  EXPECT_EQ(a.overhead_energy, b.overhead_energy);
}

void expect_series_eq(const std::vector<core::WindowSample>& a,
                      const std::vector<core::WindowSample>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].end_cycle, b[i].end_cycle) << "window " << i;
    EXPECT_EQ(a[i].supply, b[i].supply) << "window " << i;
    EXPECT_EQ(a[i].error_rate, b[i].error_rate) << "window " << i;
  }
}

// The N=1 parity contract: system per_bus[0] + system series vs the
// single-bus DvsRunReport, exact equality on every field.
void expect_one_bus_parity(const sys::SystemRunReport& system,
                           const core::DvsRunReport& single) {
  ASSERT_EQ(system.per_bus.size(), 1u);
  const core::DvsRunReport& lane = system.per_bus.front();
  expect_totals_eq(lane.totals, single.totals);
  EXPECT_EQ(lane.baseline_bus_energy, single.baseline_bus_energy);
  EXPECT_EQ(lane.floor_supply, single.floor_supply);
  EXPECT_EQ(lane.average_supply, single.average_supply);
  EXPECT_EQ(system.floor_supply, single.floor_supply);
  EXPECT_EQ(system.average_supply, single.average_supply);
  EXPECT_EQ(system.cycles, single.totals.cycles);
  expect_series_eq(system.series, single.series);
}

void expect_system_reports_eq(const sys::SystemRunReport& a,
                              const sys::SystemRunReport& b) {
  ASSERT_EQ(a.per_bus.size(), b.per_bus.size());
  for (std::size_t l = 0; l < a.per_bus.size(); ++l) {
    expect_totals_eq(a.per_bus[l].totals, b.per_bus[l].totals);
    EXPECT_EQ(a.per_bus[l].baseline_bus_energy, b.per_bus[l].baseline_bus_energy);
    EXPECT_EQ(a.per_bus[l].floor_supply, b.per_bus[l].floor_supply);
    EXPECT_EQ(a.per_bus[l].average_supply, b.per_bus[l].average_supply);
  }
  expect_series_eq(a.series, b.series);
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.windows, b.windows);
  EXPECT_EQ(a.floor_supply, b.floor_supply);
  EXPECT_EQ(a.average_supply, b.average_supply);
  EXPECT_EQ(a.wall_tracking_error, b.wall_tracking_error);
  EXPECT_EQ(a.env_updates, b.env_updates);
}

constexpr std::size_t kCycles = 30000;
constexpr std::size_t kOddBlock = 1537;  // coprime to the window on purpose

}  // namespace

// --------------------------------------------------------- arbitration

TEST(Arbitration, PolicySemanticsOnHandBuiltVectors) {
  const std::vector<std::uint64_t> errors{3, 9, 2};
  const std::vector<double> unit{1.0, 1.0, 1.0};
  EXPECT_EQ(dvs::fuse_window_errors(dvs::ArbitrationPolicy::max_error, errors, unit),
            9u);
  EXPECT_EQ(dvs::fuse_window_errors(dvs::ArbitrationPolicy::sum_error, errors, unit),
            14u);
  EXPECT_EQ(dvs::fuse_window_errors(dvs::ArbitrationPolicy::weighted, errors, unit),
            14u);
  // 3*0.5 + 9*2 + 2*1 = 21.5, rounded to the nearest count.
  EXPECT_EQ(dvs::fuse_window_errors(dvs::ArbitrationPolicy::weighted, errors,
                                    {0.5, 2.0, 1.0}),
            22u);
  // max <= sum always; both bound any unit-mean weighting of this vector.
  EXPECT_LE(dvs::fuse_window_errors(dvs::ArbitrationPolicy::max_error, errors, unit),
            dvs::fuse_window_errors(dvs::ArbitrationPolicy::sum_error, errors, unit));
}

TEST(Arbitration, EveryPolicyIsTheIdentityAtOneLaneUnitWeight) {
  for (const auto policy :
       {dvs::ArbitrationPolicy::max_error, dvs::ArbitrationPolicy::sum_error,
        dvs::ArbitrationPolicy::weighted})
    EXPECT_EQ(dvs::fuse_window_errors(policy, {17}, {1.0}), 17u);
}

TEST(Arbitration, ValidationThrows) {
  EXPECT_THROW(dvs::fuse_window_errors(dvs::ArbitrationPolicy::max_error, {}, {}),
               std::invalid_argument);
  EXPECT_THROW(dvs::fuse_window_errors(dvs::ArbitrationPolicy::weighted, {1, 2}, {1.0}),
               std::invalid_argument);
  EXPECT_THROW(
      dvs::fuse_window_errors(dvs::ArbitrationPolicy::weighted, {1, 2}, {1.0, 0.0}),
      std::invalid_argument);
  EXPECT_THROW(dvs::arbitration_policy_from_string("priority"), std::invalid_argument);
}

TEST(Arbitration, NamesRoundTrip) {
  for (const auto policy :
       {dvs::ArbitrationPolicy::max_error, dvs::ArbitrationPolicy::sum_error,
        dvs::ArbitrationPolicy::weighted})
    EXPECT_EQ(dvs::arbitration_policy_from_string(dvs::to_string(policy)), policy);
}

// --------------------------------------------------------- N=1 parity

TEST(SystemParity, OneBusMatchesSingleBusPerWidth) {
  for (const int width : {16, 32, 64, 128}) {
    const auto& sys_w = system_at(width);
    const trace::Trace trace = synth(kCycles, 40 + static_cast<std::uint64_t>(width),
                                     width);
    const core::DvsRunConfig cfg = single_config();
    const core::DvsRunReport single =
        core::run_closed_loop(sys_w, tech::typical_corner(), trace, cfg);

    const sys::BusSystem system({{&sys_w, 1.0}});
    const sys::SystemRunReport report = system.run_closed_loop(
        tech::typical_corner(), {trace}, system_config(cfg));
    SCOPED_TRACE("width " + std::to_string(width));
    expect_one_bus_parity(report, single);
  }
}

TEST(SystemParity, OneBusMatchesSingleBusEveryArbitrationPolicy) {
  const trace::Trace trace = synth(kCycles, 7);
  const core::DvsRunConfig cfg = single_config();
  const core::DvsRunReport single =
      core::run_closed_loop(small_system(), tech::typical_corner(), trace, cfg);
  const sys::BusSystem system({{&small_system(), 1.0}});
  for (const auto policy :
       {dvs::ArbitrationPolicy::max_error, dvs::ArbitrationPolicy::sum_error,
        dvs::ArbitrationPolicy::weighted}) {
    SCOPED_TRACE(dvs::to_string(policy));
    expect_one_bus_parity(system.run_closed_loop(tech::typical_corner(), {trace},
                                                 system_config(cfg, policy)),
                          single);
  }
}

TEST(SystemParity, OneBusMatchesSingleBusEveryEngineMode) {
  const trace::Trace trace = synth(kCycles, 9);
  for (const auto engine : {bus::EngineMode::bit_parallel, bus::EngineMode::reference}) {
    core::DvsRunConfig cfg = single_config();
    cfg.engine = engine;
    const core::DvsRunReport single =
        core::run_closed_loop(small_system(), tech::typical_corner(), trace, cfg);
    const sys::BusSystem system({{&small_system(), 1.0}});
    SCOPED_TRACE(bus::to_string(engine));
    expect_one_bus_parity(system.run_closed_loop(tech::typical_corner(), {trace},
                                                 system_config(cfg)),
                          single);
  }
}

TEST(SystemParity, OneBusStreamedMatchesSingleBusStreamedWithStats) {
  const auto cfg_src = synth_config(kCycles, 11);
  const auto source = trace::make_synthetic_source(cfg_src, "w32");
  const core::DvsRunConfig cfg = single_config();
  core::StreamConfig stream;
  stream.block_cycles = kOddBlock;

  core::StreamStats single_stats;
  const core::DvsRunReport single = core::run_closed_loop_streamed(
      small_system(), tech::typical_corner(), *source, cfg, stream, &single_stats);

  const sys::BusSystem system({{&small_system(), 1.0}});
  std::vector<std::unique_ptr<trace::TraceSource>> sources;
  sources.push_back(source->clone());
  core::StreamStats system_stats;
  const sys::SystemRunReport report = system.run_closed_loop_streamed(
      tech::typical_corner(), sources, system_config(cfg), stream, &system_stats);

  expect_one_bus_parity(report, single);
  EXPECT_EQ(system_stats.block_cycles, single_stats.block_cycles);
  EXPECT_EQ(system_stats.blocks, single_stats.blocks);
  EXPECT_EQ(system_stats.cycles, single_stats.cycles);
  EXPECT_EQ(system_stats.peak_buffer_words, single_stats.peak_buffer_words);
}

// ---------------------------------------------------- multi-bus semantics

// Two lanes carrying the SAME trace produce identical per-window counts,
// so max fusion — and weighted fusion at weights summing to 1 — see the
// exact single-bus signal: the shared supply trajectory must match the
// one-lane run bit for bit, and both lanes must report identically.
TEST(MultiBus, TwoIdenticalLanesUnderMaxMatchOneLane) {
  const trace::Trace trace = synth(kCycles, 13);
  const core::DvsRunConfig cfg = single_config();
  const core::DvsRunReport single =
      core::run_closed_loop(small_system(), tech::typical_corner(), trace, cfg);

  const sys::BusSystem pair(
      {{&small_system(), 1.0}, {&small_system(), 1.0}});
  const sys::SystemRunReport report = pair.run_closed_loop(
      tech::typical_corner(), {trace, trace}, system_config(cfg));

  ASSERT_EQ(report.per_bus.size(), 2u);
  expect_totals_eq(report.per_bus[0].totals, report.per_bus[1].totals);
  expect_totals_eq(report.per_bus[0].totals, single.totals);
  EXPECT_EQ(report.average_supply, single.average_supply);
  EXPECT_EQ(report.floor_supply, single.floor_supply);
  expect_series_eq(report.series, single.series);
}

TEST(MultiBus, HalfWeightsOnIdenticalLanesMatchOneLane) {
  const trace::Trace trace = synth(kCycles, 13);
  const core::DvsRunConfig cfg = single_config();
  const core::DvsRunReport single =
      core::run_closed_loop(small_system(), tech::typical_corner(), trace, cfg);

  // 0.5*e + 0.5*e = e each window: weighted fusion reduces to identity.
  const sys::BusSystem pair(
      {{&small_system(), 0.5}, {&small_system(), 0.5}});
  const sys::SystemRunReport report = pair.run_closed_loop(
      tech::typical_corner(), {trace, trace},
      system_config(cfg, dvs::ArbitrationPolicy::weighted));
  EXPECT_EQ(report.average_supply, single.average_supply);
  expect_series_eq(report.series, single.series);
}

// The deterministic mixed-width golden: a 16/32/64 system must (a) be
// reproducible run to run, (b) agree byte-for-byte between streamed and
// materialized execution, and (c) satisfy the structural invariants.
TEST(MultiBus, ThreeBusMixedWidthGoldenStreamedEqualsMaterialized) {
  const std::vector<int> widths{16, 32, 64};
  std::vector<sys::BusLane> lanes;
  std::vector<trace::Trace> traces;
  std::vector<std::unique_ptr<trace::TraceSource>> sources;
  const trace::SyntheticStyle styles[] = {trace::SyntheticStyle::uniform,
                                          trace::SyntheticStyle::pointer_like,
                                          trace::SyntheticStyle::sparse};
  for (std::size_t i = 0; i < widths.size(); ++i) {
    lanes.push_back({&system_at(widths[i]), static_cast<double>(i + 1)});
    const auto cfg = synth_config(kCycles, 100 + i, widths[i], styles[i]);
    traces.push_back(
        trace::generate_synthetic(cfg, "w" + std::to_string(widths[i])));
    sources.push_back(
        trace::make_synthetic_source(cfg, "w" + std::to_string(widths[i])));
  }
  const sys::BusSystem system(lanes);
  sys::SystemRunConfig cfg = system_config(single_config(),
                                           dvs::ArbitrationPolicy::weighted);

  const sys::SystemRunReport a =
      system.run_closed_loop(tech::typical_corner(), traces, cfg);
  const sys::SystemRunReport rerun =
      system.run_closed_loop(tech::typical_corner(), traces, cfg);
  expect_system_reports_eq(a, rerun);  // deterministic golden

  core::StreamConfig stream;
  stream.block_cycles = kOddBlock;
  const sys::SystemRunReport b =
      system.run_closed_loop_streamed(tech::typical_corner(), sources, cfg, stream);
  expect_system_reports_eq(a, b);  // stream parity at N=3

  // Structural invariants of the shared rail.
  ASSERT_EQ(a.per_bus.size(), 3u);
  EXPECT_EQ(a.cycles, kCycles);
  EXPECT_EQ(a.windows, kCycles / cfg.controller.window_cycles);
  EXPECT_EQ(a.series.size(), a.windows);
  double max_floor = 0.0;
  for (const auto& lane : lanes)
    max_floor = std::max(max_floor,
                         lane.system->dvs_floor(tech::typical_corner().process));
  EXPECT_EQ(a.floor_supply, max_floor);
  EXPECT_GE(a.average_supply, a.floor_supply);
  EXPECT_LE(a.average_supply, small_system().design().node.vdd_nominal);
  for (const auto& lane_report : a.per_bus) {
    EXPECT_EQ(lane_report.totals.cycles, a.cycles);
    EXPECT_GT(lane_report.baseline_bus_energy, 0.0);
    // Every lane shares the one rail, so per-lane supply aggregates are
    // the system's.
    EXPECT_EQ(lane_report.average_supply, a.average_supply);
    EXPECT_EQ(lane_report.floor_supply, a.floor_supply);
  }
}

// The sum policy sees at least the max policy's count every window; on
// identical lanes it sees exactly twice the single-bus signal, which can
// only hold the supply at or above the max-policy trajectory on average.
TEST(MultiBus, SumPolicyIsAtLeastAsConservativeAsMaxOnIdenticalLanes) {
  const trace::Trace trace = synth(kCycles, 17);
  const core::DvsRunConfig cfg = single_config();
  const sys::BusSystem pair(
      {{&small_system(), 1.0}, {&small_system(), 1.0}});
  const sys::SystemRunReport max_run = pair.run_closed_loop(
      tech::typical_corner(), {trace, trace}, system_config(cfg));
  const sys::SystemRunReport sum_run = pair.run_closed_loop(
      tech::typical_corner(), {trace, trace},
      system_config(cfg, dvs::ArbitrationPolicy::sum_error));
  EXPECT_GE(sum_run.average_supply, max_run.average_supply);
}

// ------------------------------------------------------------- validation

TEST(BusSystem, ConstructorValidation) {
  EXPECT_THROW(sys::BusSystem({}), std::invalid_argument);
  EXPECT_THROW(sys::BusSystem({{nullptr, 1.0}}), std::invalid_argument);
  EXPECT_THROW(sys::BusSystem({{&small_system(), 0.0}}), std::invalid_argument);
}

TEST(BusSystem, RunValidation) {
  const sys::BusSystem system({{&small_system(), 1.0}});
  // Lane/trace count mismatch.
  EXPECT_THROW(system.run_closed_loop(tech::typical_corner(),
                                      {synth(100, 1), synth(100, 2)}),
               std::invalid_argument);
  // A trace wider than its lane (the single-bus width rule, per lane).
  EXPECT_THROW(
      system.run_closed_loop(tech::typical_corner(), {synth(100, 1, 64)}),
      std::invalid_argument);
}

// Lockstep ends at the shortest trace: mismatched lengths simulate
// exactly min(len) cycles on every lane.
TEST(BusSystem, LockstepEndsAtShortestTrace) {
  const sys::BusSystem pair(
      {{&small_system(), 1.0}, {&small_system(), 1.0}});
  const sys::SystemRunReport report = pair.run_closed_loop(
      tech::typical_corner(), {synth(5000, 1), synth(3000, 2)},
      system_config(single_config()));
  EXPECT_EQ(report.cycles, 3000u);
  EXPECT_EQ(report.per_bus[0].totals.cycles, 3000u);
  EXPECT_EQ(report.per_bus[1].totals.cycles, 3000u);
}

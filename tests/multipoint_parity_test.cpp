// Multi-point engine parity (DESIGN.md §13): MultiPointEngine evaluates N
// operating points against one trace in a single pass, and every point's
// totals must be bit-identical to running the single-point bit-parallel
// engine once per point — across widths, with and without jitter, on
// materialized and streamed traces, for SoA rows of any occupancy
// (including the degenerate 1-point batch) and for untabulatable layouts
// (general-kernel path). These hold with ANY util/simd.hpp backend, which
// is why CI runs this suite with RAZORBUS_SIMD=OFF too.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <iterator>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "bus/simulator.hpp"
#include "core/closed_loop.hpp"
#include "core/experiments.hpp"
#include "core/system.hpp"
#include "test_support.hpp"
#include "trace/source.hpp"
#include "trace/synthetic.hpp"

namespace razorbus {
namespace {

// One characterised system per width (same sharing trick as width_test:
// the tables depend only on the per-wire electrical design).
const core::DvsBusSystem& system_at(int width) {
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

trace::SyntheticConfig trace_config(int width, std::size_t cycles, std::uint64_t seed) {
  trace::SyntheticConfig cfg;
  cfg.cycles = cycles;
  cfg.load_rate = 0.5;
  cfg.seed = seed;
  cfg.n_bits = width;
  return cfg;
}

// A point grid exercising the supply axis plus both characterised corners
// and a nonzero IR drop: 9 points, deliberately not a multiple of the
// simd::kChunk row granule (4), so three padding slots ride along.
std::vector<bus::OperatingPoint> point_grid() {
  const tech::PvtCorner slow{tech::ProcessCorner::slow, 100.0, 0.0};
  const tech::PvtCorner typical{tech::ProcessCorner::typical, 100.0, 0.0};
  const tech::PvtCorner drooped{tech::ProcessCorner::typical, 100.0, 0.02};
  std::vector<bus::OperatingPoint> points;
  for (const double v : {1.08, 1.14, 1.20}) {
    points.push_back({v, slow});
    points.push_back({v, typical});
  }
  points.push_back({1.14, drooped});
  points.push_back({1.17, drooped});
  points.push_back({1.20, drooped});
  return points;
}

// `n` >= 2 points spread over the characterised supply range, alternating
// the corners, with an IR-drooped point every third slot where the drooped
// supply stays characterised.
std::vector<bus::OperatingPoint> spread_points(std::size_t n) {
  const tech::PvtCorner slow{tech::ProcessCorner::slow, 100.0, 0.0};
  const tech::PvtCorner typical{tech::ProcessCorner::typical, 100.0, 0.0};
  const tech::PvtCorner drooped{tech::ProcessCorner::typical, 100.0, 0.02};
  std::vector<bus::OperatingPoint> points;
  for (std::size_t j = 0; j < n; ++j) {
    // Whole millivolts: BusSimulator::set_supply ignores a sub-nanovolt move
    // away from the nominal 1.20 V it starts at, so 1.07 + 0.13 (one ULP
    // above 1.20) would price the scalar golden at a different supply.
    const double mv =
        std::round(1070.0 + 130.0 * static_cast<double>(j) / static_cast<double>(n - 1));
    const double v = mv / 1000.0;
    const bool droop = j % 3 == 2 && v >= 1.10;
    points.push_back({v, droop ? drooped : (j % 2 == 0 ? slow : typical)});
  }
  return points;
}

// Golden: the per-point scalar loop the drivers used before batching —
// one BusSimulator per point, same jitter seed, traces back to back.
bus::RunningTotals scalar_totals(const interconnect::BusDesign& design,
                                 const lut::DelayEnergyTable& table,
                                 const bus::OperatingPoint& point, double sigma,
                                 const std::vector<std::vector<BusWord>>& traces) {
  bus::BusSimulator sim(design, table, point.environment);
  if (sigma > 0.0) sim.set_timing_jitter(sigma);
  sim.set_supply(point.supply);
  for (const auto& words : traces) sim.run(words);
  return sim.totals();
}

void expect_totals_identical(const bus::RunningTotals& a, const bus::RunningTotals& b,
                             const std::string& what) {
  EXPECT_EQ(a.cycles, b.cycles) << what;
  EXPECT_EQ(a.errors, b.errors) << what;
  EXPECT_EQ(a.shadow_failures, b.shadow_failures) << what;
  EXPECT_EQ(a.bus_energy, b.bus_energy) << what;
  EXPECT_EQ(a.overhead_energy, b.overhead_energy) << what;
}

void expect_batch_matches_scalar(const interconnect::BusDesign& design,
                                 const lut::DelayEnergyTable& table,
                                 const std::vector<bus::OperatingPoint>& points,
                                 double sigma,
                                 const std::vector<std::vector<BusWord>>& traces,
                                 const std::string& what) {
  bus::MultiPointEngine engine(design, table, points, sigma);
  for (const auto& words : traces) engine.run(words);
  for (std::size_t p = 0; p < points.size(); ++p) {
    expect_totals_identical(
        engine.totals(p), scalar_totals(design, table, points[p], sigma, traces),
        what + " point " + std::to_string(p) + " @" + std::to_string(points[p].supply));
  }
}

// Non-idle cycles on which one scalar simulator saw every arrival <= 0:
// held captures, after which its receivers are out of sync with the bus.
std::uint64_t held_cycles(const interconnect::BusDesign& design,
                          const lut::DelayEnergyTable& table,
                          const bus::OperatingPoint& point, double sigma,
                          const std::vector<BusWord>& words) {
  bus::BusSimulator sim(design, table, point.environment);
  sim.set_timing_jitter(sigma);
  sim.set_supply(point.supply);
  std::uint64_t held = 0;
  BusWord prev;
  for (const BusWord& word : words) {
    if (sim.step(word).worst_delay <= 0.0 && word != prev) ++held;
    prev = word;
  }
  return held;
}

TEST(MultiPoint, MatchesScalarAcrossWidthsAndJitter) {
  // 300 ps is comparable to the class delays: it reaches the held verdict
  // and the jitter kernel on desynced receivers.
  constexpr double kHeldSigma = 300e-12;
  for (const int width : {16, 32, 64, 128}) {
    const auto& system = system_at(width);
    const trace::Trace trace =
        trace::generate_synthetic(trace_config(width, 1500, 0x5eedu + width), "mp");
    for (const double sigma : {0.0, 5e-12, kHeldSigma}) {
      expect_batch_matches_scalar(
          system.design(), system.table(), point_grid(), sigma, {trace.words},
          "width " + std::to_string(width) + " sigma " + std::to_string(sigma));
    }
    EXPECT_GT(held_cycles(system.design(), system.table(), point_grid().front(),
                          kHeldSigma, trace.words),
              0u)
        << "width " << width;
  }
}

// The drivers run several traces back to back through one engine (no reset
// between them, receiver state carries over) — exactly like the scalar
// per-point simulators do.
TEST(MultiPoint, AccumulatesAcrossTraces) {
  const auto& system = system_at(32);
  const trace::Trace a = trace::generate_synthetic(trace_config(32, 900, 11), "a");
  const trace::Trace b = trace::generate_synthetic(trace_config(32, 700, 12), "b");
  expect_batch_matches_scalar(system.design(), system.table(), point_grid(), 0.0,
                              {a.words, b.words}, "two traces");
}

// Streamed input: draining a TraceSource through core::StreamCursor must be
// bit-identical to one run over the materialized words (any block split),
// and both must match the scalar loop.
TEST(MultiPoint, StreamedMatchesMaterialized) {
  for (const int width : {32, 64}) {
    const auto& system = system_at(width);
    const auto cfg = trace_config(width, 2000, 0xbeefu + width);
    const trace::Trace materialized = trace::generate_synthetic(cfg, "mp_stream");
    for (const double sigma : {0.0, 5e-12}) {
      const std::vector<bus::OperatingPoint> points = point_grid();

      bus::MultiPointEngine batch(system.design(), system.table(), points, sigma);
      batch.run(materialized.words);

      const auto source = trace::make_synthetic_source(cfg, "mp_stream");
      bus::MultiPointEngine streamed(system.design(), system.table(), points, sigma);
      core::StreamCursor cursor(*source, 256);
      cursor.drain([&](const BusWord* words, std::size_t n) { streamed.run(words, n); });

      for (std::size_t p = 0; p < points.size(); ++p) {
        const std::string what = "width " + std::to_string(width) + " sigma " +
                                 std::to_string(sigma) + " point " + std::to_string(p);
        expect_totals_identical(streamed.totals(p), batch.totals(p), what);
        expect_totals_identical(batch.totals(p),
                                scalar_totals(system.design(), system.table(),
                                              points[p], sigma, {materialized.words}),
                                what + " [vs scalar]");
      }
    }
  }
}

// Batch sizes that hit every chunk tail of the fused kernels (3, 5, 9 and
// 33 leave 1, 3, 3 and 3 padding slots; 24 fills its chunks): each batch's
// every point must match its own BusSimulator bit for bit.
TEST(MultiPoint, EveryChunkTailMatchesScalar) {
  const auto& system = system_at(32);
  const trace::Trace trace =
      trace::generate_synthetic(trace_config(32, 1500, 41), "tails");
  for (const std::size_t n : {3u, 5u, 9u, 24u, 33u}) {
    for (const double sigma : {0.0, 5e-12}) {
      const std::string what =
          std::to_string(n) + " points sigma " + std::to_string(sigma);
      expect_batch_matches_scalar(system.design(), system.table(), spread_points(n),
                                  sigma, {trace.words}, what);
    }
  }
}

// A sparse trace is mostly long idle runs, each one idle_cycles call. Split
// the trace into odd-sized spans so runs straddle run() calls: the totals
// must still match one scalar simulator per point.
TEST(MultiPoint, IdleRunsSplitAcrossCallsMatchScalar) {
  const auto& system = system_at(32);
  auto cfg = trace_config(32, 6000, 43);
  cfg.load_rate = 0.05;
  const std::vector<BusWord> words = trace::generate_synthetic(cfg, "sparse").words;
  const std::size_t spans[] = {1, 7, 13, 97, 3, 211, 29, 5};

  std::size_t straddled = 0;  // span boundaries inside an idle run
  for (const double sigma : {0.0, 5e-12}) {
    const std::vector<bus::OperatingPoint> points = spread_points(9);
    bus::MultiPointEngine engine(system.design(), system.table(), points, sigma);
    std::size_t at = 0;
    for (std::size_t k = 0; at < words.size(); ++k) {
      const std::size_t n = std::min(spans[k % std::size(spans)], words.size() - at);
      engine.run(words.data() + at, n);
      at += n;
      if (at >= 2 && at < words.size() && words[at] == words[at - 1] &&
          words[at - 1] == words[at - 2])
        ++straddled;
    }
    for (std::size_t p = 0; p < points.size(); ++p)
      expect_totals_identical(
          engine.totals(p),
          scalar_totals(system.design(), system.table(), points[p], sigma, {words}),
          "sparse sigma " + std::to_string(sigma) + " point " + std::to_string(p));
  }
  EXPECT_GT(straddled, 0u);
}

// Degenerate 1-point batch: the SoA machinery with a single occupied slot.
TEST(MultiPoint, SinglePointBatchMatchesScalar) {
  const auto& system = system_at(32);
  const trace::Trace trace = trace::generate_synthetic(trace_config(32, 1200, 21), "one");
  const std::vector<bus::OperatingPoint> one = {
      {1.10, tech::PvtCorner{tech::ProcessCorner::slow, 100.0, 0.0}}};
  for (const double sigma : {0.0, 5e-12})
    expect_batch_matches_scalar(system.design(), system.table(), one, sigma,
                                {trace.words}, "1-point sigma " + std::to_string(sigma));
}

// A shield group wider than the tabulatable maximum forces the per-wire
// general kernel in both engines; parity must hold there too.
TEST(MultiPoint, GeneralKernelParityOnUntabulatableLayout) {
  interconnect::BusDesign design = interconnect::BusDesign::wide_bus(32);
  design.shield_group = 7;  // > GroupLayout::kMaxTableWidth
  design.repeater_size = test_support::sized_paper_bus().repeater_size;
  core::SystemOptions options;
  options.lut_config = test_support::small_lut_config();
  const core::DvsBusSystem system(design, options);
  const trace::Trace trace = trace::generate_synthetic(trace_config(32, 800, 31), "wide");
  for (const double sigma : {0.0, 5e-12})
    expect_batch_matches_scalar(system.design(), system.table(), point_grid(), sigma,
                                {trace.words},
                                "untabulatable sigma " + std::to_string(sigma));
}

TEST(MultiPoint, RejectsBadInputs) {
  const auto& system = system_at(32);
  EXPECT_THROW(bus::MultiPointEngine(system.design(), system.table(), {}),
               std::invalid_argument);
  EXPECT_THROW(bus::MultiPointEngine(
                   system.design(), system.table(),
                   {{-1.0, tech::PvtCorner{tech::ProcessCorner::typical, 100.0, 0.0}}}),
               std::invalid_argument);
  EXPECT_THROW(bus::MultiPointEngine(
                   system.design(), system.table(),
                   {{1.14, tech::PvtCorner{tech::ProcessCorner::typical, 100.0, 0.0}}},
                   -1e-12),
               std::invalid_argument);
}

// "simd" is a legacy spelling of bit_parallel: it parses to it, and no
// mode prints it.
TEST(MultiPoint, SimdEngineNameParsesToBitParallel) {
  EXPECT_EQ(bus::engine_mode_from_string("simd"), bus::EngineMode::bit_parallel);
  EXPECT_EQ(bus::to_string(bus::engine_mode_from_string("simd")), "bit_parallel");
  EXPECT_EQ(bus::engine_mode_from_string("reference"), bus::EngineMode::reference);
  EXPECT_THROW(bus::engine_mode_from_string("vector"), std::invalid_argument);
}

// ------------------------------------------------------------ driver parity
// The static sweep runs every supply through one MultiPointEngine pass; the
// reference engine keeps one BusSimulator shard per supply as the golden.
// Every REPORT field must agree bit for bit.

void expect_sweeps_identical(const core::StaticSweepResult& a,
                             const core::StaticSweepResult& b,
                             const std::string& what) {
  EXPECT_EQ(a.baseline_bus_energy, b.baseline_bus_energy) << what;
  EXPECT_EQ(a.floor_supply, b.floor_supply) << what;
  ASSERT_EQ(a.points.size(), b.points.size()) << what;
  for (std::size_t i = 0; i < a.points.size(); ++i) {
    const std::string at = what + " point " + std::to_string(i);
    EXPECT_EQ(a.points[i].supply, b.points[i].supply) << at;
    EXPECT_EQ(a.points[i].error_rate, b.points[i].error_rate) << at;
    EXPECT_EQ(a.points[i].bus_energy, b.points[i].bus_energy) << at;
    EXPECT_EQ(a.points[i].total_energy, b.points[i].total_energy) << at;
    EXPECT_EQ(a.points[i].norm_bus_energy, b.points[i].norm_bus_energy) << at;
    EXPECT_EQ(a.points[i].norm_total_energy, b.points[i].norm_total_energy) << at;
  }
}

TEST(MultiPointDrivers, BatchedSweepMatchesReferenceEngine) {
  const auto& system = system_at(32);
  const tech::PvtCorner env{tech::ProcessCorner::typical, 100.0, 0.0};
  const std::vector<trace::Trace> traces = {
      trace::generate_synthetic(trace_config(32, 1200, 61), "sa"),
      trace::generate_synthetic(trace_config(32, 800, 62), "sb")};
  const auto suite =
      trace::concatenate_sources(trace::make_trace_view_sources(traces), "suite");
  for (const double sigma : {0.0, 5e-12}) {
    const auto reference = core::static_voltage_sweep_streamed(
        system, env, *suite, sigma, bus::EngineMode::reference);
    const auto batched = core::static_voltage_sweep_streamed(system, env, *suite, sigma);
    expect_sweeps_identical(reference, batched, "sweep sigma " + std::to_string(sigma));
  }
}

TEST(MultiPointDrivers, StreamedBatchedSweepMatchesReferenceAndMaterialized) {
  const auto& system = system_at(32);
  const tech::PvtCorner env{tech::ProcessCorner::typical, 100.0, 0.0};
  const auto cfg = trace_config(32, 2000, 63);
  const trace::Trace materialized = trace::generate_synthetic(cfg, "ss");
  const auto source = trace::make_synthetic_source(cfg, "ss");
  core::StreamConfig stream;
  stream.block_cycles = 512;

  for (const double sigma : {0.0, 5e-12}) {
    const std::string what = " sigma " + std::to_string(sigma);
    core::StreamStats reference_stats, batched_stats;
    const auto reference = core::static_voltage_sweep_streamed(
        system, env, *source, sigma, bus::EngineMode::reference, stream, &reference_stats);
    const auto batched = core::static_voltage_sweep_streamed(
        system, env, *source, sigma, bus::EngineMode::bit_parallel, stream, &batched_stats);
    const auto batched_materialized = core::static_voltage_sweep_streamed(
        system, env, *trace::make_trace_view_source(materialized), sigma);
    expect_sweeps_identical(reference, batched, "streamed reference vs batched" + what);
    expect_sweeps_identical(batched, batched_materialized,
                            "batched streamed vs materialized" + what);
    // One drain for the whole grid; the reference drains once per supply.
    EXPECT_EQ(batched_stats.cycles, cfg.cycles) << what;
    EXPECT_EQ(batched_stats.blocks, 4u) << what;
    EXPECT_EQ(reference_stats.cycles, cfg.cycles * reference.points.size()) << what;
  }
}

}  // namespace
}  // namespace razorbus

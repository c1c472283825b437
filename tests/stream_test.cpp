// Streaming trace pipeline (DESIGN.md §12): producers must emit the exact
// word sequence of their materialized twins, and every streamed experiment
// driver must report BIT-identically to the materialized golden path —
// equal integer counts and exactly equal doubles, for every campaign job
// kind (closed_loop under each controller, static_sweep, consecutive runs,
// PVT sampling) — while touching only block-bounded trace memory.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <iterator>
#include <string>
#include <vector>

#include "bus/businvert.hpp"
#include "core/closed_loop.hpp"
#include "core/experiments.hpp"
#include "cpu/kernels.hpp"
#include "dvs/oracle.hpp"
#include "test_support.hpp"
#include "trace/io.hpp"
#include "trace/source.hpp"
#include "trace/synthetic.hpp"

using namespace razorbus;
using test_support::small_system;

namespace {

trace::SyntheticConfig synth_config(std::size_t cycles, std::uint64_t seed,
                                    trace::SyntheticStyle style =
                                        trace::SyntheticStyle::uniform,
                                    int n_bits = 32) {
  trace::SyntheticConfig cfg;
  cfg.style = style;
  cfg.cycles = cycles;
  cfg.seed = seed;
  cfg.n_bits = n_bits;
  return cfg;
}

// Drain `source` through deliberately awkward (prime-sized) blocks and
// require the exact word sequence of `expected`.
void expect_stream_equals(const trace::Trace& expected, trace::TraceSource& source,
                          std::size_t block = 997) {
  EXPECT_EQ(source.n_bits(), expected.n_bits);
  EXPECT_EQ(source.name(), expected.name);
  const trace::Trace streamed = trace::materialize(source, block);
  ASSERT_EQ(streamed.words.size(), expected.words.size());
  for (std::size_t i = 0; i < expected.words.size(); ++i)
    ASSERT_EQ(streamed.words[i], expected.words[i]) << "word " << i;
  // Exhausted for good: the contract says 0 forever after the end.
  BusWord scratch;
  EXPECT_EQ(source.next_block(&scratch, 1), 0u);
}

void expect_totals_eq(const bus::RunningTotals& a, const bus::RunningTotals& b) {
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.errors, b.errors);
  EXPECT_EQ(a.shadow_failures, b.shadow_failures);
  EXPECT_EQ(a.bus_energy, b.bus_energy);
  EXPECT_EQ(a.overhead_energy, b.overhead_energy);
}

void expect_report_eq(const core::DvsRunReport& a, const core::DvsRunReport& b) {
  expect_totals_eq(a.totals, b.totals);
  EXPECT_EQ(a.baseline_bus_energy, b.baseline_bus_energy);
  EXPECT_EQ(a.floor_supply, b.floor_supply);
  EXPECT_EQ(a.average_supply, b.average_supply);
  ASSERT_EQ(a.series.size(), b.series.size());
  for (std::size_t i = 0; i < a.series.size(); ++i) {
    EXPECT_EQ(a.series[i].end_cycle, b.series[i].end_cycle);
    EXPECT_EQ(a.series[i].supply, b.series[i].supply);
    EXPECT_EQ(a.series[i].error_rate, b.series[i].error_rate);
  }
}

// Small controller window so short parity traces exercise many decisions,
// and a block size that is deliberately coprime to it.
core::DvsRunConfig parity_config() {
  core::DvsRunConfig config;
  config.controller.window_cycles = 2000;
  config.regulator_delay_cycles = 700;
  return config;
}

constexpr std::size_t kOddBlock = 1537;

// Ends a drained source's stream check: calls after the end keep returning
// 0, and a clone taken then is still a fresh replay of the whole stream.
void expect_ended_and_replayable(const trace::Trace& expected, trace::TraceSource& source,
                                 std::size_t block) {
  BusWord scratch[8];
  for (int call = 0; call < 3; ++call) EXPECT_EQ(source.next_block(scratch, 8), 0u);
  const auto fresh = source.clone();
  expect_stream_equals(expected, *fresh, block);
}

}  // namespace

// ------------------------------------------------------------- producers

TEST(TraceSource, SyntheticMatchesGenerator) {
  for (const auto style :
       {trace::SyntheticStyle::uniform, trace::SyntheticStyle::random_walk,
        trace::SyntheticStyle::fp_like, trace::SyntheticStyle::pointer_like,
        trace::SyntheticStyle::sparse, trace::SyntheticStyle::worst_case}) {
    for (const int n_bits : {32, 64}) {
      const auto cfg = synth_config(5000, 7, style, n_bits);
      const trace::Trace expected = trace::generate_synthetic(cfg, "t");
      const auto source = trace::make_synthetic_source(cfg, "t");
      ASSERT_TRUE(source->length().has_value());
      EXPECT_EQ(*source->length(), 5000u);
      expect_stream_equals(expected, *source);
    }
  }
}

TEST(TraceSource, CloneRestartsFromTheBeginning) {
  const auto cfg = synth_config(4000, 11);
  const trace::Trace expected = trace::generate_synthetic(cfg, "t");
  const auto source = trace::make_synthetic_source(cfg, "t");
  std::vector<BusWord> scratch(1234);
  ASSERT_GT(source->next_block(scratch.data(), scratch.size()), 0u);
  const auto fresh = source->clone();
  expect_stream_equals(expected, *fresh);
}

TEST(TraceSource, MaterializedAndViewSources) {
  const trace::Trace t = trace::generate_synthetic(synth_config(3000, 3), "t");
  const auto owning = trace::make_trace_source(t);
  expect_stream_equals(t, *owning);
  const auto view = trace::make_trace_view_source(t);
  expect_stream_equals(t, *view);
}

TEST(TraceSource, ConcatenateMatchesMaterializedConcatenate) {
  const trace::Trace a = trace::generate_synthetic(synth_config(2500, 1), "a");
  const trace::Trace b = trace::generate_synthetic(synth_config(1700, 2), "b");
  const trace::Trace expected = trace::concatenate({a, b}, "ab");
  std::vector<std::unique_ptr<trace::TraceSource>> parts;
  parts.push_back(trace::make_trace_source(a));
  parts.push_back(trace::make_trace_source(b));
  auto source = trace::concatenate_sources(std::move(parts), "ab");
  ASSERT_TRUE(source->length().has_value());
  EXPECT_EQ(*source->length(), expected.words.size());
  expect_stream_equals(expected, *source);
}

TEST(TraceSource, ConcatenateRejectsMixedWidths) {
  std::vector<std::unique_ptr<trace::TraceSource>> parts;
  parts.push_back(trace::make_synthetic_source(synth_config(10, 1), "narrow"));
  parts.push_back(trace::make_synthetic_source(
      synth_config(10, 1, trace::SyntheticStyle::uniform, 64), "wide"));
  EXPECT_THROW(trace::concatenate_sources(std::move(parts), "mixed"),
               std::invalid_argument);
}

TEST(TraceSource, ShortBlocksAtPartBoundariesAreNotEof) {
  std::vector<std::unique_ptr<trace::TraceSource>> parts;
  parts.push_back(trace::make_synthetic_source(synth_config(10, 1), "a"));
  parts.push_back(trace::make_synthetic_source(synth_config(10, 2), "b"));
  auto source = trace::concatenate_sources(std::move(parts), "ab");
  std::vector<BusWord> block(64);
  EXPECT_EQ(source->next_block(block.data(), block.size()), 10u);  // short, not EOF
  EXPECT_EQ(source->next_block(block.data(), block.size()), 10u);
  EXPECT_EQ(source->next_block(block.data(), block.size()), 0u);
}

TEST(TraceSource, WidenMatchesIncludingZeroPaddedTail) {
  // 4099 is not a multiple of 2 or 4: the tail word must be zero-padded
  // exactly like trace::widen's.
  const trace::Trace narrow = trace::generate_synthetic(synth_config(4099, 5), "n");
  for (const int factor : {2, 4}) {
    const trace::Trace expected = trace::widen(narrow, factor);
    auto source = trace::widen_source(trace::make_trace_source(narrow), factor);
    ASSERT_TRUE(source->length().has_value());
    EXPECT_EQ(*source->length(), expected.words.size());
    expect_stream_equals(expected, *source, 61);
  }
}

// The mini-CPU source builds its machine on the first block and drops it at
// the end; neither is visible in the word sequence, at any block size.
TEST(TraceSource, BenchmarkStreamMatchesCapture) {
  const std::size_t blocks[] = {1, 3, 7, 31, 61, 127, 509, 773, 997, 2047};
  const std::vector<cpu::Benchmark> suite = cpu::spec2000_suite();
  ASSERT_EQ(suite.size(), std::size(blocks));
  for (std::size_t k = 0; k < suite.size(); ++k) {
    SCOPED_TRACE(suite[k].name);
    const trace::Trace expected = suite[k].capture(3000);
    const auto source = suite[k].stream(3000);
    expect_stream_equals(expected, *source, blocks[k]);
    expect_ended_and_replayable(expected, *source, blocks[(k + 1) % suite.size()]);
  }
}

// A kernel that HALTs before its cycle budget truncates the stream exactly
// where capture() truncates the trace.
TEST(TraceSource, BenchmarkStreamTruncatesAtHaltLikeCapture) {
  cpu::ProgramBuilder b("halts");
  b.loadi(1, 3).load(2, 1, 0).addi(1, 1, 1).load(2, 1, 0).nop().load(2, 1, 5).halt();
  cpu::Benchmark bench;
  bench.name = "halts";
  bench.program = b.build();
  bench.initialize = [](cpu::Machine& m) {
    for (std::uint32_t i = 0; i < 16; ++i) m.set_mem(i, 0x01010101u * i + 7u);
  };
  const trace::Trace expected = bench.capture(100, 16);
  ASSERT_GT(expected.words.size(), 0u);
  ASSERT_LT(expected.words.size(), 100u);
  for (const std::size_t block : {1, 2, 3, 5, 64}) {
    SCOPED_TRACE(block);
    const auto source = bench.stream(100, 16);
    expect_stream_equals(expected, *source, block);
    expect_ended_and_replayable(expected, *source, block);
  }
}

TEST(TraceSource, FileStreamMatchesLoad) {
  for (const int n_bits : {32, 128}) {  // v1 and v2 on-disk formats
    const trace::Trace t = trace::generate_synthetic(
        synth_config(3000, 9, trace::SyntheticStyle::random_walk, n_bits), "archived");
    const std::string path =
        (std::filesystem::temp_directory_path() /
         ("stream_test_" + std::to_string(n_bits) + ".rbtrace"))
            .string();
    trace::save_trace_file(t, path);
    auto source = trace::open_trace_stream(path);
    ASSERT_TRUE(source->length().has_value());
    EXPECT_EQ(*source->length(), t.words.size());
    expect_stream_equals(t, *source, 499);
    const auto reopened = source->clone();
    expect_stream_equals(t, *reopened, 1001);
    std::filesystem::remove(path);
  }
}

TEST(TraceSource, FileStreamRejectsGarbage) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "stream_test_garbage.rbtrace").string();
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fputs("definitely not a trace", f);
  std::fclose(f);
  EXPECT_THROW(trace::open_trace_stream(path), std::runtime_error);
  std::filesystem::remove(path);
}

TEST(TraceSource, BusInvertStreamMatchesEncoder) {
  const trace::Trace raw = trace::generate_synthetic(synth_config(4000, 13), "raw");
  const trace::Trace expected = bus::bus_invert_encode(raw).encoded;
  auto source = bus::bus_invert_encode_source(trace::make_trace_source(raw));
  expect_stream_equals(expected, *source, 311);
}

// ------------------------------------------------------------- simulator

TEST(StreamSimulator, RunSourceMatchesRunWords) {
  const trace::Trace t = trace::generate_synthetic(synth_config(20000, 21), "t");
  const auto& system = small_system();
  const auto corner = tech::typical_corner();

  bus::BusSimulator on_words = system.make_simulator(corner);
  const bus::RunningTotals a = on_words.run(t.words);

  bus::BusSimulator on_stream = system.make_simulator(corner);
  auto source = trace::make_trace_view_source(t);
  core::StreamCursor cursor(*source, kOddBlock);
  cursor.drain([&](const BusWord* words, std::size_t n) { on_stream.run(words, n); });
  expect_totals_eq(a, on_stream.totals());
}

TEST(StreamSimulator, RejectsStreamsWiderThanTheBus) {
  const auto wide = trace::make_synthetic_source(
      synth_config(10, 1, trace::SyntheticStyle::uniform, 64), "wide");
  EXPECT_THROW(core::check_width(small_system(), *wide), std::invalid_argument);
}

// ------------------------------------- experiment drivers (parity suite)

TEST(StreamParity, ClosedLoopThresholdBitIdentical) {
  const trace::Trace t = trace::generate_synthetic(synth_config(60000, 42), "t");
  const auto& system = small_system();
  const auto corner = tech::typical_corner();
  core::DvsRunConfig config = parity_config();
  config.record_series = true;

  const core::DvsRunReport golden = core::run_closed_loop(system, corner, t, config);
  for (const std::size_t block : {kOddBlock, trace::kDefaultBlockCycles}) {
    const auto source = trace::make_trace_view_source(t);
    core::StreamStats stats;
    const core::DvsRunReport streamed = core::run_closed_loop_streamed(
        system, corner, *source, config, core::StreamConfig{block}, &stats);
    expect_report_eq(golden, streamed);
    EXPECT_EQ(stats.cycles, t.words.size());
    EXPECT_EQ(stats.peak_buffer_words, block);
  }
}

TEST(StreamParity, ClosedLoopProportionalBitIdentical) {
  const trace::Trace t = trace::generate_synthetic(synth_config(50000, 43), "t");
  const auto& system = small_system();
  const auto corner = tech::typical_corner();
  core::DvsRunConfig config;
  config.proportional.emplace().window_cycles = 2000;
  config.regulator_delay_cycles = 700;

  const core::DvsRunReport golden = core::run_closed_loop(system, corner, t, config);
  const auto source = trace::make_trace_view_source(t);
  const core::DvsRunReport streamed = core::run_closed_loop_streamed(
      system, corner, *source, config, core::StreamConfig{kOddBlock});
  expect_report_eq(golden, streamed);
}

TEST(StreamParity, FixedVsBitIdenticalWithJitter) {
  const trace::Trace t = trace::generate_synthetic(synth_config(30000, 44), "t");
  const auto& system = small_system();
  const auto corner = tech::typical_corner();
  const double jitter = 3e-12;

  const core::DvsRunReport golden =
      core::run_fixed_vs(system, corner, t, bus::EngineMode::bit_parallel, jitter);
  const auto source = trace::make_trace_view_source(t);
  const core::DvsRunReport streamed = core::run_fixed_vs_streamed(
      system, corner, *source, bus::EngineMode::bit_parallel, jitter,
      core::StreamConfig{kOddBlock});
  expect_report_eq(golden, streamed);
}

TEST(StreamParity, ConsecutiveRunBitIdentical) {
  const std::vector<trace::Trace> traces = {
      trace::generate_synthetic(synth_config(25000, 45), "a"),
      trace::generate_synthetic(synth_config(31000, 46), "b")};
  const auto& system = small_system();
  const auto corner = tech::typical_corner();
  core::DvsRunConfig config = parity_config();
  config.record_series = true;

  const core::ConsecutiveRunReport golden =
      core::run_consecutive(system, corner, traces, config);
  std::vector<std::unique_ptr<trace::TraceSource>> sources;
  for (const auto& t : traces) sources.push_back(trace::make_trace_view_source(t));
  const core::ConsecutiveRunReport streamed = core::run_consecutive_streamed(
      system, corner, sources, config, core::StreamConfig{kOddBlock});

  ASSERT_EQ(golden.per_trace.size(), streamed.per_trace.size());
  for (std::size_t i = 0; i < golden.per_trace.size(); ++i)
    expect_report_eq(golden.per_trace[i], streamed.per_trace[i]);
  ASSERT_EQ(golden.series.size(), streamed.series.size());
  for (std::size_t i = 0; i < golden.series.size(); ++i) {
    EXPECT_EQ(golden.series[i].end_cycle, streamed.series[i].end_cycle);
    EXPECT_EQ(golden.series[i].supply, streamed.series[i].supply);
    EXPECT_EQ(golden.series[i].error_rate, streamed.series[i].error_rate);
  }
}

TEST(StreamParity, StaticSweepBitIdentical) {
  const std::vector<trace::Trace> traces = {
      trace::generate_synthetic(synth_config(12000, 47), "a"),
      trace::generate_synthetic(synth_config(9000, 48), "b")};
  const auto& system = small_system();
  const auto corner = tech::typical_corner();

  const core::StaticSweepResult golden =
      core::static_voltage_sweep(system, corner, traces);
  // The materialized sweep runs the traces back to back through one
  // simulator, so the streamed equivalent is their concatenation.
  std::vector<std::unique_ptr<trace::TraceSource>> parts;
  for (const auto& t : traces) parts.push_back(trace::make_trace_view_source(t));
  const auto source = trace::concatenate_sources(std::move(parts), "ab");
  core::StreamStats stats;
  const core::StaticSweepResult streamed = core::static_voltage_sweep_streamed(
      system, corner, *source, 0.0, bus::EngineMode::bit_parallel,
      core::StreamConfig{kOddBlock}, &stats);

  EXPECT_EQ(golden.baseline_bus_energy, streamed.baseline_bus_energy);
  EXPECT_EQ(golden.floor_supply, streamed.floor_supply);
  ASSERT_EQ(golden.points.size(), streamed.points.size());
  for (std::size_t i = 0; i < golden.points.size(); ++i) {
    EXPECT_EQ(golden.points[i].supply, streamed.points[i].supply);
    EXPECT_EQ(golden.points[i].error_rate, streamed.points[i].error_rate);
    EXPECT_EQ(golden.points[i].bus_energy, streamed.points[i].bus_energy);
    EXPECT_EQ(golden.points[i].total_energy, streamed.points[i].total_energy);
    EXPECT_EQ(golden.points[i].norm_bus_energy, streamed.points[i].norm_bus_energy);
    EXPECT_EQ(golden.points[i].norm_total_energy, streamed.points[i].norm_total_energy);
  }
  // One drain of the whole stream serves every supply.
  EXPECT_EQ(stats.cycles, traces[0].words.size() + traces[1].words.size());
}

TEST(StreamParity, SuiteDriversBitIdentical) {
  const std::vector<trace::Trace> traces = {
      trace::generate_synthetic(synth_config(22000, 49), "a"),
      trace::generate_synthetic(synth_config(18000, 50), "b")};
  const auto& system = small_system();
  const auto corner = tech::typical_corner();
  const core::DvsRunConfig config = parity_config();

  std::vector<std::unique_ptr<trace::TraceSource>> sources;
  for (const auto& t : traces) sources.push_back(trace::make_trace_view_source(t));

  const auto golden_cl = core::run_closed_loop_suite(system, corner, traces, config);
  const auto streamed_cl = core::run_closed_loop_suite_streamed(
      system, corner, sources, config, core::StreamConfig{kOddBlock});
  ASSERT_EQ(golden_cl.size(), streamed_cl.size());
  for (std::size_t i = 0; i < golden_cl.size(); ++i)
    expect_report_eq(golden_cl[i], streamed_cl[i]);

  const auto golden_fv = core::run_fixed_vs_suite(system, corner, traces);
  const auto streamed_fv = core::run_fixed_vs_suite_streamed(
      system, corner, sources, bus::EngineMode::bit_parallel, 0.0,
      core::StreamConfig{kOddBlock});
  ASSERT_EQ(golden_fv.size(), streamed_fv.size());
  for (std::size_t i = 0; i < golden_fv.size(); ++i)
    expect_report_eq(golden_fv[i], streamed_fv[i]);
}

TEST(StreamParity, PvtSamplingBitIdentical) {
  const trace::Trace t = trace::generate_synthetic(synth_config(20000, 51), "t");
  // Monte-Carlo corners span both characterised temperatures and all three
  // process corners: needs the full paper characterization (disk-cached).
  const auto& system = test_support::paper_system();
  core::PvtSampleConfig config;
  config.samples = 3;
  config.run = parity_config();

  const core::PvtSampleResult golden = core::pvt_sample_gains(system, t, config);
  const auto source = trace::make_trace_view_source(t);
  const core::PvtSampleResult streamed = core::pvt_sample_gains_streamed(
      system, *source, config, core::StreamConfig{kOddBlock});

  ASSERT_EQ(golden.samples.size(), streamed.samples.size());
  for (std::size_t i = 0; i < golden.samples.size(); ++i) {
    EXPECT_EQ(golden.samples[i].corner.process, streamed.samples[i].corner.process);
    EXPECT_EQ(golden.samples[i].corner.temp_c, streamed.samples[i].corner.temp_c);
    EXPECT_EQ(golden.samples[i].corner.ir_drop_fraction,
              streamed.samples[i].corner.ir_drop_fraction);
    expect_report_eq(golden.samples[i].report, streamed.samples[i].report);
  }
  EXPECT_EQ(golden.gain_stats.mean(), streamed.gain_stats.mean());
  EXPECT_EQ(golden.err_stats.mean(), streamed.err_stats.mean());
}

TEST(StreamParity, OracleSelectMatches) {
  const trace::Trace t = trace::generate_synthetic(synth_config(30000, 52), "t");
  const auto& system = small_system();
  const auto corner = tech::typical_corner();
  dvs::OracleSelector oracle(system.design(), system.table(), corner);
  dvs::OracleConfig config;
  config.window_cycles = 2500;
  config.target_error_rate = 0.02;

  const dvs::OracleResult golden = oracle.select(t, config);
  auto source = trace::make_trace_view_source(t);
  const dvs::OracleResult streamed = oracle.select(*source, config, kOddBlock);

  EXPECT_EQ(golden.achieved_error_rate, streamed.achieved_error_rate);
  ASSERT_EQ(golden.window_voltages.size(), streamed.window_voltages.size());
  for (std::size_t i = 0; i < golden.window_voltages.size(); ++i)
    EXPECT_EQ(golden.window_voltages[i], streamed.window_voltages[i]);
}

// ---------------------------------------------------- memory accounting

TEST(StreamAccounting, TraceMemoryIsBlockBounded) {
  // A run 100x longer than the block must never grow the trace buffer
  // beyond the configured block: this is the structural guarantee that
  // lets `cycles` exceed materializable length.
  const std::size_t block = 4096;
  const std::size_t cycles = 100 * block + 17;
  const auto source =
      trace::make_synthetic_source(synth_config(cycles, 53), "long");
  const auto& system = small_system();
  core::StreamStats stats;
  const core::DvsRunReport report = core::run_closed_loop_streamed(
      system, tech::typical_corner(), *source, parity_config(),
      core::StreamConfig{block}, &stats);
  EXPECT_EQ(report.totals.cycles, cycles);
  EXPECT_EQ(stats.cycles, cycles);
  EXPECT_EQ(stats.peak_buffer_words, block);
  EXPECT_GE(stats.blocks, cycles / block);
  EXPECT_EQ(stats.block_cycles, block);
}

// Executor substrate and the DESIGN.md §9 determinism contract: every
// sharded workload — characterization builds, static sweeps, Monte-Carlo
// PVT sampling, per-trace closed-loop suites — produces bit-identical
// results at any thread count, including 1.
#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/experiments.hpp"
#include "lut/table.hpp"
#include "test_support.hpp"
#include "trace/synthetic.hpp"
#include "util/json.hpp"
#include "util/parallel.hpp"

namespace razorbus {
namespace {

// ------------------------------------------------------------ ThreadPool

TEST(ThreadPool, ResolvesThreadCounts) {
  EXPECT_EQ(util::ThreadPool(3).threads(), 3u);
  EXPECT_EQ(util::ThreadPool(1).threads(), 1u);
  EXPECT_GE(util::ThreadPool(0).threads(), 1u);  // hardware concurrency
}

TEST(ThreadPool, EmptyRangeRunsNothing) {
  util::ThreadPool pool(4);
  std::atomic<int> calls{0};
  pool.parallel_for(0, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls.load(), 0);
}

TEST(ThreadPool, EveryShardRunsExactlyOnce) {
  util::ThreadPool pool(8);
  constexpr std::size_t kShards = 100;
  std::vector<std::atomic<int>> hits(kShards);
  for (auto& h : hits) h.store(0);
  pool.parallel_for(kShards, [&](std::size_t s) { ++hits[s]; });
  for (std::size_t s = 0; s < kShards; ++s) EXPECT_EQ(hits[s].load(), 1) << s;
}

TEST(ThreadPool, MapReturnsResultsInShardOrder) {
  util::ThreadPool pool(8);
  const std::vector<std::size_t> out =
      util::parallel_map(pool, 64, [](std::size_t s) { return s * s; });
  ASSERT_EQ(out.size(), 64u);
  for (std::size_t s = 0; s < out.size(); ++s) EXPECT_EQ(out[s], s * s);
}

TEST(ThreadPool, PoolIsReusableAcrossJobs) {
  util::ThreadPool pool(4);
  std::atomic<int> calls{0};
  for (int job = 0; job < 50; ++job)
    pool.parallel_for(7, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls.load(), 50 * 7);
}

TEST(ThreadPool, LowestShardExceptionPropagates) {
  util::ThreadPool pool(4);
  std::atomic<int> calls{0};
  try {
    pool.parallel_for(16, [&](std::size_t s) {
      ++calls;
      if (s == 3 || s == 7) throw std::runtime_error("shard " + std::to_string(s));
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "shard 3");
  }
  // Multi-threaded execution never cancels: every shard still ran.
  EXPECT_EQ(calls.load(), 16);
}

TEST(ThreadPool, SingleThreadExceptionPropagates) {
  util::ThreadPool pool(1);
  EXPECT_THROW(
      pool.parallel_for(4, [](std::size_t s) {
        if (s == 2) throw std::invalid_argument("boom");
      }),
      std::invalid_argument);
}

TEST(ThreadPool, ConcurrentTopLevelCallersSerialise) {
  // Two application threads submitting to the same pool must not trample
  // each other's job state; every shard of both jobs runs exactly once.
  util::ThreadPool pool(4);
  std::atomic<int> calls_a{0}, calls_b{0};
  std::thread other([&] {
    for (int job = 0; job < 20; ++job)
      pool.parallel_for(13, [&](std::size_t) { ++calls_a; });
  });
  for (int job = 0; job < 20; ++job)
    pool.parallel_for(9, [&](std::size_t) { ++calls_b; });
  other.join();
  EXPECT_EQ(calls_a.load(), 20 * 13);
  EXPECT_EQ(calls_b.load(), 20 * 9);
}

TEST(ThreadPool, NestedParallelForRunsInline) {
  util::ThreadPool pool(4);
  std::atomic<int> inner_calls{0};
  pool.parallel_for(8, [&](std::size_t) {
    pool.parallel_for(5, [&](std::size_t) { ++inner_calls; });
  });
  EXPECT_EQ(inner_calls.load(), 8 * 5);
}

TEST(ThreadPool, GlobalPoolIsResizable) {
  util::set_global_threads(3);
  EXPECT_EQ(util::global_threads(), 3u);
  EXPECT_EQ(util::global_pool().threads(), 3u);
  util::set_global_threads(0);
  EXPECT_GE(util::global_threads(), 1u);
  util::set_global_threads(1);
  EXPECT_EQ(util::global_threads(), 1u);
}

TEST(ShardSeed, StreamsAreDistinctAndStable) {
  std::set<std::uint64_t> seeds;
  for (std::uint64_t shard = 0; shard < 100; ++shard)
    seeds.insert(util::shard_seed(42, shard));
  EXPECT_EQ(seeds.size(), 100u);                       // distinct across shards
  EXPECT_NE(util::shard_seed(1, 0), util::shard_seed(2, 0));  // and across seeds
  EXPECT_EQ(util::shard_seed(42, 7), util::shard_seed(42, 7));
}

// ---------------------------------------------------- determinism suite
//
// Each experiment runs at 1, 2 and 8 threads; the 1-thread result is the
// reference and the others must match it bit for bit (exact EXPECT_EQ on
// every double — no tolerances anywhere in this file).

constexpr unsigned kThreadCounts[] = {1, 2, 8};

trace::SyntheticConfig synthetic_config(std::size_t cycles, std::uint64_t seed) {
  trace::SyntheticConfig cfg;
  cfg.style = trace::SyntheticStyle::uniform;
  cfg.cycles = cycles;
  cfg.load_rate = 0.5;
  cfg.seed = seed;
  return cfg;
}

trace::Trace synthetic_trace(std::size_t cycles, std::uint64_t seed, const char* name) {
  return trace::generate_synthetic(synthetic_config(cycles, seed), name);
}

void expect_identical(const core::StaticSweepResult& a, const core::StaticSweepResult& b) {
  EXPECT_EQ(a.floor_supply, b.floor_supply);
  EXPECT_EQ(a.baseline_bus_energy, b.baseline_bus_energy);
  ASSERT_EQ(a.points.size(), b.points.size());
  for (std::size_t i = 0; i < a.points.size(); ++i) {
    EXPECT_EQ(a.points[i].supply, b.points[i].supply);
    EXPECT_EQ(a.points[i].error_rate, b.points[i].error_rate);
    EXPECT_EQ(a.points[i].bus_energy, b.points[i].bus_energy);
    EXPECT_EQ(a.points[i].total_energy, b.points[i].total_energy);
    EXPECT_EQ(a.points[i].norm_bus_energy, b.points[i].norm_bus_energy);
    EXPECT_EQ(a.points[i].norm_total_energy, b.points[i].norm_total_energy);
  }
}

void expect_identical(const core::DvsRunReport& a, const core::DvsRunReport& b) {
  EXPECT_EQ(a.totals.cycles, b.totals.cycles);
  EXPECT_EQ(a.totals.errors, b.totals.errors);
  EXPECT_EQ(a.totals.shadow_failures, b.totals.shadow_failures);
  EXPECT_EQ(a.totals.bus_energy, b.totals.bus_energy);
  EXPECT_EQ(a.totals.overhead_energy, b.totals.overhead_energy);
  EXPECT_EQ(a.baseline_bus_energy, b.baseline_bus_energy);
  EXPECT_EQ(a.floor_supply, b.floor_supply);
  EXPECT_EQ(a.average_supply, b.average_supply);
}

TEST(Determinism, LutBuildTablesAreByteIdenticalAcrossThreadCounts) {
  // Tiny grid, full per-point transient sims: 2 corners x 1 temp x 5
  // supplies. Serialized bytes must match exactly.
  lut::LutConfig config;
  config.vmin = 1.12;
  config.vmax = 1.20;
  config.temps = {100.0};
  config.corners = {tech::ProcessCorner::slow, tech::ProcessCorner::typical};
  const interconnect::BusDesign& bus = test_support::sized_paper_bus();
  const tech::DriverModel driver(bus.node);

  std::string reference;
  for (const unsigned threads : kThreadCounts) {
    util::set_global_threads(threads);
    const lut::DelayEnergyTable table = lut::DelayEnergyTable::build(bus, driver, config);
    std::ostringstream bytes;
    table.save(bytes, 0xfeedu);
    if (reference.empty())
      reference = bytes.str();
    else
      EXPECT_EQ(bytes.str(), reference) << "threads=" << threads;
  }
  EXPECT_FALSE(reference.empty());
  util::set_global_threads(1);
}

TEST(Determinism, StaticSweepIsBitIdenticalAcrossThreadCounts) {
  const core::DvsBusSystem& system = test_support::small_system();
  const std::vector<trace::Trace> traces{synthetic_trace(4000, 0xa1, "sweep-a"),
                                         synthetic_trace(4000, 0xb2, "sweep-b")};
  const double jitter_sigma = 2e-12;  // exercises the per-shard jitter Rng

  core::StaticSweepResult reference;
  for (const unsigned threads : kThreadCounts) {
    util::set_global_threads(threads);
    const core::StaticSweepResult sweep =
        core::static_voltage_sweep(system, tech::typical_corner(), traces, jitter_sigma);
    if (threads == 1) {
      reference = sweep;
      ASSERT_GT(reference.points.size(), 1u);
      continue;
    }
    SCOPED_TRACE("threads=" + std::to_string(threads));
    expect_identical(sweep, reference);
  }
  util::set_global_threads(1);
}

// The stream accounting of a sweep joins the contract: a shard count that
// followed the executor width would change stream_blocks / stream_cycles
// with --threads while the points stayed put.
TEST(Determinism, StreamedSweepPointsAndStreamStatsMatchAcrossThreadCounts) {
  const core::DvsBusSystem& system = test_support::small_system();
  const auto source = trace::make_synthetic_source(synthetic_config(6000, 0xa7), "sweep-s");
  core::StreamConfig stream;
  stream.block_cycles = 1000;

  core::StaticSweepResult reference;
  core::StreamStats reference_stats;
  for (const unsigned threads : kThreadCounts) {
    util::set_global_threads(threads);
    core::StreamStats stats;
    const core::StaticSweepResult sweep = core::static_voltage_sweep_streamed(
        system, tech::typical_corner(), *source, 2e-12, bus::EngineMode::bit_parallel,
        stream, &stats);
    if (threads == 1) {
      reference = sweep;
      reference_stats = stats;
      ASSERT_GT(reference.points.size(), 1u);
      continue;
    }
    SCOPED_TRACE("threads=" + std::to_string(threads));
    expect_identical(sweep, reference);
    EXPECT_EQ(stats.block_cycles, reference_stats.block_cycles);
    EXPECT_EQ(stats.blocks, reference_stats.blocks);
    EXPECT_EQ(stats.cycles, reference_stats.cycles);
    EXPECT_EQ(stats.peak_buffer_words, reference_stats.peak_buffer_words);
  }
  util::set_global_threads(1);
}

TEST(Determinism, GainsForTargetsMatchAcrossThreadCounts) {
  const core::DvsBusSystem& system = test_support::small_system();
  const std::vector<trace::Trace> traces{synthetic_trace(4000, 0xc3, "gains")};
  util::set_global_threads(1);
  const core::StaticSweepResult sweep =
      core::static_voltage_sweep(system, tech::typical_corner(), traces);
  const std::vector<double> targets{0.0, 0.01, 0.02, 0.05};

  const auto reference = core::gains_for_targets(sweep, targets);
  for (const unsigned threads : kThreadCounts) {
    util::set_global_threads(threads);
    const auto gains = core::gains_for_targets(sweep, targets);
    ASSERT_EQ(gains.size(), reference.size());
    for (std::size_t i = 0; i < gains.size(); ++i) {
      EXPECT_EQ(gains[i].target_error_rate, reference[i].target_error_rate);
      EXPECT_EQ(gains[i].chosen_supply, reference[i].chosen_supply);
      EXPECT_EQ(gains[i].achieved_error_rate, reference[i].achieved_error_rate);
      EXPECT_EQ(gains[i].energy_gain, reference[i].energy_gain);
    }
  }
  util::set_global_threads(1);
}

TEST(Determinism, PvtSamplingIsBitIdenticalAcrossThreadCounts) {
  // Sampling draws fast/slow corners and both temperatures, so it needs the
  // full paper tables (loaded from the shared disk cache).
  const core::DvsBusSystem& system = test_support::paper_system();
  const trace::Trace trace = synthetic_trace(20000, 0xd4, "pvt");
  core::PvtSampleConfig config;
  config.samples = 6;
  config.seed = 99;

  core::PvtSampleResult reference;
  for (const unsigned threads : kThreadCounts) {
    util::set_global_threads(threads);
    core::PvtSampleResult result = core::pvt_sample_gains(system, trace, config);
    ASSERT_EQ(result.samples.size(), static_cast<std::size_t>(config.samples));
    if (threads == 1) {
      reference = std::move(result);
      continue;
    }
    for (std::size_t s = 0; s < result.samples.size(); ++s) {
      EXPECT_EQ(result.samples[s].corner, reference.samples[s].corner);
      expect_identical(result.samples[s].report, reference.samples[s].report);
    }
    EXPECT_EQ(result.gain_stats.count(), reference.gain_stats.count());
    EXPECT_EQ(result.gain_stats.mean(), reference.gain_stats.mean());
    EXPECT_EQ(result.gain_stats.stddev(), reference.gain_stats.stddev());
    EXPECT_EQ(result.gain_stats.min(), reference.gain_stats.min());
    EXPECT_EQ(result.gain_stats.max(), reference.gain_stats.max());
    EXPECT_EQ(result.err_stats.mean(), reference.err_stats.mean());
  }
  // The drawn population covers more than one process corner (otherwise
  // this test would not notice a per-shard seeding regression).
  std::set<tech::ProcessCorner> processes;
  for (const auto& s : reference.samples) processes.insert(s.corner.process);
  EXPECT_GT(processes.size(), 1u);
  util::set_global_threads(1);
}

TEST(Determinism, ClosedLoopSuiteMatchesSequentialRuns) {
  const core::DvsBusSystem& system = test_support::paper_system();
  std::vector<trace::Trace> traces;
  for (std::uint64_t t = 0; t < 4; ++t)
    traces.push_back(synthetic_trace(15000, 0xe0 + t, "suite"));
  const core::DvsRunConfig config;
  const tech::PvtCorner corner = tech::typical_corner();

  // Sequential reference: the pre-executor per-trace loop.
  util::set_global_threads(1);
  std::vector<core::DvsRunReport> sequential;
  for (const auto& trace : traces)
    sequential.push_back(core::run_closed_loop(system, corner, trace, config));
  std::vector<core::DvsRunReport> fixed_sequential;
  for (const auto& trace : traces)
    fixed_sequential.push_back(core::run_fixed_vs(system, corner, trace));

  for (const unsigned threads : kThreadCounts) {
    util::set_global_threads(threads);
    const auto suite = core::run_closed_loop_suite(system, corner, traces, config);
    const auto fixed = core::run_fixed_vs_suite(system, corner, traces);
    ASSERT_EQ(suite.size(), traces.size());
    ASSERT_EQ(fixed.size(), traces.size());
    for (std::size_t t = 0; t < traces.size(); ++t) {
      expect_identical(suite[t], sequential[t]);
      expect_identical(fixed[t], fixed_sequential[t]);
    }
  }
  util::set_global_threads(1);
}

TEST(Determinism, SweepJsonReportIsByteIdenticalAcrossThreadCounts) {
  // End-to-end on the reporting path: the numbers formatted into a JSON
  // document (as the bench scenario runner does) match byte for byte.
  const core::DvsBusSystem& system = test_support::small_system();
  const std::vector<trace::Trace> traces{synthetic_trace(4000, 0xf5, "json")};

  std::string reference;
  for (const unsigned threads : kThreadCounts) {
    util::set_global_threads(threads);
    const core::StaticSweepResult sweep =
        core::static_voltage_sweep(system, tech::typical_corner(), traces);
    Json report = Json::object();
    report.set("floor_supply", sweep.floor_supply);
    report.set("baseline_bus_energy", sweep.baseline_bus_energy);
    Json points = Json::array();
    for (const auto& p : sweep.points) {
      Json jp = Json::object();
      jp.set("supply", p.supply);
      jp.set("error_rate", p.error_rate);
      jp.set("bus_energy", p.bus_energy);
      jp.set("total_energy", p.total_energy);
      jp.set("norm_bus_energy", p.norm_bus_energy);
      jp.set("norm_total_energy", p.norm_total_energy);
      points.push(std::move(jp));
    }
    report.set("points", std::move(points));
    const std::string dumped = report.dump(2);
    if (reference.empty())
      reference = dumped;
    else
      EXPECT_EQ(dumped, reference) << "threads=" << threads;
  }
  util::set_global_threads(1);
}

}  // namespace
}  // namespace razorbus

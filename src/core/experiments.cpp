#include "core/experiments.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "core/closed_loop.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace razorbus::core {

lut::LutConfig lut_config_for_tolerance(double tol, lut::LutConfig base) {
  if (tol > 0.0) {
    base.tolerance.relative = tol;
    base.tolerance.delay_abs_s = tol * 1e-10;
    base.tolerance.energy_abs_j = tol * 1e-13;
  }
  return base;
}

namespace {

// parallel_map with a private StreamStats per shard, merged into `stats`
// in shard order.
template <typename Run>
auto map_shards(std::size_t n, StreamStats* stats, Run&& run) {
  std::vector<StreamStats> shard_stats(n);
  auto out = util::parallel_map(util::global_pool(), n, [&](std::size_t s) {
    return run(s, &shard_stats[s]);
  });
  if (stats != nullptr)
    for (const auto& shard : shard_stats) stats->merge(shard);
  return out;
}

// The Monte-Carlo operating-point draw of pvt_sample_gains_streamed.
tech::PvtCorner draw_pvt_corner(Rng& rng) {
  tech::PvtCorner corner;
  // Process corners are discrete (die-to-die); skew toward typical.
  const double p = rng.next_double();
  corner.process = p < 0.2   ? tech::ProcessCorner::slow
                   : p < 0.8 ? tech::ProcessCorner::typical
                             : tech::ProcessCorner::fast;
  corner.temp_c = rng.uniform(25.0, 100.0);
  corner.ir_drop_fraction = rng.uniform(0.0, 0.10);

  // Temperatures are characterised at 25/100C; evaluate at the nearer one
  // (the table axis is coarse by design, like the paper's).
  corner.temp_c = corner.temp_c < 62.5 ? 25.0 : 100.0;
  return corner;
}

SweepPoint sweep_point(double supply, const bus::RunningTotals& totals) {
  SweepPoint p;
  p.supply = supply;
  p.error_rate = totals.error_rate();
  p.bus_energy = totals.bus_energy;
  p.total_energy = totals.total_energy();
  return p;
}

}  // namespace

void StreamStats::merge(const StreamStats& other) {
  block_cycles = std::max(block_cycles, other.block_cycles);
  blocks += other.blocks;
  cycles += other.cycles;
  peak_buffer_words = std::max(peak_buffer_words, other.peak_buffer_words);
}

StaticSweepResult static_voltage_sweep_streamed(const DvsBusSystem& system,
                                                const tech::PvtCorner& environment,
                                                const trace::TraceSource& source,
                                                double timing_jitter_sigma,
                                                bus::EngineMode engine,
                                                const StreamConfig& stream,
                                                StreamStats* stats) {
  check_width(system, source);
  StaticSweepResult result;
  result.floor_supply = system.shadow_floor(environment);
  const double vnom = system.design().node.vdd_nominal;
  const double step = 0.020;

  // Supplies from the floor to nominal, anchored at the nominal grid.
  std::vector<double> supplies;
  for (double v = vnom; v > result.floor_supply - 1e-9; v -= step) supplies.push_back(v);
  std::sort(supplies.begin(), supplies.end());

  if (engine == bus::EngineMode::reference) {
    // The golden kept on purpose: one shard per supply point, each with a
    // fresh per-wire simulator (the jitter Rng seeded per shard exactly as a
    // sequential loop would seed it per supply) and its own clone of the
    // stream.
    const auto run_supply = [&](std::size_t s, StreamStats* shard) {
      bus::BusSimulator sim = system.make_simulator(environment);
      sim.set_engine_mode(engine);
      if (timing_jitter_sigma > 0.0) sim.set_timing_jitter(timing_jitter_sigma);
      sim.set_supply(supplies[s]);
      StreamCursor cursor(source, stream.block_cycles);
      cursor.drain([&](const BusWord* words, std::size_t n) { sim.run(words, n); });
      cursor.account(shard);
      return sweep_point(supplies[s], sim.totals());
    };
    result.points = map_shards(supplies.size(), stats, run_supply);
  } else {
    // Every supply in one bus::MultiPointEngine over one drain of the stream
    // (DESIGN.md §13): per-point totals are bit-identical to a BusSimulator
    // per supply, and the pass count depends on nothing but the problem.
    std::vector<bus::OperatingPoint> points;
    for (const double supply : supplies) points.push_back({supply, environment});
    bus::MultiPointEngine batch(system.design(), system.table(), points,
                                timing_jitter_sigma);
    StreamCursor cursor(source, stream.block_cycles);
    cursor.drain([&](const BusWord* words, std::size_t n) { batch.run(words, n); });
    cursor.account(stats);
    for (std::size_t s = 0; s < supplies.size(); ++s)
      result.points.push_back(sweep_point(supplies[s], batch.totals(s)));
  }

  result.baseline_bus_energy = result.points.back().bus_energy;  // nominal supply
  for (auto& p : result.points) {
    p.norm_bus_energy = p.bus_energy / result.baseline_bus_energy;
    p.norm_total_energy = p.total_energy / result.baseline_bus_energy;
  }
  return result;
}

std::vector<TargetGainPoint> gains_for_targets(const StaticSweepResult& sweep,
                                               const std::vector<double>& targets) {
  if (sweep.points.empty()) throw std::invalid_argument("gains_for_targets: empty sweep");
  // One shard per target; cheap compared to the sweep itself, but keeps
  // every stage of the Fig. 5 pipeline on the executor.
  return util::parallel_map(util::global_pool(), targets.size(), [&](std::size_t t) {
    const double target = targets[t];
    TargetGainPoint g;
    g.target_error_rate = target;
    // Lowest supply whose error rate stays within the target (0 -> exact 0).
    const SweepPoint* chosen = &sweep.points.back();
    for (const auto& p : sweep.points) {
      // razorlint: allow(float-eq): a 0 target means literally error-free —
      // both sides are exact-by-construction (counts divided by counts).
      const bool ok = target == 0.0 ? p.error_rate == 0.0 : p.error_rate <= target;
      if (ok) {
        chosen = &p;
        break;
      }
    }
    g.chosen_supply = chosen->supply;
    g.achieved_error_rate = chosen->error_rate;
    g.energy_gain = 1.0 - chosen->total_energy / sweep.baseline_bus_energy;
    return g;
  });
}

VoltageDistribution oracle_voltage_distribution(const DvsBusSystem& system,
                                                const tech::PvtCorner& environment,
                                                const trace::TraceSource& source,
                                                double target_error_rate,
                                                std::uint64_t window_cycles) {
  dvs::OracleSelector oracle(system.design(), system.table(), environment);
  dvs::OracleConfig config;
  config.window_cycles = window_cycles;
  config.target_error_rate = target_error_rate;
  config.vmin = system.shadow_floor(environment);
  const dvs::OracleResult r = oracle.select(*source.clone(), config);

  VoltageDistribution out;
  out.benchmark = source.name();
  out.target_error_rate = target_error_rate;
  out.time_at_voltage = r.time_at_voltage.fractions();
  out.achieved_error_rate = r.achieved_error_rate;
  return out;
}

ConsecutiveRunReport run_consecutive_streamed(
    const DvsBusSystem& system, const tech::PvtCorner& environment,
    const std::vector<std::unique_ptr<trace::TraceSource>>& sources,
    const DvsRunConfig& config, const StreamConfig& stream, StreamStats* stats) {
  LoopConfig loop_config;
  static_cast<DvsRunConfig&>(loop_config) = config;
  ClosedLoop loop({{&system}}, environment, std::move(loop_config));
  ConsecutiveRunReport report;
  for (const auto& source : sources)
    report.per_trace.push_back(loop.run({source.get()}, stream, stats).front());
  report.series = loop.take_series();
  return report;
}

DvsRunReport run_closed_loop_streamed(const DvsBusSystem& system,
                                      const tech::PvtCorner& environment,
                                      const trace::TraceSource& source,
                                      const DvsRunConfig& config,
                                      const StreamConfig& stream, StreamStats* stats) {
  LoopConfig loop_config;
  static_cast<DvsRunConfig&>(loop_config) = config;
  ClosedLoop loop({{&system}}, environment, std::move(loop_config));
  DvsRunReport report = std::move(loop.run({&source}, stream, stats).front());
  report.series = loop.take_series();
  return report;
}

DvsRunReport run_fixed_vs_streamed(const DvsBusSystem& system,
                                   const tech::PvtCorner& environment,
                                   const trace::TraceSource& source,
                                   bus::EngineMode engine, double timing_jitter_sigma,
                                   const StreamConfig& stream, StreamStats* stats) {
  check_width(system, source);
  const double supply = system.fixed_vs_supply(environment.process);

  // Conventional receiver: no double-sampling overhead at all.
  razor::RecoveryCostModel no_overhead;
  no_overhead.flop_clock_energy = 0.0;
  no_overhead.detection_energy_per_cycle = 0.0;

  bus::BusSimulator sim(system.design(), system.table(), environment, no_overhead);
  sim.set_engine_mode(engine);
  if (timing_jitter_sigma > 0.0) sim.set_timing_jitter(timing_jitter_sigma);
  sim.set_supply(supply);
  sim.start_nominal_meter();

  StreamCursor cursor(source, stream.block_cycles);
  cursor.drain([&](const BusWord* words, std::size_t n) { sim.run(words, n); });
  cursor.account(stats);

  DvsRunReport report;
  report.totals = sim.totals();
  report.floor_supply = supply;
  report.average_supply = supply;
  report.baseline_bus_energy = sim.nominal_bus_energy();
  return report;
}

std::vector<DvsRunReport> run_closed_loop_suite_streamed(
    const DvsBusSystem& system, const tech::PvtCorner& environment,
    const std::vector<std::unique_ptr<trace::TraceSource>>& sources,
    const DvsRunConfig& config, const StreamConfig& stream, StreamStats* stats) {
  return map_shards(sources.size(), stats, [&](std::size_t t, StreamStats* shard) {
    return run_closed_loop_streamed(system, environment, *sources[t], config, stream,
                                    shard);
  });
}

std::vector<DvsRunReport> run_fixed_vs_suite_streamed(
    const DvsBusSystem& system, const tech::PvtCorner& environment,
    const std::vector<std::unique_ptr<trace::TraceSource>>& sources,
    bus::EngineMode engine, double timing_jitter_sigma, const StreamConfig& stream,
    StreamStats* stats) {
  return map_shards(sources.size(), stats, [&](std::size_t t, StreamStats* shard) {
    return run_fixed_vs_streamed(system, environment, *sources[t], engine,
                                 timing_jitter_sigma, stream, shard);
  });
}

PvtSampleResult pvt_sample_gains_streamed(const DvsBusSystem& system,
                                          const trace::TraceSource& source,
                                          const PvtSampleConfig& config,
                                          const StreamConfig& stream,
                                          StreamStats* stats) {
  const auto n = static_cast<std::size_t>(std::max(config.samples, 0));
  // Private Rng stream per sample: the drawn population depends only on
  // (seed, sample index), never on the shard-to-thread assignment.
  std::vector<tech::PvtCorner> corners(n);
  for (std::size_t s = 0; s < n; ++s) {
    Rng rng(util::shard_seed(config.seed, s));
    corners[s] = draw_pvt_corner(rng);
  }

  PvtSampleResult out;
  out.samples = map_shards(n, stats, [&](std::size_t s, StreamStats* shard) {
    PvtSample sample;
    sample.corner = corners[s];
    sample.report =
        run_closed_loop_streamed(system, sample.corner, source, config.run, stream, shard);
    return sample;
  });

  // Per-shard singleton stats merged in shard order: the aggregate is the
  // same double sequence no matter how many threads ran the samples.
  for (const auto& sample : out.samples) {
    RunningStats gain, err;
    gain.add(sample.report.energy_gain());
    err.add(sample.report.error_rate());
    out.gain_stats.merge(gain);
    out.err_stats.merge(err);
  }
  return out;
}

}  // namespace razorbus::core

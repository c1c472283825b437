// Experiment drivers reproducing the paper's evaluation.
//
// Every table and figure of the paper maps to one of these functions; the
// bench binaries are thin printers around them (see DESIGN.md section 4
// for the experiment index).
//
// Each experiment has ONE implementation, which takes its input as
// `trace::TraceSource` streams (DESIGN.md §12) and iterates fixed-size
// blocks, so campaign length is bounded by simulation time, not memory.
// Materialized `trace::Trace` inputs enter through
// trace::make_trace_view_source: the Trace signatures below are one-line
// forwards kept for the benches, examples and tests that hold traces in
// RAM. Streamed = materialized therefore holds by construction — same
// integer counts, exactly equal energy/supply doubles; tests/stream_test.cpp
// keeps checking that reports are invariant under the block size. Every
// closed loop runs through core::ClosedLoop (closed_loop.hpp). The width
// rule: traces wider than the bus throw; narrower traces are legal (surplus
// wires hold).
//
// Drivers clone their source per shard (one clone per suite trace /
// Monte-Carlo sample / sweep, or per sweep supply under the reference
// engine), so the §9 determinism contract —
// bit-identical at any thread count — carries over unchanged.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/system.hpp"
#include "dvs/controller.hpp"
#include "dvs/proportional.hpp"
#include "trace/source.hpp"
#include "trace/trace.hpp"
#include "util/stats.hpp"

namespace razorbus::core {

// ------------------------------------------------ streaming configuration
// Block sizing for the drivers: each active stream is served
// through one buffer of `block_cycles` BusWords (1 MiB at the default), so
// peak trace memory is block_cycles x concurrent shards, independent of
// how many cycles the campaign runs. Purely a memory/throughput knob —
// results are bit-identical at ANY block size (the batched engine's totals
// are invariant under span splits, DESIGN.md §5).
struct StreamConfig {
  std::size_t block_cycles = trace::kDefaultBlockCycles;
};

// Block accounting a driver reports (surfaced in BENCH_*.json as
// the stream_* metrics, docs/bench-reports.md): how much trace was pulled
// and the largest trace buffer that was ever resident per shard — the
// peak-RSS-relevant number a memory budget cares about. Counts cover every
// pass the driver makes (the closed-loop baseline is priced in the DVS
// pass; a sweep is one pass, or one per supply under the reference engine).
struct StreamStats {
  std::size_t block_cycles = 0;       // configured block size
  std::uint64_t blocks = 0;           // next_block pulls, all shards
  std::uint64_t cycles = 0;           // words streamed, all shards
  std::size_t peak_buffer_words = 0;  // largest per-shard trace buffer
  void merge(const StreamStats& other);
};

// ---------------------------------------------------------------- Fig. 4
struct SweepPoint {
  double supply = 0.0;        // regulator output (V)
  double error_rate = 0.0;    // bus timing errors per cycle
  double bus_energy = 0.0;    // J over the traces (wires + leakage)
  double total_energy = 0.0;  // + razor/recovery overhead
  double norm_bus_energy = 0.0;    // relative to the nominal-supply bus energy
  double norm_total_energy = 0.0;  // same normalisation, with overhead
};

struct StaticSweepResult {
  std::vector<SweepPoint> points;   // ascending supply
  double baseline_bus_energy = 0.0; // bus energy at the nominal supply (J)
  double floor_supply = 0.0;        // shadow-safe minimum for this corner
};

// Run `source` at every 20 mV grid supply from the corner's shadow floor
// up to nominal, results in ascending-supply order. The bit-parallel
// engine runs every supply through one bus::MultiPointEngine over one
// drain of the stream; EngineMode::reference, the golden kept for
// cross-checks, shards one supply per shard (each drains its own clone of
// the stream through its own BusSimulator). Both are bit-identical, and
// neither depends on the thread count (DESIGN.md §9). A multi-trace sweep
// is the concatenation of its traces, so pass trace::concatenate_sources
// for suites.
StaticSweepResult static_voltage_sweep_streamed(
    const DvsBusSystem& system, const tech::PvtCorner& environment,
    const trace::TraceSource& source, double timing_jitter_sigma = 0.0,
    bus::EngineMode engine = bus::EngineMode::bit_parallel,
    const StreamConfig& stream = {}, StreamStats* stats = nullptr);

inline StaticSweepResult static_voltage_sweep(
    const DvsBusSystem& system, const tech::PvtCorner& environment,
    const std::vector<trace::Trace>& traces, double timing_jitter_sigma = 0.0,
    bus::EngineMode engine = bus::EngineMode::bit_parallel) {
  return static_voltage_sweep_streamed(
      system, environment,
      *trace::concatenate_sources(trace::make_trace_view_sources(traces), "suite"),
      timing_jitter_sigma, engine);
}

// ---------------------------------------------------------------- Fig. 5
struct TargetGainPoint {
  double target_error_rate = 0.0;
  double chosen_supply = 0.0;
  double achieved_error_rate = 0.0;
  double energy_gain = 0.0;  // 1 - E(total at chosen) / E(bus at nominal)
};

// Lowest static supply whose combined error rate stays within each target;
// reports the resulting energy gains (0 targets require exactly 0 errors).
std::vector<TargetGainPoint> gains_for_targets(const StaticSweepResult& sweep,
                                               const std::vector<double>& targets);

// ---------------------------------------------------------------- Fig. 6
struct VoltageDistribution {
  std::string benchmark;
  double target_error_rate = 0.0;
  // (supply, fraction of execution time) sorted by supply.
  std::vector<std::pair<double, double>> time_at_voltage;
  double achieved_error_rate = 0.0;
};

VoltageDistribution oracle_voltage_distribution(const DvsBusSystem& system,
                                                const tech::PvtCorner& environment,
                                                const trace::Trace& trace,
                                                double target_error_rate,
                                                std::uint64_t window_cycles = 10000);

// ------------------------------------------------------- Table 1 / Fig. 8
struct WindowSample {
  std::uint64_t end_cycle = 0;
  double supply = 0.0;      // at the window boundary
  double error_rate = 0.0;  // of the closed window
};

// Default relative tolerance for adaptive characterization when a scenario
// opts in via the `lut_tolerance` key: a 2% interpolation-error envelope,
// well under the run-to-run spread of the closed-loop metrics it feeds.
constexpr double kDefaultLutTolerance = 0.02;

// Maps the scalar scenario tolerance onto full LutTolerance bounds: the
// relative envelope is `tol` itself, and the absolute floors (which stop
// refinement from chasing noise where delay or energy approach zero) scale
// with it — tol * 1e-10 s and tol * 1e-13 J, roughly `tol` relative to a
// nominal-supply worst-class delay/energy. `tol <= 0` leaves `base`
// untouched (tolerance 0: every grid voltage characterised).
lut::LutConfig lut_config_for_tolerance(double tol, lut::LutConfig base = {});

struct DvsRunConfig {
  // The window-count policy: the paper's threshold controller of
  // `controller`, or, when set, the proportional controller the paper
  // discusses and rejects (Section 5; multi-step changes proportional to
  // the band error, used by the controller ablation).
  dvs::ControllerConfig controller{};
  std::optional<dvs::ProportionalConfig> proportional;
  std::uint64_t regulator_delay_cycles = 3000;  // 2 us at 1.5 GHz
  double start_supply = 0.0;                    // 0 = nominal
  double timing_jitter_sigma = 0.0;
  bool record_series = false;                   // keep per-window samples (Fig. 8)
  // Cycle engine for the run. Results are bit-identical either way
  // (DESIGN.md §5); scenario specs select `reference` to cross-check.
  bus::EngineMode engine = bus::EngineMode::bit_parallel;
};

struct DvsRunReport {
  bus::RunningTotals totals;
  double baseline_bus_energy = 0.0;  // same trace at nominal, conventional bus
  double floor_supply = 0.0;
  double average_supply = 0.0;       // cycle-weighted
  std::vector<WindowSample> series;

  double energy_gain() const {
    return baseline_bus_energy > 0.0
               ? 1.0 - totals.total_energy() / baseline_bus_energy
               : 0.0;
  }
  double error_rate() const { return totals.error_rate(); }
};

// Closed-loop DVS over one trace (config's controller + ramping
// regulator): a single pass over a clone of `source`; the DVS simulator's
// nominal meter prices the nominal-supply baseline in that same pass (so no
// second pass and no materialization anywhere).
DvsRunReport run_closed_loop_streamed(const DvsBusSystem& system,
                                      const tech::PvtCorner& environment,
                                      const trace::TraceSource& source,
                                      const DvsRunConfig& config = {},
                                      const StreamConfig& stream = {},
                                      StreamStats* stats = nullptr);

inline DvsRunReport run_closed_loop(const DvsBusSystem& system,
                                    const tech::PvtCorner& environment,
                                    const trace::Trace& trace,
                                    const DvsRunConfig& config = {}) {
  return run_closed_loop_streamed(system, environment,
                                  *trace::make_trace_view_source(trace), config);
}

// Fixed-VS baseline: run the trace at the fixed-VS supply for the corner's
// process — not a control loop, so the report's average supply is that
// supply exactly. Gains are zero errors by construction (at zero jitter; a
// non-zero jitter can push arrivals past the capture limit).
DvsRunReport run_fixed_vs_streamed(const DvsBusSystem& system,
                                   const tech::PvtCorner& environment,
                                   const trace::TraceSource& source,
                                   bus::EngineMode engine = bus::EngineMode::bit_parallel,
                                   double timing_jitter_sigma = 0.0,
                                   const StreamConfig& stream = {},
                                   StreamStats* stats = nullptr);

inline DvsRunReport run_fixed_vs(const DvsBusSystem& system,
                                 const tech::PvtCorner& environment,
                                 const trace::Trace& trace,
                                 bus::EngineMode engine = bus::EngineMode::bit_parallel,
                                 double timing_jitter_sigma = 0.0) {
  return run_fixed_vs_streamed(system, environment, *trace::make_trace_view_source(trace),
                               engine, timing_jitter_sigma);
}

// Continue a closed-loop run across consecutive traces without resetting
// controller/regulator state (Fig. 8 runs the 10 benchmarks back to back).
struct ConsecutiveRunReport {
  std::vector<DvsRunReport> per_trace;
  std::vector<WindowSample> series;  // stitched, cycle offsets cumulative
};

// The paper's headline run: one closed loop executes the sources in turn
// with controller/regulator state carried across boundaries — the path
// that makes billion-cycle Fig. 8 campaigns memory-feasible. Per-source
// baselines (the DVS simulator's nominal meter, restarted per source) and
// per-source average supplies restart at each source.
ConsecutiveRunReport run_consecutive_streamed(
    const DvsBusSystem& system, const tech::PvtCorner& environment,
    const std::vector<std::unique_ptr<trace::TraceSource>>& sources,
    const DvsRunConfig& config = {}, const StreamConfig& stream = {},
    StreamStats* stats = nullptr);

inline ConsecutiveRunReport run_consecutive(const DvsBusSystem& system,
                                            const tech::PvtCorner& environment,
                                            const std::vector<trace::Trace>& traces,
                                            const DvsRunConfig& config = {}) {
  return run_consecutive_streamed(system, environment,
                                  trace::make_trace_view_sources(traces), config);
}

// Independent closed-loop / fixed-VS runs over a trace suite (Table 1 runs
// every benchmark separately). Unlike run_consecutive, controller and
// regulator state reset per trace, so the traces are embarrassingly
// parallel: sharded one source per shard, each shard cloning its source
// into its own BusSimulator, reports returned in source order (DESIGN.md
// §9).
std::vector<DvsRunReport> run_closed_loop_suite_streamed(
    const DvsBusSystem& system, const tech::PvtCorner& environment,
    const std::vector<std::unique_ptr<trace::TraceSource>>& sources,
    const DvsRunConfig& config = {}, const StreamConfig& stream = {},
    StreamStats* stats = nullptr);
std::vector<DvsRunReport> run_fixed_vs_suite_streamed(
    const DvsBusSystem& system, const tech::PvtCorner& environment,
    const std::vector<std::unique_ptr<trace::TraceSource>>& sources,
    bus::EngineMode engine = bus::EngineMode::bit_parallel,
    double timing_jitter_sigma = 0.0, const StreamConfig& stream = {},
    StreamStats* stats = nullptr);

inline std::vector<DvsRunReport> run_closed_loop_suite(
    const DvsBusSystem& system, const tech::PvtCorner& environment,
    const std::vector<trace::Trace>& traces, const DvsRunConfig& config = {}) {
  return run_closed_loop_suite_streamed(system, environment,
                                        trace::make_trace_view_sources(traces), config);
}
inline std::vector<DvsRunReport> run_fixed_vs_suite(
    const DvsBusSystem& system, const tech::PvtCorner& environment,
    const std::vector<trace::Trace>& traces,
    bus::EngineMode engine = bus::EngineMode::bit_parallel,
    double timing_jitter_sigma = 0.0) {
  return run_fixed_vs_suite_streamed(system, environment,
                                     trace::make_trace_view_sources(traces), engine,
                                     timing_jitter_sigma);
}

// ------------------------------------------------- PVT sampling extension
// Monte-Carlo over operating conditions (the paper hand-picks corners; the
// ablation samples a part population instead). Sharded one sample per
// shard: sample s draws its PVT point from a private Rng seeded with
// SplitMix of (seed, s) and runs the closed loop on its own clone of the
// source, so the population — and every derived statistic — is
// bit-identical at any thread count (DESIGN.md §9). Each sample's baseline
// is its closed loop's nominal meter, priced in the same pass.
struct PvtSampleConfig {
  int samples = 24;
  std::uint64_t seed = 2025;
  DvsRunConfig run{};
};

struct PvtSample {
  tech::PvtCorner corner;
  DvsRunReport report;
};

struct PvtSampleResult {
  std::vector<PvtSample> samples;  // in sample (shard) order
  RunningStats gain_stats;         // merged in shard order
  RunningStats err_stats;
};

PvtSampleResult pvt_sample_gains_streamed(const DvsBusSystem& system,
                                          const trace::TraceSource& source,
                                          const PvtSampleConfig& config = {},
                                          const StreamConfig& stream = {},
                                          StreamStats* stats = nullptr);

inline PvtSampleResult pvt_sample_gains(const DvsBusSystem& system,
                                        const trace::Trace& trace,
                                        const PvtSampleConfig& config = {}) {
  return pvt_sample_gains_streamed(system, *trace::make_trace_view_source(trace), config);
}

}  // namespace razorbus::core

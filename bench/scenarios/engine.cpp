// Engine microbenchmarks: throughput of the simulation layers the
// reproduction harnesses are built on (the measurement suite behind the
// perf_microbench binary).
//
// The headline numbers are the bus-cycle rates of the two engines
// (EngineMode::reference per-wire golden path vs the bit-parallel batched
// production path) on active, mixed and idle traffic, plus the single- vs
// multi-thread throughput of the sharded characterization build
// (--threads=N, DESIGN.md §9). They are printed as tables and written to
// BENCH_engine.json so both speedup trajectories can be tracked across
// commits — and gated by the CI bench-regression job.
#include <chrono>
#include <cstdlib>
#include <filesystem>

#include "bus/simulator.hpp"
#include "core/experiments.hpp"
#include "cpu/kernels.hpp"
#include "drift/schedule.hpp"
#include "lut/cache.hpp"
#include "lut/point_store.hpp"
#include "lut/table.hpp"
#include "scenarios/scenarios.hpp"
#include "spice/transient.hpp"
#include "sys/bus_system.hpp"
#include "trace/synthetic.hpp"
#include "util/parallel.hpp"

namespace razorbus::bench {

namespace {

trace::Trace make_trace(trace::SyntheticStyle style, double load_rate, std::size_t cycles,
                        const char* name, int n_bits = 32) {
  trace::SyntheticConfig cfg;
  cfg.style = style;
  cfg.cycles = cycles;
  cfg.load_rate = load_rate;
  cfg.seed = 0xbeef;
  cfg.n_bits = n_bits;
  return trace::generate_synthetic(cfg, name);
}

// Cycles/second of `mode` on `design` over `words`, re-running the trace
// until the measurement window is long enough to trust.
double measure_cps(const interconnect::BusDesign& design, bus::EngineMode mode,
                  const std::vector<BusWord>& words) {
  bus::BusSimulator sim(design, paper_system().table(), tech::typical_corner());
  sim.set_engine_mode(mode);
  sim.set_supply(1.00);
  sim.run(words);  // warm up (and fault in the tables)

  using clock = std::chrono::steady_clock;
  std::uint64_t cycles_done = 0;
  double elapsed = 0.0;
  const auto t0 = clock::now();
  do {
    sim.run(words);
    cycles_done += words.size();
    elapsed = std::chrono::duration<double>(clock::now() - t0).count();
  } while (elapsed < 0.25);
  return static_cast<double>(cycles_done) / elapsed;
}

double measure_cps(bus::EngineMode mode, const std::vector<BusWord>& words) {
  return measure_cps(paper_system().design(), mode, words);
}

void engine_showdown(ScenarioContext& ctx) {
  struct Workload {
    const char* name;
    trace::Trace trace;
  };
  const Workload workloads[] = {
      {"active (load 1.0)",
       make_trace(trace::SyntheticStyle::uniform, 1.0, ctx.cycles, "active")},
      {"mixed (load 0.4)",
       make_trace(trace::SyntheticStyle::uniform, 0.4, ctx.cycles, "mixed")},
      {"worst-case toggle",
       make_trace(trace::SyntheticStyle::worst_case, 1.0, ctx.cycles, "toggle")},
      {"idle (load 0.02)",
       make_trace(trace::SyntheticStyle::sparse, 0.02, ctx.cycles, "idle")},
  };

  Table table({"Workload", "Reference (Mcyc/s)", "Bit-parallel (Mcyc/s)", "Speedup"});
  double active_speedup = 0.0;
  for (const auto& w : workloads) {
    const double ref_cps = measure_cps(bus::EngineMode::reference, w.trace.words);
    const double fast_cps = measure_cps(bus::EngineMode::bit_parallel, w.trace.words);
    const double speedup = fast_cps / ref_cps;
    table.row()
        .add(w.name)
        .add(ref_cps / 1e6, 1)
        .add(fast_cps / 1e6, 1)
        .add(speedup, 2);

    std::string key = w.name;
    key = key.substr(0, key.find(' '));
    ctx.metric(key + "_reference_cps", ref_cps);
    ctx.metric(key + "_bit_parallel_cps", fast_cps);
    ctx.metric(key + "_speedup", speedup);
    if (key == "active") active_speedup = speedup;
  }
  ctx.table("engine_throughput", table);
  std::printf(
      "\nThe bit-parallel batched engine is the default; the per-wire\n"
      "reference path remains as the golden model (DESIGN.md §5).\n");
  if (active_speedup < 5.0)
    std::printf("WARNING: active-traffic speedup %.2fx below the 5x budget\n",
                active_speedup);
}

// Throughput vs bus width (DESIGN.md §10): the same electrical design at
// 16, 32, 64 and 128 wires, driven with uniform traffic of that width. The
// characterised table is width-independent, so every width reuses the
// paper system's tables; what changes is the number of shield groups per
// cycle (lookups) and the lane count of the mask algebra. Tracked in
// BENCH_engine.json as width<N>_*_cps.
void width_showdown(ScenarioContext& ctx) {
  Table table(
      {"Width (wires)", "Reference (Mcyc/s)", "Bit-parallel (Mcyc/s)", "Speedup"});
  for (const int width : {16, 32, 64, 128}) {
    interconnect::BusDesign design = paper_system().design();  // sized repeaters
    design.n_bits = width;
    const trace::Trace t = make_trace(trace::SyntheticStyle::uniform, 0.4, ctx.cycles,
                                      "width", width);
    const double ref_cps = measure_cps(design, bus::EngineMode::reference, t.words);
    const double fast_cps = measure_cps(design, bus::EngineMode::bit_parallel, t.words);
    table.row()
        .add(static_cast<long long>(width))
        .add(ref_cps / 1e6, 1)
        .add(fast_cps / 1e6, 1)
        .add(fast_cps / ref_cps, 2);
    const std::string key = "width" + std::to_string(width);
    ctx.metric(key + "_reference_cps", ref_cps);
    ctx.metric(key + "_bit_parallel_cps", fast_cps);
  }
  ctx.table("width_throughput", table);
}

// Wall-clock of fn(), repeated until the window is long enough to trust;
// returns seconds per call.
template <typename Fn>
double measure_seconds(Fn&& fn) {
  using clock = std::chrono::steady_clock;
  int calls = 0;
  double elapsed = 0.0;
  const auto t0 = clock::now();
  do {
    fn();
    ++calls;
    elapsed = std::chrono::duration<double>(clock::now() - t0).count();
  } while (elapsed < 0.3);
  return elapsed / calls;
}

// Closed-loop throughput of the system layer (sys::BusSystem): lockstep
// cycles/second of a 1-bus and a 3-bus shared-supply system, and of a
// 1-bus run under an active drift ramp (window-granular corner
// re-derivation). Every lane simulates its DVS bus and prices its nominal
// baseline in the same pass, so these rates sit below the raw engine
// numbers.
// Tracked in BENCH_engine.json as system_*_cps and gated like the rest.
void system_showdown(ScenarioContext& ctx) {
  const std::size_t cycles = ctx.cycles;
  const auto measure = [&](std::size_t n_lanes, bool with_drift) {
    std::vector<sys::BusLane> lanes(n_lanes, sys::BusLane{&paper_system(), 1.0});
    const sys::BusSystem system(std::move(lanes));
    std::vector<trace::Trace> traces;
    for (std::size_t l = 0; l < n_lanes; ++l)
      traces.push_back(
          make_trace(trace::SyntheticStyle::uniform, 0.4, cycles, "sysbench"));
    sys::SystemRunConfig cfg;
    if (with_drift)
      cfg.drift = drift::Schedule::linear(cycles, 25.0, 100.0, 0.0, 0.05);
    const tech::PvtCorner corner = tech::typical_corner();
    system.run_closed_loop(corner, traces, cfg);  // warm up

    using clock = std::chrono::steady_clock;
    std::uint64_t cycles_done = 0;
    double elapsed = 0.0;
    const auto t0 = clock::now();
    do {
      cycles_done += system.run_closed_loop(corner, traces, cfg).cycles;
      elapsed = std::chrono::duration<double>(clock::now() - t0).count();
    } while (elapsed < 0.25);
    return static_cast<double>(cycles_done) / elapsed;
  };
  const double one_cps = measure(1, false);
  const double three_cps = measure(3, false);
  const double drift_cps = measure(1, true);

  Table table({"System", "Closed loop (Mcyc/s)"});
  table.row().add("1 bus").add(one_cps / 1e6, 1);
  table.row().add("3 buses, shared rail").add(three_cps / 1e6, 1);
  table.row().add("1 bus + drift ramp").add(drift_cps / 1e6, 1);
  ctx.table("system_throughput", table);
  ctx.metric("system_1bus_cps", one_cps);
  ctx.metric("system_3bus_cps", three_cps);
  ctx.metric("system_drift_cps", drift_cps);
}

// Multi-operating-point engine (DESIGN.md §13): point-cycles/second of one
// batched pass vs batch size. The scalar loop's point-cycles/sec is flat in
// P by construction (P passes over the trace); the batch engine amortises
// classification and vectorises the per-point arithmetic, so its
// point-cycles/sec should GROW with P. Tracked per width and point count as
// sweep_points_w<W>_p<P>_cps.
void multipoint_showdown(ScenarioContext& ctx) {
  const tech::PvtCorner corner = tech::typical_corner();
  const int point_counts[] = {1, 4, 8, 20};

  Table table({"Width (wires)", "P=1 (Mpt-cyc/s)", "P=4", "P=8", "P=20",
               "P=20 vs P=1"});
  for (const int width : {16, 32, 64, 128}) {
    interconnect::BusDesign design = paper_system().design();  // sized repeaters
    design.n_bits = width;
    const trace::Trace t = make_trace(trace::SyntheticStyle::uniform, 0.4, ctx.cycles,
                                      "points", width);
    table.row().add(static_cast<long long>(width));
    double first_cps = 0.0, last_cps = 0.0;
    for (const int n_points : point_counts) {
      std::vector<bus::OperatingPoint> points;
      for (int p = 0; p < n_points; ++p) points.push_back({1.00 + 0.01 * p, corner});
      bus::MultiPointEngine engine(design, paper_system().table(), points);
      engine.run(t.words);  // warm up (and fault in the SoA tables)

      using clock = std::chrono::steady_clock;
      std::uint64_t cycles_done = 0;
      double elapsed = 0.0;
      const auto t0 = clock::now();
      do {
        engine.run(t.words);
        cycles_done += t.words.size();
        elapsed = std::chrono::duration<double>(clock::now() - t0).count();
      } while (elapsed < 0.25);
      const double cps =
          static_cast<double>(n_points) * static_cast<double>(cycles_done) / elapsed;
      table.add(cps / 1e6, 1);
      ctx.metric("sweep_points_w" + std::to_string(width) + "_p" +
                     std::to_string(n_points) + "_cps",
                 cps);
      if (n_points == point_counts[0]) first_cps = cps;
      last_cps = cps;
    }
    table.add(first_cps > 0.0 ? last_cps / first_cps : 0.0, 2);
  }
  ctx.table("multipoint_throughput", table);
}

// Single- vs multi-thread throughput of the sharded characterization grid
// build (DESIGN.md §9). It is bit-identical at any width, so this is purely
// the executor's scaling trajectory, tracked in BENCH_engine.json.
void parallel_showdown(ScenarioContext& ctx) {
  const unsigned threads = util::global_threads();
  ctx.metric("threads", static_cast<double>(threads));

  // Characterization microcosm: one corner, one temperature, a short
  // supply grid — the same per-grid-point transient sims as the full
  // build, small enough to time in seconds.
  lut::LutConfig cfg;
  cfg.vmin = 1.08;
  cfg.vmax = 1.20;
  cfg.vstep = 0.02;
  cfg.temps = {100.0};
  cfg.corners = {tech::ProcessCorner::typical};
  const auto& system = paper_system();

  util::set_global_threads(1);
  const double char_1t = measure_seconds(
      [&] { lut::DelayEnergyTable::build(system.design(), system.driver(), cfg); });
  util::set_global_threads(threads);
  const double char_mt = measure_seconds(
      [&] { lut::DelayEnergyTable::build(system.design(), system.driver(), cfg); });

  const double char_speedup = char_1t / char_mt;

  Table table({"Sharded workload", "1 thread (s)", "N threads (s)", "Speedup"});
  table.row().add("characterization build").add(char_1t, 3).add(char_mt, 3).add(
      char_speedup, 2);
  ctx.table("parallel_throughput", table);
  ctx.metric("characterization_seconds_1t", char_1t);
  ctx.metric("characterization_seconds_mt", char_mt);
  ctx.metric("characterization_parallel_speedup", char_speedup);

  std::printf("\nExecutor width: %u thread%s (override with --threads=N)\n", threads,
              threads == 1 ? "" : "s");
  if (threads >= 4 && char_speedup < 3.0)
    std::printf("WARNING: parallel speedup %.2fx below the 3x budget at %u threads\n",
                char_speedup, threads);
}

// Characterization-cost trajectory (docs/characterization.md): transient
// runs of the tolerance-0 build, which characterises every grid voltage
// (reported as `dense`), vs the adaptive build at the default tolerance
// on one (corner, temperature) of the paper grid, plus a warm rebuild
// against the populated point store — which must perform ZERO transient
// runs, since every candidate point is already stored. Runs inside an
// isolated RAZORBUS_CACHE_DIR so the process's real cache is untouched.
// `lut_build_sims` / `lut_warm_sims` are gated as COST keys (more sims =
// regression) and `lut_build_cps` as throughput.
void characterization_showdown(ScenarioContext& ctx) {
  const auto& system = paper_system();

  lut::LutConfig dense_cfg;  // paper voltage range, one corner and temp
  dense_cfg.temps = {100.0};
  dense_cfg.corners = {tech::ProcessCorner::typical};
  lut::BuildStats dense_stats;
  lut::DelayEnergyTable::build(system.design(), system.driver(), dense_cfg, {}, nullptr,
                               &dense_stats);

  const lut::LutConfig adaptive_cfg =
      core::lut_config_for_tolerance(core::kDefaultLutTolerance, dense_cfg);

  const char* prev_env = std::getenv("RAZORBUS_CACHE_DIR");
  const std::string prev_dir = prev_env ? prev_env : "";
  const std::string tmp_dir = "BENCH_lut_cache.tmp";
  std::error_code ec;
  std::filesystem::remove_all(tmp_dir, ec);
  setenv("RAZORBUS_CACHE_DIR", tmp_dir.c_str(), 1);

  // Cold: empty point store, every kept point costs a transient run.
  lut::BuildStats cold_stats;
  using clock = std::chrono::steady_clock;
  const auto t0 = clock::now();
  lut::build_or_load(system.design(), system.driver(), adaptive_cfg, {}, &cold_stats);
  const double cold_s = std::chrono::duration<double>(clock::now() - t0).count();

  // Warm: the same campaign re-characterised against the populated store
  // (a fresh process whose table cache was pruned, say). Built directly —
  // not via build_or_load, whose memo/disk hits would trivially skip the
  // build — so every point goes through the store.
  const auto store = lut::PointStore::open(lut::cache_directory(),
                                           lut::design_content_hash(system.design()));
  lut::BuildStats warm_stats;
  lut::DelayEnergyTable::build(system.design(), system.driver(), adaptive_cfg, {},
                               store.get(), &warm_stats);

  if (prev_env)
    setenv("RAZORBUS_CACHE_DIR", prev_dir.c_str(), 1);
  else
    unsetenv("RAZORBUS_CACHE_DIR");
  std::filesystem::remove_all(tmp_dir, ec);

  const auto dense_sims = static_cast<double>(dense_stats.transient_sims);
  const auto cold_sims = static_cast<double>(cold_stats.transient_sims);
  const double ratio = dense_sims > 0.0 ? cold_sims / dense_sims : 0.0;
  Table table({"Characterization", "Transient sims", "Points", "vs dense"});
  table.row()
      .add("dense grid")
      .add(static_cast<long long>(dense_stats.transient_sims))
      .add(static_cast<long long>(dense_stats.points))
      .add(1.0, 2);
  table.row()
      .add("adaptive (tol 2%)")
      .add(static_cast<long long>(cold_stats.transient_sims))
      .add(static_cast<long long>(cold_stats.points))
      .add(ratio, 2);
  table.row()
      .add("adaptive, warm store")
      .add(static_cast<long long>(warm_stats.transient_sims))
      .add(static_cast<long long>(warm_stats.points))
      .add(0.0, 2);
  ctx.table("characterization_cost", table);

  ctx.metric("lut_build_dense_sims", dense_sims);
  ctx.metric("lut_build_sims", cold_sims);
  ctx.metric("lut_build_cps", cold_s > 0.0 ? cold_sims / cold_s : 0.0);
  ctx.metric("lut_warm_sims", static_cast<double>(warm_stats.transient_sims));
  ctx.metric("lut_warm_store_hits", static_cast<double>(warm_stats.store_hits));

  if (ratio > 0.5)
    std::printf("WARNING: adaptive build used %.0f%% of dense sims (budget 50%%)\n",
                100.0 * ratio);
  if (warm_stats.transient_sims > 0)
    std::printf("WARNING: warm rebuild performed %llu transient sims (expected 0)\n",
                static_cast<unsigned long long>(warm_stats.transient_sims));
}

}  // namespace

Scenario make_engine_scenario() {
  Scenario scenario;
  scenario.name = "engine";
  scenario.description = "perf_microbench: engine throughput (cycles/sec per mode)";
  scenario.paper_ref = "methodology Section 3 (simulation speed enables 10M-cycle runs)";
  scenario.default_cycles = 1 << 18;
  scenario.run = [](ScenarioContext& ctx) {
    engine_showdown(ctx);
    width_showdown(ctx);
    system_showdown(ctx);
    multipoint_showdown(ctx);
    parallel_showdown(ctx);
    characterization_showdown(ctx);
  };
  return scenario;
}

}  // namespace razorbus::bench

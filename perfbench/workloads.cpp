#include "workloads.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <utility>

#include "bus/simulator.hpp"
#include "core/experiments.hpp"
#include "core/job_hash.hpp"
#include "core/scenario_spec.hpp"
#include "core/system.hpp"
#include "cpu/kernels.hpp"
#include "drift/schedule.hpp"
#include "interconnect/rc_builder.hpp"
#include "lut/cache.hpp"
#include "lut/table.hpp"
#include "svc/fsio.hpp"
#include "svc/service.hpp"
#include "sys/bus_system.hpp"
#include "tech/device.hpp"
#include "trace/source.hpp"
#include "trace/synthetic.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace fs = std::filesystem;
using namespace razorbus;

// ------------------------------------------------------------------ Tracer

Tracer::Span::Span(Tracer& tracer, const char* name, bool always) {
  if (!always && !tracer.enabled_) return;
  tracer_ = &tracer;
  index_ = tracer.records_.size();
  Record record;
  record.name = name;
  record.parent = tracer.open_.empty() ? -1 : static_cast<long long>(tracer.open_.back());
  record.start = tracer.now();
  tracer.records_.push_back(std::move(record));
  tracer.open_.push_back(index_);
}

double Tracer::Span::close() {
  if (tracer_ == nullptr) return 0.0;
  Record& record = tracer_->records_[index_];
  record.end = tracer_->now();
  // Spans close innermost first (RAII scopes), so this one is on top.
  if (!tracer_->open_.empty() && tracer_->open_.back() == index_) tracer_->open_.pop_back();
  tracer_ = nullptr;
  return record.end - record.start;
}

Json Tracer::to_json() const {
  Json out = Json::array();
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    Json span = Json::object();
    span.set("id", static_cast<long long>(i));
    span.set("parent", r.parent < 0 ? Json() : Json(r.parent));
    span.set("name", r.name);
    span.set("start", r.start);
    span.set("end", r.end);
    out.push(std::move(span));
  }
  return out;
}

double Tracer::total(const std::string& name) const {
  double sum = 0.0;
  for (const Record& r : records_)
    if (r.name == name && r.end >= r.start) sum += r.end - r.start;
  return sum;
}

// ------------------------------------------------------------------ shared

Scale scale_named(const std::string& name) {
  // Job sizes for the full benchmark: each in-process job takes 0.2 to
  // 0.5 s on one core, so a run holds 50 to 110 jobs and the latency tail
  // has ten or more jobs beyond it. A job that long spans the host's short
  // stalls instead of being one of them, which keeps the tail steady from
  // run to run. Closed-loop budgets are whole controller windows (10k
  // cycles), which the layer replay needs.
  if (name == "full") return {4'000'000, 1'600'000, 100'000, 30'000, 3, 5};
  if (name == "smoke") return {50'000, 20'000, 1'000, 3'000, 1, 1};
  throw std::invalid_argument("unknown scale '" + name + "' (full or smoke)");
}

namespace {

// Every trace seed of a run derives from the workload seed through this
// one mixer, so the benchmark's inputs are a function of --seed alone.
std::uint64_t derive(std::uint64_t seed, std::uint64_t stream) {
  return util::shard_seed(seed, stream);
}

double vm_hwm_mb() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);)
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  return 0.0;
}

std::unique_ptr<core::DvsBusSystem> paper_system() {
  return std::make_unique<core::DvsBusSystem>(interconnect::BusDesign::paper_bus());
}

// A bus of another width with the paper bus's repeaters, built exactly as
// the campaign runner builds its lanes (they share one characterization).
std::unique_ptr<core::DvsBusSystem> wide_system(int width, const core::DvsBusSystem& paper) {
  interconnect::BusDesign design = interconnect::BusDesign::wide_bus(width);
  design.repeater_size = paper.design().repeater_size;
  return std::make_unique<core::DvsBusSystem>(design);
}

trace::SyntheticConfig synthetic(trace::SyntheticStyle style, double load_rate,
                                 std::uint64_t seed, std::uint64_t cycles, int width) {
  trace::SyntheticConfig cfg;
  cfg.style = style;
  cfg.load_rate = load_rate;
  cfg.seed = seed;
  cfg.cycles = cycles;
  cfg.n_bits = width;
  return cfg;
}

Json totals_json(const bus::RunningTotals& t) {
  Json out = Json::object();
  out.set("cycles", static_cast<unsigned long long>(t.cycles));
  out.set("errors", static_cast<unsigned long long>(t.errors));
  out.set("shadow_failures", static_cast<unsigned long long>(t.shadow_failures));
  out.set("bus_energy", t.bus_energy);
  out.set("overhead_energy", t.overhead_energy);
  return out;
}

// Exact comparison on purpose: a replay must reproduce the job bit for bit.
bool same_totals(const bus::RunningTotals& a, const bus::RunningTotals& b) {
  return a.cycles == b.cycles && a.errors == b.errors &&
         a.shadow_failures == b.shadow_failures && a.bus_energy == b.bus_energy &&
         a.overhead_energy == b.overhead_energy;
}

// Supply the closed loop ran at, rebuilt from its per-window series. The
// decision closing window k-1 is issued at cycle kW-1 and lands `delay`
// cycles later, so window k runs at the supply recorded for window k-1
// until cycle kW+delay-1 and at its own recorded supply afterwards.
class SupplySchedule {
 public:
  SupplySchedule(const std::vector<core::WindowSample>& series, double start,
                 std::uint64_t window, std::uint64_t delay, std::uint64_t cycles)
      : start_(start), window_(window), delay_(delay) {
    if (window_ == 0 || delay_ == 0 || delay_ > window_)
      throw std::invalid_argument("replay: needs 0 < regulator delay <= window");
    if (cycles % window_ != 0 || series.size() != cycles / window_)
      throw std::invalid_argument("replay: the job must be whole controller windows");
    for (const auto& sample : series) ends_.push_back(sample.supply);
  }

  std::size_t windows() const { return ends_.size(); }

  // Landings that moved the supply (a clamped request moves nothing).
  std::uint64_t changes() const {
    std::uint64_t n = 0;
    for (std::size_t k = 0; k < ends_.size(); ++k) n += ends_[k] != before(k) ? 1 : 0;
    return n;
  }

  // Splits words [first, first + n) of the run into constant-supply
  // segments and calls fn(offset, length, supply) for each, in order.
  template <typename Fn>
  void for_each_segment(std::uint64_t first, std::size_t n, Fn&& fn) const {
    std::size_t done = 0;
    while (done < n) {
      const std::uint64_t cycle = first + done;
      const std::size_t k = static_cast<std::size_t>(cycle / window_);
      const std::uint64_t landing = k * window_ + delay_ - 1;
      const bool early = cycle < landing;
      const std::uint64_t end = early ? landing : (k + 1) * window_;
      const auto length =
          static_cast<std::size_t>(std::min<std::uint64_t>(end - cycle, n - done));
      fn(done, length, early ? before(k) : ends_.at(k));
      done += length;
    }
  }

 private:
  double before(std::size_t k) const { return k == 0 ? start_ : ends_[k - 1]; }

  double start_;
  std::uint64_t window_;
  std::uint64_t delay_;
  std::vector<double> ends_;
};

bus::BusSimulator nominal_sim(const core::DvsBusSystem& system, const tech::PvtCorner& env) {
  bus::BusSimulator sim(system.design(), system.table(), env);
  sim.set_supply(system.design().node.vdd_nominal);
  return sim;
}

// Runs `fn` as one job of an in-process batch: timed as a job span, a
// throw counts as a failed job.
template <typename Fn>
void run_job(Tracer& tracer, BatchResult& out, Fn&& fn) {
  ++out.attempted;
  auto job = tracer.always("job");
  try {
    fn();
    out.jobs.push_back({job.close(), -1.0});
  } catch (const std::exception& e) {
    job.close();
    ++out.failed;
    out.errors.push_back(e.what());
  }
}

// ------------------------------------------------------ closed_loop_stream

// One 32-wire paper bus under the threshold controller at the typical
// corner, fed a streamed uniform trace (load 0.4). Nearly all host time is
// the per-cycle loop: DVS pass, lockstep nominal baseline, window decisions
// and block refills.
class ClosedLoopStream final : public Workload {
 public:
  explicit ClosedLoopStream(const Options& options) : options_(options) {}

  void setup(Tracer& tracer) override {
    {
      auto span = tracer.span("core.system_construct");
      system_ = paper_system();
    }
    auto span = tracer.span("trace.construct");
    source_ = trace::make_synthetic_source(
        synthetic(trace::SyntheticStyle::uniform, 0.4, derive(options_.seed, 1),
                  options_.scale.stream_cycles, 32),
        "uniform");
  }

  BatchResult run_batch(Tracer& tracer, int) override {
    BatchResult out;
    auto batch = tracer.always("batch");
    run_job(tracer, out, [&] {
      core::StreamStats stream;
      core::DvsRunReport report;
      {
        auto span = tracer.span("core.loop");
        report = core::run_closed_loop_streamed(*system_, env_, *source_, {}, {}, &stream);
      }
      Json stats = totals_json(report.totals);
      stats.set("baseline_bus_energy", report.baseline_bus_energy);
      stats.set("energy_gain", report.energy_gain());
      stats.set("error_rate", report.error_rate());
      stats.set("average_supply", report.average_supply);
      stats.set("floor_supply", report.floor_supply);
      stats.set("stream_blocks", static_cast<unsigned long long>(stream.blocks));
      out.stats.push_back(std::move(stats));
      out.sim_cycles += static_cast<double>(report.totals.cycles);
    });
    out.wall_s = batch.close();
    return out;
  }

  bool layers(Tracer& tracer, Json& counters) override {
    core::DvsRunConfig config;
    config.record_series = true;
    core::StreamStats stream;
    const core::DvsRunReport report =
        core::run_closed_loop_streamed(*system_, env_, *source_, config, {}, &stream);
    const double vnom = system_->design().node.vdd_nominal;
    const SupplySchedule schedule(report.series, vnom, config.controller.window_cycles,
                                  config.regulator_delay_cycles, report.totals.cycles);

    bool exact = true;
    std::vector<BusWord> buffer(trace::kDefaultBlockCycles);
    for (int r = 0; r < options_.scale.replays; ++r) {
      auto replay = tracer.span("replay");
      {
        auto span = tracer.span("core.loop");
        core::run_closed_loop_streamed(*system_, env_, *source_);
      }
      bus::BusSimulator sim = system_->make_simulator(env_);
      sim.set_supply(vnom);
      bus::BusSimulator baseline = nominal_sim(*system_, env_);
      std::unique_ptr<trace::TraceSource> source;
      {
        auto span = tracer.span("trace.produce");
        source = source_->clone();
      }
      for (std::uint64_t cycle = 0;;) {
        std::size_t n = 0;
        {
          auto span = tracer.span("trace.produce");
          n = source->next_block(buffer.data(), buffer.size());
        }
        if (n == 0) break;
        // Each segment goes to the DVS simulator and then to the baseline,
        // the order in which the streamed driver feeds them.
        schedule.for_each_segment(cycle, n, [&](std::size_t at, std::size_t len, double v) {
          {
            auto span = tracer.span("bus.dvs_pass");
            sim.set_supply(v);
            sim.run(buffer.data() + at, len);
          }
          auto span = tracer.span("bus.baseline_pass");
          baseline.run(buffer.data() + at, len);
        });
        cycle += n;
      }
      exact = exact && same_totals(sim.totals(), report.totals) &&
              baseline.totals().bus_energy == report.baseline_bus_energy;
    }
    counters.set("bus.cycles", static_cast<double>(report.totals.cycles));
    counters.set("bus.errors", static_cast<double>(report.totals.errors));
    counters.set("trace.blocks", static_cast<double>(stream.blocks));
    counters.set("core.windows", static_cast<double>(schedule.windows()));
    counters.set("dvs.supply_changes", static_cast<double>(schedule.changes()));
    return exact;
  }

 private:
  Options options_;
  tech::PvtCorner env_ = tech::typical_corner();
  std::unique_ptr<core::DvsBusSystem> system_;
  std::unique_ptr<trace::TraceSource> source_;
};

// ------------------------------------------------------- system_3bus_drift

// The lane mix of campaigns/system.json `three_bus_max` (16, 32 and 64
// wires) on one regulator under max_error arbitration, with a temperature
// and threshold-shift drift ramp over each job. Traces are materialized,
// so the resident traces show in peak_rss_mb.
class System3BusDrift final : public Workload {
 public:
  explicit System3BusDrift(const Options& options) : options_(options) {}

  void setup(Tracer& tracer) override {
    {
      auto span = tracer.span("core.system_construct");
      paper_ = paper_system();
      narrow_ = wide_system(16, *paper_);
      wide_ = wide_system(64, *paper_);
    }
    system_ = std::make_unique<sys::BusSystem>(std::vector<sys::BusLane>{
        {narrow_.get(), 1.0}, {paper_.get(), 1.0}, {wide_.get(), 1.0}});
    const std::uint64_t cycles = options_.scale.system_cycles;
    auto span = tracer.span("trace.construct");
    traces_.clear();
    traces_.push_back(trace::generate_synthetic(
        synthetic(trace::SyntheticStyle::uniform, 0.6, derive(options_.seed, 11), cycles, 16),
        "uniform"));
    traces_.push_back(trace::generate_synthetic(
        synthetic(trace::SyntheticStyle::pointer_like, 0.4, derive(options_.seed, 12), cycles,
                  32),
        "pointer_like"));
    traces_.push_back(trace::generate_synthetic(
        synthetic(trace::SyntheticStyle::sparse, 0.1, derive(options_.seed, 13), cycles, 64),
        "sparse"));
  }

  sys::SystemRunConfig config() const {
    sys::SystemRunConfig cfg;
    cfg.arbitration = dvs::ArbitrationPolicy::max_error;
    cfg.drift = drift::Schedule::linear(options_.scale.system_cycles, 25.0, 100.0, 0.0, 0.04);
    return cfg;
  }

  BatchResult run_batch(Tracer& tracer, int) override {
    BatchResult out;
    const sys::SystemRunConfig cfg = config();
    auto batch = tracer.always("batch");
    run_job(tracer, out, [&] {
      sys::SystemRunReport report;
      {
        auto span = tracer.span("sys.loop");
        report = system_->run_closed_loop(env_, traces_, cfg);
      }
      Json stats = Json::object();
      Json lanes = Json::array();
      for (const auto& lane : report.per_bus) {
        Json l = totals_json(lane.totals);
        l.set("baseline_bus_energy", lane.baseline_bus_energy);
        lanes.push(std::move(l));
      }
      stats.set("lanes", std::move(lanes));
      stats.set("energy_gain", report.energy_gain());
      stats.set("error_rate", report.error_rate());
      stats.set("average_supply", report.average_supply);
      stats.set("floor_supply", report.floor_supply);
      stats.set("windows", static_cast<unsigned long long>(report.windows));
      stats.set("env_updates", static_cast<unsigned long long>(report.env_updates));
      stats.set("wall_tracking_error", report.wall_tracking_error);
      out.stats.push_back(std::move(stats));
      out.sim_cycles += static_cast<double>(report.cycles * report.per_bus.size());
    });
    out.wall_s = batch.close();
    return out;
  }

  bool layers(Tracer& tracer, Json& counters) override {
    sys::SystemRunConfig cfg = config();
    cfg.record_series = true;
    const sys::SystemRunReport report = system_->run_closed_loop(env_, traces_, cfg);
    const double vnom = paper_->design().node.vdd_nominal;
    const SupplySchedule schedule(report.series, vnom, cfg.controller.window_cycles,
                                  cfg.regulator_delay_cycles, report.cycles);
    const std::uint64_t window = cfg.controller.window_cycles;
    const std::vector<double>& temps = narrow_->table().temps();
    const std::vector<const core::DvsBusSystem*> lanes = {narrow_.get(), paper_.get(),
                                                          wide_.get()};

    bool exact = true;
    for (int r = 0; r < options_.scale.replays; ++r) {
      auto replay = tracer.span("replay");
      {
        auto span = tracer.span("sys.loop");
        system_->run_closed_loop(env_, traces_, config());
      }
      std::vector<bus::BusSimulator> sims;
      std::vector<bus::BusSimulator> baselines;
      for (const auto* lane : lanes) {
        sims.push_back(lane->make_simulator(env_));
        sims.back().set_supply(vnom);
        baselines.push_back(nominal_sim(*lane, env_));
      }
      tech::PvtCorner current = env_;
      for (std::size_t k = 0; k < schedule.windows(); ++k) {
        const std::uint64_t begin = k * window;
        // The drift corner is re-derived at every window boundary, as the
        // system loop does; only a moved corner re-slices the tables.
        const tech::PvtCorner next = cfg.drift.corner_at(env_, begin, vnom, temps);
        const bool moved = !(next == current);
        current = next;
        // Segment by segment, lane by lane, as the system loop runs them.
        schedule.for_each_segment(begin, static_cast<std::size_t>(window),
                                  [&](std::size_t at, std::size_t len, double v) {
          for (std::size_t l = 0; l < lanes.size(); ++l) {
            const BusWord* words = traces_[l].words.data() + begin + at;
            {
              auto span = tracer.span("bus.dvs_pass");
              if (moved && at == 0) sims[l].set_environment(next);
              sims[l].set_supply(v);
              sims[l].run(words, len);
            }
            auto span = tracer.span("bus.baseline_pass");
            if (moved && at == 0) baselines[l].set_environment(next);
            baselines[l].run(words, len);
          }
        });
      }
      for (std::size_t l = 0; l < lanes.size(); ++l)
        exact = exact && same_totals(sims[l].totals(), report.per_bus[l].totals) &&
                baselines[l].totals().bus_energy == report.per_bus[l].baseline_bus_energy;
    }
    std::uint64_t errors = 0;
    for (const auto& lane : report.per_bus) errors += lane.totals.errors;
    counters.set("bus.cycles", static_cast<double>(report.cycles * lanes.size()));
    counters.set("bus.errors", static_cast<double>(errors));
    counters.set("sys.windows", static_cast<double>(report.windows));
    counters.set("drift.env_updates", static_cast<double>(report.env_updates));
    counters.set("dvs.supply_changes", static_cast<double>(schedule.changes()));
    return exact;
  }

 private:
  Options options_;
  tech::PvtCorner env_ = tech::typical_corner();
  std::unique_ptr<core::DvsBusSystem> paper_;
  std::unique_ptr<core::DvsBusSystem> narrow_;
  std::unique_ptr<core::DvsBusSystem> wide_;
  std::unique_ptr<sys::BusSystem> system_;
  std::vector<trace::Trace> traces_;
};

// -------------------------------------------------------- sweep_suite_simd

// A streamed static voltage sweep with the multi-point engine over the ten
// mini-CPU benchmark streams, back to back. No controller, regulator or
// baseline: its time is mini-CPU execution and the multi-point kernel.
class SweepSuiteSimd final : public Workload {
 public:
  explicit SweepSuiteSimd(const Options& options) : options_(options) {}

  void setup(Tracer& tracer) override {
    {
      auto span = tracer.span("core.system_construct");
      system_ = paper_system();
    }
    auto span = tracer.span("trace.construct");
    // The kernels take no seed; the seed permutes their order, which moves
    // every boundary between streams and so the swept totals.
    suite_ = cpu::spec2000_suite();
    Rng rng(derive(options_.seed, 3));
    for (std::size_t i = suite_.size(); i > 1; --i)
      std::swap(suite_[i - 1], suite_[static_cast<std::size_t>(rng.next_below(i))]);
    std::vector<std::unique_ptr<trace::TraceSource>> parts;
    for (const auto& bench : suite_) parts.push_back(bench.stream(options_.scale.sweep_cycles));
    source_ = trace::concatenate_sources(std::move(parts), "suite");
  }

  BatchResult run_batch(Tracer& tracer, int) override {
    BatchResult out;
    auto batch = tracer.always("batch");
    run_job(tracer, out, [&] {
      core::StreamStats stream;
      core::StaticSweepResult sweep;
      {
        auto span = tracer.span("core.sweep");
        sweep = core::static_voltage_sweep_streamed(*system_, env_, *source_, 0.0,
                                                    bus::EngineMode::simd, {}, &stream);
      }
      Json stats = Json::object();
      stats.set("floor_supply", sweep.floor_supply);
      stats.set("baseline_bus_energy", sweep.baseline_bus_energy);
      stats.set("cycles", static_cast<unsigned long long>(stream.cycles));
      Json points = Json::array();
      for (const auto& p : sweep.points) {
        Json point = Json::object();
        point.set("supply", p.supply);
        point.set("error_rate", p.error_rate);
        point.set("bus_energy", p.bus_energy);
        point.set("total_energy", p.total_energy);
        points.push(std::move(point));
      }
      stats.set("points", std::move(points));
      out.stats.push_back(std::move(stats));
      out.sim_cycles += static_cast<double>(stream.cycles * sweep.points.size());
    });
    out.wall_s = batch.close();
    return out;
  }

  bool layers(Tracer& tracer, Json& counters) override {
    core::StreamStats stream;
    const core::StaticSweepResult sweep = core::static_voltage_sweep_streamed(
        *system_, env_, *source_, 0.0, bus::EngineMode::simd, {}, &stream);
    std::vector<bus::OperatingPoint> points;
    for (const auto& p : sweep.points) points.push_back({p.supply, env_});

    bool exact = true;
    std::vector<BusWord> buffer(trace::kDefaultBlockCycles);
    for (int r = 0; r < options_.scale.replays; ++r) {
      auto replay = tracer.span("replay");
      {
        auto span = tracer.span("core.sweep");
        core::static_voltage_sweep_streamed(*system_, env_, *source_, 0.0,
                                            bus::EngineMode::simd);
      }
      std::unique_ptr<bus::MultiPointEngine> engine;
      {
        auto span = tracer.span("bus.multipoint_pass");
        engine = std::make_unique<bus::MultiPointEngine>(system_->design(), system_->table(),
                                                         points);
      }
      std::unique_ptr<trace::TraceSource> source;
      {
        auto span = tracer.span("trace.produce");
        source = source_->clone();
      }
      for (;;) {
        std::size_t n = 0;
        {
          auto span = tracer.span("trace.produce");
          n = source->next_block(buffer.data(), buffer.size());
        }
        if (n == 0) break;
        auto span = tracer.span("bus.multipoint_pass");
        engine->run(buffer.data(), n);
      }
      for (std::size_t i = 0; i < points.size(); ++i) {
        const bus::RunningTotals t = engine->totals(i);
        exact = exact && t.error_rate() == sweep.points[i].error_rate &&
                t.bus_energy == sweep.points[i].bus_energy &&
                t.total_energy() == sweep.points[i].total_energy;
      }
      // The mini-CPU kernels alone, each executing its own stream.
      for (const auto& bench : suite_) {
        auto span = tracer.span("cpu.stream");
        auto kernel = bench.stream(options_.scale.sweep_cycles);
        while (kernel->next_block(buffer.data(), buffer.size()) > 0) {
        }
      }
    }
    counters.set("trace.blocks", static_cast<double>(stream.blocks));
    return exact;
  }

 private:
  Options options_;
  tech::PvtCorner env_ = tech::typical_corner();
  std::unique_ptr<core::DvsBusSystem> system_;
  std::vector<cpu::Benchmark> suite_;
  std::unique_ptr<trace::TraceSource> source_;
};

// ----------------------------------------------------- campaign_short_jobs

Json synthetic_trace(const char* style, double load_rate, long long seed) {
  Json trace = Json::object();
  trace.set("source", "synthetic");
  trace.set("style", style);
  trace.set("load_rate", load_rate);
  trace.set("seed", seed);
  return trace;
}

Json kernel_trace(const std::string& name) {
  Json trace = Json::object();
  trace.set("source", "benchmark");
  trace.set("name", name);
  return trace;
}

Json widths(std::initializer_list<int> list) {
  Json out = Json::array();
  for (int w : list) out.push(w);
  return out;
}

Json lane(int width, Json trace) {
  Json out = Json::object();
  out.set("width", width);
  out.set("trace", std::move(trace));
  return out;
}

Json scenario(const char* name, const char* experiment) {
  Json out = Json::object();
  out.set("name", name);
  out.set("experiment", experiment);
  return out;
}

// The campaign of short jobs: 24 declarative jobs mixing closed_loop,
// static_sweep and multi_bus kinds, widths 32 and 64, streamed and
// materialized traces, each at one executor thread. Every trace seed and
// the two mini-CPU kernels derive from the workload seed.
Json campaign_spec(std::uint64_t seed, std::uint64_t cycles) {
  const auto s = [&](std::uint64_t k) {
    return static_cast<long long>(derive(seed, 100 + k) & 0x7fffffffu);
  };
  const std::vector<std::string> kernels = {"crafty", "vortex", "mgrid", "swim", "mcf",
                                            "mesa",   "vpr",    "applu", "gap",  "wupwise"};
  const auto first = static_cast<std::size_t>(s(20) % 10);
  const std::string kernel_a = kernels[first];
  const std::string kernel_b = kernels[(first + 1 + static_cast<std::size_t>(s(21) % 9)) % 10];

  Json scenarios = Json::array();
  {
    Json sc = scenario("cl_uniform", "closed_loop");
    sc.set("trace", synthetic_trace("uniform", 0.4, s(1)));
    sc.set("widths", widths({32, 64}));
    Json controllers = Json::array();
    for (const char* kind : {"threshold", "proportional", "fixed_vs"}) controllers.push(kind);
    sc.set("controllers", std::move(controllers));
    scenarios.push(std::move(sc));
  }
  {
    Json sc = scenario("cl_pointer_stream", "closed_loop");
    sc.set("trace", synthetic_trace("pointer_like", 0.4, s(2)));
    sc.set("widths", widths({32, 64}));
    sc.set("stream", true);
    scenarios.push(std::move(sc));
  }
  {
    Json sc = scenario("cl_kernel", "closed_loop");
    sc.set("trace", kernel_trace(kernel_a));
    sc.set("widths", widths({32, 64}));
    scenarios.push(std::move(sc));
  }
  {
    Json sc = scenario("cl_kernel_stream", "closed_loop");
    sc.set("trace", kernel_trace(kernel_b));
    sc.set("widths", widths({32, 64}));
    sc.set("stream", true);
    scenarios.push(std::move(sc));
  }
  {
    Json sc = scenario("cl_sparse_bus_invert", "closed_loop");
    sc.set("trace", synthetic_trace("sparse", 0.1, s(3)));
    sc.set("widths", widths({32, 64}));
    sc.set("encoding", "bus_invert");
    scenarios.push(std::move(sc));
  }
  {
    Json sc = scenario("cl_drift", "closed_loop");
    sc.set("trace", synthetic_trace("uniform", 0.4, s(4)));
    sc.set("widths", widths({32, 64}));
    Json drift = Json::object();
    drift.set("temp_start", 25.0);
    drift.set("temp_end", 100.0);
    sc.set("drift", std::move(drift));
    scenarios.push(std::move(sc));
  }
  {
    Json sc = scenario("sw_sparse", "static_sweep");
    sc.set("trace", synthetic_trace("sparse", 0.1, s(5)));
    sc.set("widths", widths({32, 64}));
    sc.set("engine", "simd");
    scenarios.push(std::move(sc));
  }
  {
    Json sc = scenario("sw_kernel_stream", "static_sweep");
    sc.set("trace", kernel_trace(kernel_a));
    sc.set("widths", widths({32, 64}));
    sc.set("engine", "simd");
    sc.set("stream", true);
    scenarios.push(std::move(sc));
  }
  {
    Json sc = scenario("sw_uniform", "static_sweep");
    sc.set("trace", synthetic_trace("uniform", 0.4, s(12)));
    sc.set("widths", widths({64}));
    scenarios.push(std::move(sc));
  }
  {
    Json sc = scenario("mb_two", "multi_bus");
    Json buses = Json::array();
    buses.push(lane(32, synthetic_trace("uniform", 0.4, s(6))));
    buses.push(lane(64, synthetic_trace("sparse", 0.1, s(7))));
    sc.set("buses", std::move(buses));
    scenarios.push(std::move(sc));
  }
  {
    Json sc = scenario("mb_two_stream", "multi_bus");
    sc.set("arbitration", "sum_error");
    sc.set("stream", true);
    Json buses = Json::array();
    buses.push(lane(64, synthetic_trace("pointer_like", 0.4, s(8))));
    buses.push(lane(32, synthetic_trace("uniform", 0.6, s(9))));
    sc.set("buses", std::move(buses));
    scenarios.push(std::move(sc));
  }
  {
    Json sc = scenario("mb_drift", "multi_bus");
    Json drift = Json::object();
    drift.set("temp_start", 25.0);
    drift.set("temp_end", 100.0);
    drift.set("vth_shift_start", 0.0);
    drift.set("vth_shift_end", 0.04);
    sc.set("drift", std::move(drift));
    Json buses = Json::array();
    buses.push(lane(32, synthetic_trace("uniform", 0.4, s(10))));
    buses.push(lane(32, synthetic_trace("sparse", 0.1, s(11))));
    sc.set("buses", std::move(buses));
    scenarios.push(std::move(sc));
  }

  Json defaults = Json::object();
  defaults.set("cycles", static_cast<unsigned long long>(cycles));
  defaults.set("threads", 1);
  Json campaign = Json::object();
  campaign.set("name", "perfbench_short_jobs");
  campaign.set("description", "razorbus benchmark: a closed batch of short declarative jobs");
  campaign.set("defaults", std::move(defaults));
  campaign.set("scenarios", std::move(scenarios));
  return campaign;
}

// Polls the service's status surface from a second thread and stamps the
// moment each job first shows a final state. With one worker, a job's
// latency is the gap between its completion and the previous one's.
class CompletionWatcher {
 public:
  CompletionWatcher(const svc::CampaignService& service, const Tracer& tracer)
      : service_(service), tracer_(tracer), thread_([this] { loop(); }) {}
  ~CompletionWatcher() { stop(); }
  CompletionWatcher(const CompletionWatcher&) = delete;
  CompletionWatcher& operator=(const CompletionWatcher&) = delete;

  // Joins the thread; returns (job name, completion time) pairs.
  const std::map<std::string, double>& stop() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
    return done_;
  }

 private:
  void loop() {
    bool last = false;
    while (!last) {
      last = stop_.load();
      const Json status = service_.status_json();
      const double now = tracer_.now();
      for (const auto& [name, state] : status.at("jobs").members()) {
        const std::string& label = state.as_string();
        if (label != "pending" && label != "running") done_.emplace(name, now);
      }
      if (!last) std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }

  const svc::CampaignService& service_;
  const Tracer& tracer_;
  std::atomic<bool> stop_{false};
  std::map<std::string, double> done_;  // owned by the thread until join
  std::thread thread_;                  // last: starts after the members above
};

class CampaignShortJobs final : public Workload {
 public:
  explicit CampaignShortJobs(const Options& options) : options_(options) {
    if (options_.work_dir.empty() || options_.runner.empty())
      throw std::invalid_argument("campaign_short_jobs needs --work and --runner");
  }

  ~CampaignShortJobs() override {
    std::error_code ec;
    if (!setup_dir_.empty()) fs::remove_all(setup_dir_, ec);
  }

  // What every job pays before it simulates, as the service's client sees
  // it: the paper bus system each run-one child builds, then the campaign
  // expansion and the queue preparation.
  void setup(Tracer& tracer) override {
    {
      auto span = tracer.span("core.system_construct");
      system_ = paper_system();
    }
    spec_ = campaign_spec(options_.seed, options_.scale.campaign_cycles);
    setup_dir_ = (fs::path(options_.work_dir) / "setup").string();
    fs::remove_all(setup_dir_);
    core::CampaignSpec campaign = core::CampaignSpec::from_json(spec_);
    std::vector<core::ScenarioJob> jobs = core::expand_campaign(campaign);
    svc::CampaignService service(std::move(campaign), std::move(jobs),
                                 service_config(setup_dir_, ""));
    auto span = tracer.span("svc.prepare");
    service.prepare();
  }

  BatchResult run_batch(Tracer& tracer, int batch_index) override {
    BatchResult out;
    const std::string dir =
        (fs::path(options_.work_dir) / ("batch" + std::to_string(batch_index))).string();
    fs::remove_all(dir);

    auto batch = tracer.always("batch");
    core::CampaignSpec campaign;
    std::vector<core::ScenarioJob> jobs;
    {
      auto span = tracer.span("core.expand");
      campaign = core::CampaignSpec::from_json(spec_);
      jobs = core::expand_campaign(campaign);
    }
    const std::size_t n = jobs.size();
    out.attempted = n;
    svc::CampaignService service(std::move(campaign), std::move(jobs),
                                 service_config(dir, ""));
    {
      auto span = tracer.span("svc.prepare");
      service.prepare();
    }
    svc::CampaignService::Summary summary;
    std::map<std::string, double> done_at;
    double run_start = 0.0, run_end = 0.0;
    {
      auto span = tracer.span("svc.run");
      CompletionWatcher watcher(service, tracer);
      run_start = tracer.now();
      summary = service.run();
      run_end = tracer.now();
      done_at = watcher.stop();
    }
    {
      auto span = tracer.span("svc.aggregate");
      svc::write_file_atomic((fs::path(dir) / "BENCH_campaign.json").string(),
                             service.aggregate().dump(2) + "\n");
    }
    out.wall_s = batch.close();
    out.sim_cycles = summary.executed_cycles;

    // Exactly-once: every job executed, none failed, none replayed from the
    // (fresh) cache, and the service's status file agrees.
    const Json status = Json::parse_file(service.config().status_path);
    if (summary.executed > n) {
      out.failed += summary.executed - n;
      out.errors.push_back(std::to_string(summary.executed) + " executions for " +
                           std::to_string(n) + " jobs");
    }
    if (status.at("executed").as_int() != static_cast<long long>(summary.executed) ||
        status.at("done").as_int() != static_cast<long long>(n)) {
      ++out.failed;
      out.errors.push_back("status.json disagrees with the run summary");
    }

    // Completion order (one worker) gives each job's latency.
    std::vector<std::pair<double, std::string>> order;
    for (const svc::QueueJob& job : service.queue().jobs()) {
      const auto it = done_at.find(job.name);
      order.emplace_back(it == done_at.end() ? run_end : std::min(it->second, run_end),
                         job.name);
    }
    std::sort(order.begin(), order.end());
    std::map<std::string, double> latency;
    double previous = run_start;
    for (const auto& [at, name] : order) {
      latency[name] = at - previous;
      previous = at;
    }

    for (const svc::QueueJob& job : service.queue().jobs()) {
      const auto record = service.queue().done_record(job.name);
      const Json* state = record ? record->find("status") : nullptr;
      const Json* cached = record ? record->find("cached") : nullptr;
      if (state == nullptr || !state->is_string() || state->as_string() != "ok" ||
          cached == nullptr || !cached->is_bool() || cached->as_bool()) {
        ++out.failed;
        out.errors.push_back(job.name + ": no fresh successful run recorded");
        continue;
      }
      const Json report = Json::parse_file(job.report_path);
      Json stats = Json::object();
      stats.set("job", job.name);
      stats.set("cycles", report.at("cycles"));
      for (const auto& [key, value] : report.at("metrics").members()) stats.set(key, value);
      out.stats.push_back(std::move(stats));
      out.jobs.push_back({latency[job.name], report.at("wall_seconds").as_double()});
    }
    out.failed += summary.failed;

    if (!last_dir_.empty()) {
      std::error_code ec;
      fs::remove_all(last_dir_, ec);
    }
    last_dir_ = dir;
    last_executed_ = summary.executed;
    return out;
  }

  bool layers(Tracer& tracer, Json& counters) override {
    core::CampaignSpec campaign = core::CampaignSpec::from_json(spec_);
    std::vector<core::ScenarioJob> jobs = core::expand_campaign(campaign);
    volatile std::uint64_t sink = 0;
    for (int r = 0; r < options_.scale.replays; ++r) {
      auto span = tracer.span("core.job_hash");
      for (const auto& job : jobs) sink = sink ^ core::job_content_hash(job);
    }
    const std::size_t n = jobs.size();

    // A second service over the last batch's result cache: every job is a
    // hit, replayed from the cache instead of simulated.
    const std::string dir = (fs::path(options_.work_dir) / "replay").string();
    fs::remove_all(dir);
    svc::CampaignService service(
        std::move(campaign), std::move(jobs),
        service_config(dir, (fs::path(last_dir_) / "cache").string()));
    service.prepare();
    svc::CampaignService::Summary summary;
    {
      auto span = tracer.span("svc.cache_replay");
      summary = service.run();
    }
    counters.set("svc.executed", static_cast<double>(last_executed_));
    counters.set("svc.cache_hits", static_cast<double>(summary.cache_hits));
    return summary.cache_hits == n && summary.executed == 0;
  }

  bool in_process() const override { return false; }

  double peak_rss_mb() const override {
    // The jobs run in child processes: report the largest one.
    rusage usage{};
    getrusage(RUSAGE_CHILDREN, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
  }

 private:
  svc::ServiceConfig service_config(const std::string& out_dir,
                                    const std::string& cache_dir) const {
    svc::ServiceConfig config;
    config.out_dir = out_dir;
    config.cache_dir = cache_dir;
    config.runner = options_.runner;
    config.workers = 1;
    config.verbose = false;
    return config;
  }

  Options options_;
  std::unique_ptr<core::DvsBusSystem> system_;
  Json spec_;
  std::string setup_dir_;
  std::string last_dir_;
  std::size_t last_executed_ = 0;
};

}  // namespace

double Workload::peak_rss_mb() const { return vm_hwm_mb(); }

std::unique_ptr<Workload> make_workload(const Options& options) {
  if (options.workload == "closed_loop_stream")
    return std::make_unique<ClosedLoopStream>(options);
  if (options.workload == "system_3bus_drift")
    return std::make_unique<System3BusDrift>(options);
  if (options.workload == "sweep_suite_simd") return std::make_unique<SweepSuiteSimd>(options);
  if (options.workload == "campaign_short_jobs")
    return std::make_unique<CampaignShortJobs>(options);
  throw std::invalid_argument("unknown workload '" + options.workload + "'");
}

void setup_layer_probes(Tracer& tracer, int replays) {
  interconnect::BusDesign design = interconnect::BusDesign::paper_bus();
  const tech::DriverModel driver(design.node);
  for (int r = 0; r < replays; ++r) {
    auto span = tracer.span("interconnect.size_repeaters");
    design.repeater_size = 0.0;
    interconnect::size_repeaters(design, driver, tech::worst_case_corner());
  }
  // The disk load alone, past the process-wide table memo.
  const lut::LutConfig config;
  const std::uint64_t hash = lut::table_key_hash(design, config);
  std::ostringstream path;
  path << lut::cache_directory() << "/lut_" << std::hex << hash << ".bin";
  for (int r = 0; r < replays; ++r) {
    auto span = tracer.span("lut.load");
    std::ifstream in(path.str(), std::ios::binary);
    if (!lut::DelayEnergyTable::load(in, hash))
      throw std::runtime_error("lut.load probe: no warm table at " + path.str());
  }
}

}  // namespace perfbench

// The campaign front end (DESIGN.md §11, docs/campaign-service.md): one
// CLI over the campaign service.
//
//   campaign run <campaign.json> [--out=DIR] [--cache=DIR] [--workers=N]
//                [--force] [--max_jobs=N] [--shard=K/N] [--json=PATH]
//   campaign worker [--out=DIR] [--cache=DIR] [--workers=N] [--max_jobs=N]
//   campaign status [--out=DIR]
//   campaign manifest <campaign.json> --shards=N [--out=DIR]
//   campaign list [<campaign.json>]
//   campaign scenario <name> [--cycles=N] [--threads=N] [--json[=PATH]]
//                [--<scenario flag>=V]
//   campaign run-one <job.spec.json> --json=PATH   (internal)
//
// `run` expands the campaign file into the scenario cross product
// (scenarios x widths x controllers) and hands the jobs to
// svc::CampaignService: the durable queue under <out>/queue makes runs
// resumable after any kill, and the content-hash result cache under
// <out>/cache (shareable via --cache) replays previously-completed jobs'
// BENCH_<job>.json byte-for-byte without simulating. Each executed job is
// a `campaign run-one` subprocess of this same binary (--workers at a
// time) whose stdout/stderr land in <out>/<job>.log; per-job reports
// aggregate into one consolidated <out>/BENCH_campaign.json. A
// half-written report or queue record from an interrupted run fails its
// parse and reruns — the same torn-file tolerance lut::PointStore
// applies. `worker` attaches another process to a running queue (the
// link(2) claim protocol makes them steal work safely), `manifest` splits
// a campaign across hosts by content hash for `run --shard=K/N` against a
// shared cache, and `status` prints the live <out>/status.json snapshot.
// `scenario` runs one registered paper reproduction (bench/scenarios/); a
// campaign job referencing that scenario runs the same run_scenario body,
// so the two reports are byte-identical (modulo wall-clock fields), and
// tests/golden/ pins fig4, fig8 and table1.
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <sstream>

#include "bus/businvert.hpp"
#include "core/job_hash.hpp"
#include "core/scenario_spec.hpp"
#include "lut/point_store.hpp"
#include "scenario_registry.hpp"
#include "svc/fsio.hpp"
#include "svc/service.hpp"
#include "sys/bus_system.hpp"
#include "trace/io.hpp"
#include "trace/source.hpp"
#include "trace/synthetic.hpp"

using namespace razorbus;
using namespace razorbus::bench;

namespace fs = std::filesystem;

namespace {

// ------------------------------------------------- declarative experiments

// The bus system a declarative job runs on: the paper bus at the job's
// width, characterised adaptively when the job sets `lut_tolerance`. The
// characterised tables are width-independent, so every width shares the
// paper system's cached characterization (DESIGN.md §10); adaptive tables
// additionally share the design's point store, so a dense table and an
// adaptive one re-simulate nothing in common.
const core::DvsBusSystem& system_for_job(int width, double lut_tolerance) {
  if (width == 32 && lut_tolerance <= 0.0) return paper_system();
  // Keyed cache rather than a single slot: a multi_bus job builds one
  // system per distinct lane width and holds references to ALL of them for
  // the whole run, so earlier entries must survive later constructions.
  static std::map<std::string, std::unique_ptr<core::DvsBusSystem>> cache;
  const std::string key =
      std::to_string(width) + ":" + std::to_string(lut_tolerance);
  auto it = cache.find(key);
  if (it == cache.end()) {
    interconnect::BusDesign design = width == 32
                                         ? paper_system().design()
                                         : interconnect::BusDesign::wide_bus(width);
    design.repeater_size = paper_system().design().repeater_size;
    core::SystemOptions options = options_with_progress("campaign bus");
    options.lut_config =
        core::lut_config_for_tolerance(lut_tolerance, options.lut_config);
    it = cache
             .emplace(key, std::make_unique<core::DvsBusSystem>(design, options))
             .first;
  }
  return *it->second;
}

// One trace source at `width` wires: a synthetic stream, one mini-CPU
// benchmark or a trace file, optionally bus-invert coded. Suite specs
// name no single benchmark and are expanded by sources_for.
std::unique_ptr<trace::TraceSource> source_for_lane(const core::TraceSpec& spec,
                                                    int width, std::size_t cycles,
                                                    bool bus_invert) {
  std::unique_ptr<trace::TraceSource> s;
  switch (spec.source) {
    case core::TraceSpec::Source::synthetic: {
      trace::SyntheticConfig cfg;
      cfg.style = spec.style;
      cfg.cycles = cycles;
      cfg.load_rate = spec.load_rate;
      cfg.activity = spec.activity;
      cfg.seed = spec.seed;
      cfg.n_bits = width;
      s = trace::make_synthetic_source(cfg, trace::to_string(spec.style));
      break;
    }
    case core::TraceSpec::Source::benchmark:
    case core::TraceSpec::Source::suite:
      s = benchmark_source(cpu::benchmark_by_name(spec.benchmark), cycles, width);
      break;
    case core::TraceSpec::Source::file: {
      s = trace::open_trace_stream(spec.path);
      if (s->n_bits() != width)
        throw std::invalid_argument("trace file " + spec.path + " is " +
                                    std::to_string(s->n_bits()) + " wires, job wants " +
                                    std::to_string(width));
      break;
    }
  }
  if (bus_invert) s = bus::bus_invert_encode_source(std::move(s));
  return s;
}

// The job's traces, one source per trace, at the job's width.
std::vector<std::unique_ptr<trace::TraceSource>> sources_for(
    const core::ScenarioSpec& spec, std::size_t cycles) {
  const int width = spec.widths.at(0);
  if (spec.trace.source != core::TraceSpec::Source::suite) {
    std::vector<std::unique_ptr<trace::TraceSource>> sources;
    sources.push_back(source_for_lane(spec.trace, width, cycles, spec.bus_invert));
    return sources;
  }
  auto sources = suite_sources(cycles, width);
  if (spec.bus_invert)
    for (auto& s : sources) s = bus::bus_invert_encode_source(std::move(s));
  return sources;
}

// A job's sources as the experiments consume them. A streamed job pulls
// them lazily; a "stream": false job materializes each source once and
// serves the resident trace. The word sequences are the same either way,
// so only the stream_* metrics tell the modes apart.
std::vector<std::unique_ptr<trace::TraceSource>> job_sources(
    std::vector<std::unique_ptr<trace::TraceSource>> sources, bool stream) {
  if (!stream)
    for (auto& s : sources) s = trace::make_trace_source(trace::materialize(*s));
  return sources;
}

// Block accounting of a streamed job, surfaced next to the experiment
// metrics (docs/bench-reports.md): how much trace was pulled and the
// peak-RSS-relevant per-shard buffer bound.
void record_stream_stats(ScenarioContext& ctx, const core::StreamStats& stats) {
  ctx.metric("stream_block_cycles", static_cast<double>(stats.block_cycles));
  ctx.metric("stream_blocks", static_cast<double>(stats.blocks));
  ctx.metric("stream_cycles", static_cast<double>(stats.cycles));
  ctx.metric("stream_peak_buffer_words", static_cast<double>(stats.peak_buffer_words));
}

std::string corner_key(const tech::PvtCorner& corner) {
  std::string key = tech::to_string(corner.process) + "_" +
                    std::to_string(static_cast<int>(corner.temp_c)) + "C";
  if (corner.ir_drop_fraction > 0.0)
    key += "_" + std::to_string(static_cast<int>(corner.ir_drop_fraction * 100.0 + 0.5)) +
           "ir";
  return key;
}

// The closed-loop settings of a declarative job: its threshold controller,
// or its proportional one.
sys::SystemRunConfig loop_config(const core::ScenarioSpec& spec, std::size_t cycles) {
  const core::ControllerSpec& controller = spec.controllers.at(0);
  sys::SystemRunConfig cfg;
  cfg.controller = controller.threshold;
  if (controller.kind == dvs::ControllerKind::proportional)
    cfg.proportional = controller.proportional;
  cfg.engine = spec.engine;
  cfg.timing_jitter_sigma = spec.timing_jitter_sigma;
  cfg.arbitration = spec.arbitration;
  cfg.drift = sys::schedule_from_spec(spec.drift, cycles);
  return cfg;
}

void run_closed_loop_job(const core::ScenarioSpec& spec, ScenarioContext& ctx) {
  const auto& system = system_for_job(spec.widths.at(0), spec.lut_tolerance);
  const core::ControllerSpec& controller = spec.controllers.at(0);
  const sys::SystemRunConfig cfg = loop_config(spec, ctx.cycles);
  const auto sources = job_sources(sources_for(spec, ctx.cycles), spec.stream);
  core::StreamStats stream_stats;

  Table table({"Corner", "Trace", "Gain (%)", "Err (%)", "Avg V (mV)", "Floor (mV)"});
  for (const auto& corner : spec.corners) {
    std::fprintf(stderr, "[%s @ %s]\n", controller.label().c_str(),
                 corner.name().c_str());
    std::vector<core::DvsRunReport> reports;
    std::vector<double> wall_tracking;
    std::uint64_t env_updates = 0;
    if (controller.kind == dvs::ControllerKind::fixed_vs) {
      reports = core::run_fixed_vs_suite_streamed(system, corner, sources, spec.engine,
                                                  spec.timing_jitter_sigma, {},
                                                  &stream_stats);
    } else if (!spec.drift.enabled) {
      reports = core::run_closed_loop_suite_streamed(system, corner, sources, cfg, {},
                                                     &stream_stats);
    } else {
      // Drift rides on a 1-lane BusSystem, which reports how the loop
      // tracked the band and how often the corner moved.
      const sys::BusSystem one_lane({{&system, 1.0}});
      for (const auto& source : sources) {
        std::vector<std::unique_ptr<trace::TraceSource>> one;
        one.push_back(source->clone());
        const sys::SystemRunReport rep =
            one_lane.run_closed_loop_streamed(corner, one, cfg, {}, &stream_stats);
        reports.push_back(rep.per_bus.front());
        wall_tracking.push_back(rep.wall_tracking_error);
        env_updates += rep.env_updates;
      }
    }
    for (std::size_t t = 0; t < sources.size(); ++t) {
      const core::DvsRunReport& r = reports[t];
      const std::string& trace_name = sources[t]->name();
      table.row()
          .add(corner.name())
          .add(trace_name)
          .add(100.0 * r.energy_gain(), 1)
          .add(100.0 * r.error_rate(), 2)
          .add(to_mV(r.average_supply), 0)
          .add(to_mV(r.floor_supply), 0);
      const std::string key = corner_key(corner) + "_" + trace_name;
      ctx.metric(key + "_gain", r.energy_gain());
      ctx.metric(key + "_error_rate", r.error_rate());
      ctx.metric(key + "_avg_supply", r.average_supply);
      if (spec.drift.enabled)
        ctx.metric(key + "_wall_tracking", wall_tracking.at(t));
    }
    if (spec.drift.enabled)
      ctx.metric(corner_key(corner) + "_env_updates",
                 static_cast<double>(env_updates));
  }
  ctx.table("closed_loop", table);
  ctx.note("controller", controller.label());
  ctx.note("engine", bus::to_string(spec.engine));
  ctx.note("width", std::to_string(spec.widths.at(0)));
  ctx.note("trace_mode", spec.stream ? "streamed" : "materialized");
  if (spec.drift.enabled) ctx.note("drift", "enabled");
  if (spec.lut_tolerance > 0.0)
    ctx.note("lut_tolerance", std::to_string(spec.lut_tolerance));
  if (spec.stream) record_stream_stats(ctx, stream_stats);
}

// N buses of mixed widths sharing one regulator (sys::BusSystem): the
// arbitration policy fuses per-lane window error counts into the single
// threshold-controller input; per-lane and system-aggregate metrics land
// under <corner>_bus<i>_* / <corner>_system_* (docs/bench-reports.md).
void run_multi_bus_job(const core::ScenarioSpec& spec, ScenarioContext& ctx) {
  std::vector<sys::BusLane> lanes;
  lanes.reserve(spec.buses.size());
  for (const auto& lane_spec : spec.buses)
    lanes.push_back(
        {&system_for_job(lane_spec.width, spec.lut_tolerance), lane_spec.weight});
  const sys::BusSystem system(std::move(lanes));

  const sys::SystemRunConfig cfg = loop_config(spec, ctx.cycles);

  // Sources are cloned inside the run, so one set serves every corner.
  std::vector<std::unique_ptr<trace::TraceSource>> lane_sources;
  for (const auto& lane_spec : spec.buses)
    lane_sources.push_back(
        source_for_lane(lane_spec.trace, lane_spec.width, ctx.cycles, spec.bus_invert));
  const auto sources = job_sources(std::move(lane_sources), spec.stream);
  core::StreamStats stream_stats;

  Table table({"Corner", "Bus", "Gain (%)", "Err (%)", "Avg V (mV)", "Floor (mV)"});
  for (const auto& corner : spec.corners) {
    std::fprintf(stderr, "[%zu-bus %s @ %s]\n", spec.buses.size(),
                 dvs::to_string(spec.arbitration).c_str(), corner.name().c_str());
    const sys::SystemRunReport report =
        system.run_closed_loop_streamed(corner, sources, cfg, {}, &stream_stats);
    const std::string ckey = corner_key(corner);
    for (std::size_t b = 0; b < report.per_bus.size(); ++b) {
      const core::DvsRunReport& r = report.per_bus[b];
      table.row()
          .add(corner.name())
          .add("bus" + std::to_string(b) + "_w" + std::to_string(spec.buses[b].width))
          .add(100.0 * r.energy_gain(), 1)
          .add(100.0 * r.error_rate(), 2)
          .add(to_mV(r.average_supply), 0)
          .add(to_mV(r.floor_supply), 0);
      const std::string key = ckey + "_bus" + std::to_string(b);
      ctx.metric(key + "_gain", r.energy_gain());
      ctx.metric(key + "_error_rate", r.error_rate());
      ctx.metric(key + "_avg_supply", r.average_supply);
    }
    ctx.metric(ckey + "_system_gain", report.energy_gain());
    ctx.metric(ckey + "_system_error_rate", report.error_rate());
    ctx.metric(ckey + "_system_avg_supply", report.average_supply);
    ctx.metric(ckey + "_system_wall_tracking", report.wall_tracking_error);
    if (spec.drift.enabled)
      ctx.metric(ckey + "_env_updates", static_cast<double>(report.env_updates));
  }
  ctx.table("multi_bus", table);
  ctx.note("buses", std::to_string(spec.buses.size()));
  ctx.note("arbitration", dvs::to_string(spec.arbitration));
  ctx.note("engine", bus::to_string(spec.engine));
  ctx.note("trace_mode", spec.stream ? "streamed" : "materialized");
  if (spec.drift.enabled) ctx.note("drift", "enabled");
  if (spec.lut_tolerance > 0.0)
    ctx.note("lut_tolerance", std::to_string(spec.lut_tolerance));
  if (spec.stream) record_stream_stats(ctx, stream_stats);
}

void run_static_sweep_job(const core::ScenarioSpec& spec, ScenarioContext& ctx) {
  const auto& system = system_for_job(spec.widths.at(0), spec.lut_tolerance);
  // A multi-trace sweep runs its traces back to back: their concatenation.
  auto sources = job_sources(sources_for(spec, ctx.cycles), spec.stream);
  const std::unique_ptr<trace::TraceSource> source =
      sources.size() == 1 ? std::move(sources.front())
                          : trace::concatenate_sources(std::move(sources), "suite");
  core::StreamStats stream_stats;

  for (const auto& corner : spec.corners) {
    std::fprintf(stderr, "[sweeping %s]\n", corner.name().c_str());
    const core::StaticSweepResult sweep = core::static_voltage_sweep_streamed(
        system, corner, *source, spec.timing_jitter_sigma, spec.engine, {},
        &stream_stats);
    Table table({"Supply (mV)", "Error Rate (%)", "Bus Energy (norm)",
                 "Bus+Recovery (norm)"});
    for (auto it = sweep.points.rbegin(); it != sweep.points.rend(); ++it) {
      table.row()
          .add(to_mV(it->supply), 0)
          .add(100.0 * it->error_rate, 2)
          .add(it->norm_bus_energy, 3)
          .add(it->norm_total_energy, 3);
    }
    ctx.table(corner_key(corner), table);
    ctx.metric(corner_key(corner) + "_floor_mV", to_mV(sweep.floor_supply));
    ctx.metric(corner_key(corner) + "_norm_energy_at_floor",
               sweep.points.front().norm_total_energy);
  }
  ctx.note("engine", bus::to_string(spec.engine));
  ctx.note("width", std::to_string(spec.widths.at(0)));
  ctx.note("trace_mode", spec.stream ? "streamed" : "materialized");
  if (spec.lut_tolerance > 0.0)
    ctx.note("lut_tolerance", std::to_string(spec.lut_tolerance));
  if (spec.stream) record_stream_stats(ctx, stream_stats);
}

// ----------------------------------------------------------------- run-one

// Executes one expanded job in-process through the shared run_scenario
// path (identical reports to `campaign scenario` by construction).
int run_one(const std::string& spec_path, const std::string& json_flag) {
  const core::ScenarioSpec spec =
      core::ScenarioSpec::from_json(Json::parse_file(spec_path));

  Scenario scenario;
  if (spec.kind == core::ScenarioSpec::Kind::bench) {
    scenario = scenario_by_name(spec.bench);
  } else {
    if (spec.cycles == 0)
      throw std::invalid_argument("job '" + spec.name +
                                  "': declarative scenarios need a cycle budget "
                                  "(scenario 'cycles' or campaign defaults)");
    scenario.name = spec.name;
    switch (spec.kind) {
      case core::ScenarioSpec::Kind::closed_loop:
        scenario.description = "declarative closed-loop DVS (" +
                               spec.controllers.at(0).label() + ", " +
                               std::to_string(spec.widths.at(0)) + " wires)";
        break;
      case core::ScenarioSpec::Kind::multi_bus:
        scenario.description = "declarative multi-bus shared-supply DVS (" +
                               std::to_string(spec.buses.size()) + " buses, " +
                               dvs::to_string(spec.arbitration) + ")";
        break;
      default:
        scenario.description = "declarative static voltage sweep (" +
                               std::to_string(spec.widths.at(0)) + " wires)";
        break;
    }
    if (spec.drift.enabled) scenario.description += " [drift]";
    if (spec.stream) scenario.description += " [streamed]";
    scenario.paper_ref = "campaign spec " + spec_path;
    scenario.default_cycles = spec.cycles;
    scenario.run = [spec](ScenarioContext& ctx) {
      if (spec.kind == core::ScenarioSpec::Kind::closed_loop)
        run_closed_loop_job(spec, ctx);
      else if (spec.kind == core::ScenarioSpec::Kind::multi_bus)
        run_multi_bus_job(spec, ctx);
      else
        run_static_sweep_job(spec, ctx);
    };
  }

  // Synthesize the exact argv `campaign scenario` would have been given.
  std::vector<std::string> args;
  args.push_back("campaign run-one");
  if (scenario.default_cycles > 0 && spec.cycles > 0)
    args.push_back("--cycles=" + std::to_string(spec.cycles));
  args.push_back("--threads=" + std::to_string(spec.threads));
  args.push_back(json_flag);
  for (const auto& [key, value] : spec.flags) args.push_back("--" + key + "=" + value);
  std::vector<char*> argv;
  argv.reserve(args.size());
  for (auto& arg : args) argv.push_back(arg.data());
  return run_scenario(static_cast<int>(argv.size()), argv.data(), scenario);
}

// ------------------------------------------------------------- service CLI

struct Expanded {
  core::CampaignSpec campaign;
  std::vector<core::ScenarioJob> jobs;
};

Expanded expand(const std::string& campaign_path) {
  Expanded out;
  out.campaign = core::CampaignSpec::from_file(campaign_path);
  out.jobs = core::expand_campaign(out.campaign);
  // Fail-fast contract (DESIGN.md §11): a typo'd bench name must surface
  // now, not after the jobs ahead of it have burned their budgets.
  for (const auto& job : out.jobs)
    if (job.spec.kind == core::ScenarioSpec::Kind::bench)
      scenario_by_name(job.spec.bench);  // throws, listing the known names
  return out;
}

// The flags `run` and `worker` share. Jobs always execute as `run-one`
// children of this binary. Out-of-range counts are rejected, not clamped.
svc::ServiceConfig service_config(const char* self, const CliFlags& flags,
                                  const std::string& default_out) {
  svc::ServiceConfig config;
  config.out_dir = flags.get("out", default_out);
  config.cache_dir = flags.get("cache", "");
  config.runner = self;
  // Each worker is a thread of this process; the cap keeps a typo from
  // spawning a runaway pool.
  const std::int64_t workers = flags.get_int("workers", 1);
  if (workers < 1 || workers > 1024)
    throw std::invalid_argument("flag --workers expects 1 <= N <= 1024, got " +
                                std::to_string(workers));
  const std::int64_t max_jobs = flags.get_int("max_jobs", 0);
  if (max_jobs < 0)
    throw std::invalid_argument("flag --max_jobs expects N >= 0, got " +
                                std::to_string(max_jobs));
  config.workers = static_cast<unsigned>(workers);
  config.max_jobs = static_cast<std::size_t>(max_jobs);
  return config;
}

// --shard=K/N: this host runs hash-assigned shard K of N, 0 <= K < N.
void parse_shard(const std::string& text, svc::ServiceConfig& config) {
  const auto is_count = [](const std::string& s) {
    return !s.empty() && s.size() <= 9 &&
           std::all_of(s.begin(), s.end(),
                       [](unsigned char c) { return std::isdigit(c) != 0; });
  };
  const auto slash = text.find('/');
  const std::string k = text.substr(0, slash);
  const std::string n = slash == std::string::npos ? "" : text.substr(slash + 1);
  if (!is_count(k) || !is_count(n) || std::stoi(k) >= std::stoi(n))
    throw std::invalid_argument("flag --shard expects K/N with 0 <= K < N, got '" +
                                text + "'");
  config.shard_index = std::stoi(k);
  config.shard_count = std::stoi(n);
}

void print_summary(const std::string& name, const svc::CampaignService::Summary& s,
                   const std::string& wrote) {
  const auto cached = s.cached_prior + static_cast<std::size_t>(s.cache_hits);
  std::printf("\n[%s: %zu job(s), %zu cached (%llu cache hit(s)), %zu executed, "
              "%zu failed, %.2f s]%s%s\n",
              name.c_str(), s.jobs_total, cached,
              static_cast<unsigned long long>(s.cache_hits), s.executed, s.failed,
              s.wall_seconds, wrote.empty() ? "" : " wrote ", wrote.c_str());
}

int run(const char* self, const std::string& campaign_path, const CliFlags& flags) {
  Expanded ex = expand(campaign_path);
  svc::ServiceConfig config =
      service_config(self, flags, "campaign_out/" + ex.campaign.name);
  config.force = flags.get_bool("force", false);
  const std::string shard = flags.get("shard", "");
  if (!shard.empty()) parse_shard(shard, config);
  const std::string consolidated = flags.get(
      "json", (fs::path(config.out_dir) / "BENCH_campaign.json").string());
  flags.reject_unused();

  std::printf("campaign '%s': %zu scenario(s) -> %zu job(s)%s\n",
              ex.campaign.name.c_str(), ex.campaign.scenarios.size(), ex.jobs.size(),
              shard.empty() ? "" : (" (shard " + shard + ")").c_str());

  const std::string name = ex.campaign.name;
  svc::CampaignService service(std::move(ex.campaign), std::move(ex.jobs),
                               std::move(config));
  service.prepare();
  const auto summary = service.run();
  svc::write_file_atomic(consolidated, service.aggregate().dump(2) + "\n");
  print_summary(name, summary, consolidated);
  if (!summary.drained)
    std::printf("queue not drained (max_jobs budget or external claims): resume "
                "with `campaign run` or attach `campaign worker`\n");
  return summary.failed == 0 ? 0 : 1;
}

int worker(const char* self, const CliFlags& flags) {
  svc::ServiceConfig config = service_config(self, flags, "campaign_out");
  // A worker's status snapshots must not clobber the owning scheduler's.
  config.status_path =
      (fs::path(config.out_dir) / ("status.worker" + std::to_string(::getpid()) +
                                   ".json")).string();
  flags.reject_unused();

  svc::CampaignService service(std::move(config));
  if (service.queue().jobs().empty()) {
    std::printf("campaign worker: nothing queued under %s\n",
                service.config().out_dir.c_str());
    return 0;
  }
  const auto summary = service.run();
  print_summary("worker", summary, "");
  return summary.failed == 0 ? 0 : 1;
}

int status(const CliFlags& flags) {
  const std::string out_dir = flags.get("out", "campaign_out");
  flags.reject_unused();
  const std::string path = (fs::path(out_dir) / "status.json").string();
  Json status_json;
  try {
    status_json = Json::parse_file(path);
  } catch (const std::exception&) {
    std::printf("campaign: no status at %s (has a campaign run here?)\n", path.c_str());
    return 1;
  }
  const auto count = [&](const char* key) {
    const Json* v = status_json.find(key);
    return v != nullptr && v->is_number() ? v->as_double() : 0.0;
  };
  std::printf("campaign '%s' (%s)\n", status_json.at("campaign").as_string().c_str(),
              out_dir.c_str());
  std::printf("  jobs: %.0f total, %.0f pending, %.0f running, %.0f done, "
              "%.0f failed\n",
              count("jobs_total"), count("pending"), count("running"), count("done"),
              count("failed"));
  std::printf("  cache: %.0f hit(s), %.0f miss(es), hit rate %.0f%%, "
              "%.0f resumed-as-done\n",
              count("cache_hits"), count("cache_misses"),
              100.0 * count("cache_hit_rate"), count("cached_prior"));
  std::printf("  throughput: %.0f executed (%.0f simulated cycles), %.2f s, "
              "%.2f jobs/s\n",
              count("executed"), count("executed_cycles"), count("wall_seconds"),
              count("jobs_per_second"));
  if (const Json* jobs = status_json.find("jobs"); jobs != nullptr && jobs->is_object())
    for (const auto& [name, state] : jobs->members())
      std::printf("    %-40s %s\n", name.c_str(), state.as_string().c_str());
  return 0;
}

int manifest(const std::string& campaign_path, const CliFlags& flags) {
  Expanded ex = expand(campaign_path);
  const std::int64_t requested = flags.get_int("shards", 0);
  if (requested < 1 || requested > std::numeric_limits<int>::max())
    throw std::invalid_argument("manifest wants --shards=N (N >= 1)");
  const auto shards = static_cast<int>(requested);
  const std::string out_dir = flags.get("out", "campaign_out/" + ex.campaign.name);
  flags.reject_unused();

  fs::create_directories(out_dir);
  std::vector<Json> lists;
  for (int s = 0; s < shards; ++s) lists.push_back(Json::array());
  for (const auto& job : ex.jobs) {
    const auto shard = static_cast<int>(core::job_content_hash(job) %
                                        static_cast<std::uint64_t>(shards));
    Json entry = Json::object();
    entry.set("name", job.name);
    entry.set("hash", core::job_hash_hex(job));
    lists[static_cast<std::size_t>(shard)].push(std::move(entry));
  }
  for (int s = 0; s < shards; ++s) {
    Json doc = Json::object();
    doc.set("campaign", ex.campaign.name);
    doc.set("shard", s);
    doc.set("shards", shards);
    doc.set("hash_scheme", static_cast<long long>(core::kJobHashSchemeVersion));
    doc.set("jobs", std::move(lists[static_cast<std::size_t>(s)]));
    const std::string path =
        (fs::path(out_dir) / ("shard_" + std::to_string(s) + "_of_" +
                              std::to_string(shards) + ".json")).string();
    svc::write_file_atomic(path, doc.dump(2) + "\n");
    std::printf("  shard %d/%d: %zu job(s) -> %s\n", s, shards,
                doc.at("jobs").size(), path.c_str());
  }
  std::printf("run each shard with `campaign run %s --shard=K/%d` against a "
              "shared --cache directory\n",
              campaign_path.c_str(), shards);
  return 0;
}

// Without a file: the registered bench scenarios. With one: its expanded
// jobs, each with the content hash that keys the result cache.
int list(const std::vector<std::string>& positional) {
  if (positional.size() == 2) {
    const Expanded ex = expand(positional[1]);
    std::printf("campaign '%s': %zu scenario(s) -> %zu job(s)\n",
                ex.campaign.name.c_str(), ex.campaign.scenarios.size(),
                ex.jobs.size());
    std::printf("hash scheme v%u, simulator v%u\n", core::kJobHashSchemeVersion,
                lut::kSimulatorVersion);
    for (const auto& job : ex.jobs)
      std::printf("  %s  %s\n", core::job_hash_hex(job).c_str(), job.name.c_str());
    return 0;
  }
  std::printf("registered scenarios (run with `campaign scenario <name>`, or as "
              "\"bench\" spec entries):\n");
  for (const auto& scenario : all_scenarios())
    std::printf("  %-26s %s\n", scenario.name.c_str(), scenario.description.c_str());
  return 0;
}

constexpr const char* kUsage =
    "usage: campaign run <campaign.json> [--out=DIR] [--cache=DIR] [--workers=N] "
    "[--force] [--max_jobs=N] [--shard=K/N] [--json=PATH]\n"
    "       campaign worker [--out=DIR] [--cache=DIR] [--workers=N] [--max_jobs=N]\n"
    "       campaign status [--out=DIR]\n"
    "       campaign manifest <campaign.json> --shards=N [--out=DIR]\n"
    "       campaign list [<campaign.json>]\n"
    "       campaign scenario <name> [--cycles=N] [--threads=N] [--json[=PATH]] "
    "[--<scenario flag>=V]\n"
    "       campaign run-one <job.spec.json> --json=PATH";

}  // namespace

int main(int argc, char** argv) {
  try {
    CliFlags flags(argc, argv);
    const auto& positional = flags.positional();
    const std::string command = positional.empty() ? "" : positional[0];
    // Each subcommand's positional arity: run, manifest and run-one take a
    // file, scenario takes a name; list takes an optional file.
    const bool one_file = positional.size() == 2;
    const bool no_file = positional.size() == 1;

    if (command == "run" && one_file) return run(argv[0], positional[1], flags);
    if (command == "worker" && no_file) return worker(argv[0], flags);
    if (command == "status" && no_file) return status(flags);
    if (command == "manifest" && one_file) return manifest(positional[1], flags);
    if (command == "list" && (no_file || one_file)) {
      flags.reject_unused();
      return list(positional);
    }
    // run_scenario parses the flags itself and rejects unknown ones before
    // any work; an unknown name throws here, listing the known names.
    if (command == "scenario" && one_file)
      return run_scenario(argc, argv, scenario_by_name(positional[1]));
    if (command == "run-one" && one_file) {
      const std::string json_flag = "--json=" + flags.get("json", "true");
      flags.reject_unused();
      return run_one(positional[1], json_flag);
    }
    throw std::invalid_argument(kUsage);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "campaign: %s\n", e.what());
    return 2;
  }
}

// Declarative scenario-campaign runner (DESIGN.md §11) — a thin client
// over the campaign service (docs/campaignd.md).
//
//   campaign run <campaign.json> [--out=DIR] [--jobs=N] [--cache=DIR]
//                [--force] [--dry_run] [--json=PATH]
//   campaign list [<campaign.json>]
//   campaign run-one <job.spec.json> --json=PATH   (internal)
//
// `run` expands the campaign file into the scenario cross product
// (scenarios x widths x controllers) and hands the jobs to
// svc::CampaignService: the durable queue under <out>/queue makes runs
// resumable after any kill, and the content-hash result cache under
// <out>/cache (shareable via --cache) replays previously-completed jobs'
// BENCH_<job>.json byte-for-byte without simulating. Each executed job is
// a `campaign run-one` subprocess (--jobs at a time) whose stdout/stderr
// land in <out>/<job>.log; per-job reports aggregate into one consolidated
// BENCH_campaign.json. A half-written report or queue record from an
// interrupted run fails its parse and reruns — the same torn-file
// tolerance lut::PointStore applies. Jobs referencing a registered bench
// scenario run the exact legacy harness code path, so their reports are
// byte-identical to the standalone binaries' (modulo wall-clock fields) —
// enforced by tests/campaign_test.cpp. `campaignd` drives the same
// service with workers, shard manifests and a status surface.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>

#include "bus/businvert.hpp"
#include "core/scenario_spec.hpp"
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

// One mini-CPU benchmark's load stream at `width` wires: 32-bit loads,
// packed into flits of consecutive words on wider buses (the README
// "memory bus" recipe).
std::unique_ptr<trace::TraceSource> benchmark_source(const cpu::Benchmark& bench,
                                                     int width, std::size_t cycles) {
  if (width % 32 != 0)
    throw std::invalid_argument("benchmark traces require a width that is a "
                                "multiple of 32, got " +
                                std::to_string(width));
  const int factor = width / 32;
  auto s = bench.stream(cycles * static_cast<std::size_t>(factor));
  if (factor > 1) s = trace::widen_source(std::move(s), factor);
  return s;
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
      s = benchmark_source(cpu::benchmark_by_name(spec.benchmark), width, cycles);
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
  std::vector<std::unique_ptr<trace::TraceSource>> sources;
  if (spec.trace.source != core::TraceSpec::Source::suite) {
    sources.push_back(source_for_lane(spec.trace, width, cycles, spec.bus_invert));
    return sources;
  }
  for (const auto& bench : cpu::spec2000_suite()) {
    sources.push_back(benchmark_source(bench, width, cycles));
    if (spec.bus_invert)
      sources.back() = bus::bus_invert_encode_source(std::move(sources.back()));
  }
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

// The closed-loop settings of a declarative job (threshold controller).
sys::SystemRunConfig loop_config(const core::ScenarioSpec& spec, std::size_t cycles) {
  sys::SystemRunConfig cfg;
  cfg.controller = spec.controllers.at(0).threshold;
  cfg.engine = spec.engine;
  cfg.timing_jitter_sigma = spec.timing_jitter_sigma;
  cfg.lut_tolerance = spec.lut_tolerance;
  cfg.arbitration = spec.arbitration;
  cfg.drift = sys::schedule_from_spec(spec.drift, cycles);
  return cfg;
}

void run_closed_loop_job(const core::ScenarioSpec& spec, ScenarioContext& ctx) {
  const auto& system = system_for_job(spec.widths.at(0), spec.lut_tolerance);
  const core::ControllerSpec& controller = spec.controllers.at(0);
  const auto sources = job_sources(sources_for(spec, ctx.cycles), spec.stream);
  core::StreamStats stream_stats;

  Table table({"Corner", "Trace", "Gain (%)", "Err (%)", "Avg V (mV)", "Floor (mV)"});
  for (const auto& corner : spec.corners) {
    std::fprintf(stderr, "[%s @ %s]\n", controller.label().c_str(),
                 corner.name().c_str());
    std::vector<core::DvsRunReport> reports;
    std::vector<double> wall_tracking;
    std::uint64_t env_updates = 0;
    switch (controller.kind) {
      case dvs::ControllerKind::threshold: {
        const sys::SystemRunConfig cfg = loop_config(spec, ctx.cycles);
        if (!spec.drift.enabled) {
          reports = core::run_closed_loop_suite_streamed(system, corner, sources,
                                                         cfg, {}, &stream_stats);
          break;
        }
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
        break;
      }
      case dvs::ControllerKind::proportional: {
        core::ProportionalRunConfig cfg;
        cfg.controller = controller.proportional;
        cfg.engine = spec.engine;
        cfg.timing_jitter_sigma = spec.timing_jitter_sigma;
        for (const auto& source : sources)
          reports.push_back(core::run_closed_loop_proportional_streamed(
              system, corner, *source, cfg, {}, &stream_stats));
        break;
      }
      case dvs::ControllerKind::fixed_vs:
        reports = core::run_fixed_vs_suite_streamed(system, corner, sources,
                                                    spec.engine, spec.timing_jitter_sigma,
                                                    {}, &stream_stats);
        break;
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
// path (identical reports to the legacy binaries by construction).
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

  // Synthesize the exact argv the standalone binary would have been given.
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

// --------------------------------------------------------------------- run

int run_campaign(const std::string& self, const std::string& campaign_path,
                 CliFlags& flags) {
  const core::CampaignSpec campaign = core::CampaignSpec::from_file(campaign_path);
  std::vector<core::ScenarioJob> jobs = core::expand_campaign(campaign);
  // Fail-fast contract (DESIGN.md §11): a typo'd bench name must surface
  // now, not after the jobs ahead of it have burned their budgets.
  for (const auto& job : jobs)
    if (job.spec.kind == core::ScenarioSpec::Kind::bench)
      scenario_by_name(job.spec.bench);  // throws, listing the known names

  svc::ServiceConfig config;
  config.out_dir = flags.get("out", "campaign_out/" + campaign.name);
  config.cache_dir = flags.get("cache", "");
  config.runner = self;  // jobs execute as `campaign run-one` children
  config.workers = static_cast<unsigned>(
      std::max<std::int64_t>(1, flags.get_int("jobs", 1)));
  config.force = flags.get_bool("force", false);
  const bool dry_run = flags.get_bool("dry_run", false);
  const std::string consolidated = flags.get("json", "BENCH_campaign.json");
  flags.reject_unused();

  std::printf("campaign '%s': %zu scenario(s) -> %zu job(s)\n", campaign.name.c_str(),
              campaign.scenarios.size(), jobs.size());
  if (dry_run) {
    for (const auto& job : jobs) std::printf("  %s\n", job.name.c_str());
    return 0;
  }

  // All the heavy lifting — durable queue reconciliation (resume), the
  // content-hash result cache, worker scheduling, status snapshots — is
  // the shared service; this client keeps the PR-4 CLI and output shape.
  svc::CampaignService service(campaign, std::move(jobs), std::move(config));
  service.prepare();
  const svc::CampaignService::Summary summary = service.run();

  svc::write_file_atomic(consolidated, service.aggregate().dump(2) + "\n");
  const std::size_t cached =
      summary.cached_prior + static_cast<std::size_t>(summary.cache_hits);
  std::printf("\n[%s: %zu job(s), %zu cached, %zu failed, %.2f s] wrote %s\n",
              campaign.name.c_str(), summary.jobs_total, cached, summary.failed,
              summary.wall_seconds, consolidated.c_str());
  return summary.failed == 0 ? 0 : 1;
}

int list_scenarios(const CliFlags& flags) {
  if (!flags.positional().empty() && flags.positional().size() >= 2) {
    const core::CampaignSpec campaign =
        core::CampaignSpec::from_file(flags.positional()[1]);
    std::printf("campaign '%s': %zu scenario(s)\n", campaign.name.c_str(),
                campaign.scenarios.size());
    for (const auto& job : core::expand_campaign(campaign))
      std::printf("  %s\n", job.name.c_str());
    return 0;
  }
  std::printf("registered bench scenarios (usable as \"bench\" spec entries):\n");
  for (const auto& scenario : all_scenarios())
    std::printf("  %-26s %s\n", scenario.name.c_str(), scenario.description.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    CliFlags flags(argc, argv);
    const auto& positional = flags.positional();
    const std::string command = positional.empty() ? "" : positional[0];

    if (command == "list") {
      const int rc = list_scenarios(flags);
      flags.reject_unused();
      return rc;
    }
    if (command == "run") {
      if (positional.size() != 2)
        throw std::invalid_argument("usage: campaign run <campaign.json> [--out=DIR] "
                                    "[--jobs=N] [--force] [--dry_run] [--json=PATH]");
      return run_campaign(argv[0], positional[1], flags);
    }
    if (command == "run-one") {
      if (positional.size() != 2)
        throw std::invalid_argument("usage: campaign run-one <job.spec.json> "
                                    "[--json=PATH]");
      const std::string json_flag = "--json=" + flags.get("json", "true");
      flags.reject_unused();
      return run_one(positional[1], json_flag);
    }
    throw std::invalid_argument(
        "usage: campaign run <campaign.json> | campaign list [<campaign.json>] | "
        "campaign run-one <job.spec.json>");
  } catch (const std::exception& e) {
    std::fprintf(stderr, "campaign: %s\n", e.what());
    return 2;
  }
}

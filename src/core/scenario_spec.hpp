// Declarative scenario campaigns (DESIGN.md §11).
//
// A campaign file is a JSON document declaring a list of scenarios. Each
// scenario is either a reference to a registered bench harness ("bench":
// "fig4_voltage_sweep") or a fully declarative experiment ("experiment":
// "closed_loop" / "static_sweep" / "multi_bus") built from data: trace
// source (synthetic family + seed, mini-CPU benchmark, the whole suite, or
// a trace file), bus widths, encoding, DVS controllers, PVT corners, cycle
// budget, thread count, engine mode — and, for multi_bus, the per-bus lane
// list plus the cross-bus arbitration policy, and for closed-loop kinds an
// optional drift schedule. The `widths` and `controllers` axes are
// cross-product axes: expand_campaign() multiplies them out into concrete
// single-width single-controller ScenarioJobs the `campaign` binary
// executes as shards.
//
// Parsing is STRICT: unknown keys, wrong value types and out-of-range
// widths all throw std::invalid_argument naming the offending field, so a
// typo'd campaign file fails before any characterization work starts.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "bus/simulator.hpp"
#include "dvs/arbitration.hpp"
#include "dvs/controller.hpp"
#include "dvs/proportional.hpp"
#include "tech/corner.hpp"
#include "trace/synthetic.hpp"
#include "util/json.hpp"

namespace razorbus::core {

// Where a declarative scenario's bus words come from.
struct TraceSpec {
  enum class Source { synthetic, benchmark, suite, file };
  Source source = Source::synthetic;

  // source == synthetic
  trace::SyntheticStyle style = trace::SyntheticStyle::uniform;
  double load_rate = 0.4;
  double activity = 0.5;
  std::uint64_t seed = 1;

  // source == benchmark: one mini-CPU kernel by name (suite = all 10).
  std::string benchmark;

  // source == file: a trace file saved by trace::save_trace_file.
  std::string path;

  static TraceSpec from_json(const Json& json);
  Json to_json() const;
};

// One supply-control scheme of the `controllers` axis.
struct ControllerSpec {
  dvs::ControllerKind kind = dvs::ControllerKind::threshold;
  dvs::ControllerConfig threshold{};        // kind == threshold
  dvs::ProportionalConfig proportional{};   // kind == proportional
  // Optional explicit axis label ({"label": "tight_band"}); tuning sweeps
  // over one controller kind need it to keep their job names distinct
  // (unlabelled duplicates are auto-suffixed _2, _3, ... on expansion).
  std::string custom_label;

  // Axis label used in job names and metric keys ("threshold", ...).
  std::string label() const {
    return custom_label.empty() ? dvs::to_string(kind) : custom_label;
  }

  // Accepts a bare string ("threshold") or an object with tuning knobs
  // ({"kind": "threshold", "low": 0.01, "high": 0.02, "window": 10000}).
  static ControllerSpec from_json(const Json& json);
  Json to_json() const;
};

// One bus of a `multi_bus` system scenario (docs/campaigns.md `buses`):
// its own width and traffic source, plus the arbitration weight read by
// the `weighted` fusion policy. Lengths and electrical knobs follow the
// width via interconnect::wide_bus, like single-bus jobs.
struct BusSpec {
  int width = 32;
  double weight = 1.0;
  TraceSpec trace;

  static BusSpec from_json(const Json& json);
  Json to_json() const;
};

// Environmental drift over a closed_loop / multi_bus run (docs/campaigns.md
// `drift`): either a linear ramp over the job's cycle budget or explicit
// piecewise breakpoints. Temperatures are absolute junction temperatures
// (they replace the corner's temp_c, quantised to the characterised axis);
// `vth_shift` is the aging-induced threshold increase in volts. Pure data —
// sys::schedule_from_spec resolves it into a drift::Schedule once the cycle
// budget is known.
struct DriftPointSpec {
  std::uint64_t cycle = 0;
  double temp_c = 25.0;
  double vth_shift = 0.0;
};

struct DriftSpec {
  bool enabled = false;
  // Linear form (points empty): ramp from start at cycle 0 to end at the
  // job's resolved cycle budget.
  double temp_start = 25.0;
  double temp_end = 25.0;
  double vth_shift_start = 0.0;
  double vth_shift_end = 0.0;
  // Piecewise form: breakpoints with strictly increasing cycles.
  std::vector<DriftPointSpec> points;

  static DriftSpec from_json(const Json& json);
  Json to_json() const;
};

struct ScenarioSpec {
  // bench: a registered harness run through the exact legacy code path.
  // closed_loop / static_sweep / multi_bus: declarative experiments
  // (multi_bus = N buses sharing one regulator, sys::BusSystem).
  enum class Kind { bench, closed_loop, static_sweep, multi_bus };

  std::string name;  // job-name stem; defaults to the bench name
  Kind kind = Kind::bench;

  // kind == bench
  std::string bench;
  // Extra --name=value flags forwarded to the harness (insertion order).
  std::vector<std::pair<std::string, std::string>> flags;

  // Shared knobs.
  std::size_t cycles = 0;   // 0 = scenario/campaign default
  unsigned threads = 0;     // executor width; 0 = hardware concurrency
  bus::EngineMode engine = bus::EngineMode::bit_parallel;

  // Declarative knobs (cross-product axes: widths x controllers).
  TraceSpec trace;
  std::vector<int> widths{32};
  // closed_loop and multi_bus; default threshold. multi_bus restricts the
  // axis to threshold controllers (arbitration fuses into one threshold
  // controller input).
  std::vector<ControllerSpec> controllers;
  std::vector<tech::PvtCorner> corners;     // default: typical

  // kind == multi_bus: the lanes of the shared-supply system and the
  // cross-bus error-fusion policy (docs/campaigns.md `buses`).
  std::vector<BusSpec> buses;
  dvs::ArbitrationPolicy arbitration = dvs::ArbitrationPolicy::max_error;

  // closed_loop / multi_bus: optional environmental drift schedule.
  DriftSpec drift;
  bool bus_invert = false;  // encode the trace with bus-invert coding first
  double timing_jitter_sigma = 0.0;
  // Stream the trace through the experiment in bounded-memory blocks
  // (DESIGN.md §12) instead of materializing it: `cycles` may then exceed
  // what RAM could hold (results are bit-identical either way; the job
  // report gains stream_* block-accounting metrics).
  bool stream = false;
  // Relative error envelope for adaptive characterization of the system's
  // delay/energy table (docs/characterization.md). 0 keeps every grid
  // voltage; core::kDefaultLutTolerance is the recommended opt-in value.
  double lut_tolerance = 0.0;

  static ScenarioSpec from_json(const Json& json);
  Json to_json() const;
};

struct CampaignSpec {
  std::string name;
  std::string description;
  std::size_t default_cycles = 0;  // applied to scenarios with cycles == 0
  unsigned default_threads = 0;
  std::vector<ScenarioSpec> scenarios;

  static CampaignSpec from_json(const Json& json);
  // Reads and parses a campaign file; throws std::runtime_error on I/O
  // failure and std::invalid_argument / JsonParseError on bad content.
  static CampaignSpec from_file(const std::string& path);
  Json to_json() const;
};

// One runnable unit after cross-product expansion: a single width, a single
// controller, cycles/threads resolved against the campaign defaults. The
// job name is the scenario name plus `_w<width>` / `_<controller>` suffixes
// for every axis with more than one value.
struct ScenarioJob {
  std::string name;
  ScenarioSpec spec;
};

// Expands scenarios x widths x controllers; throws std::invalid_argument
// when two jobs would collide on a name.
std::vector<ScenarioJob> expand_campaign(const CampaignSpec& campaign);

// Named PVT corner for specs: "typical", "worst" / "worst_case", or one of
// tech::fig5_corners() as "fig5_1" .. "fig5_5".
tech::PvtCorner corner_from_spec_name(const std::string& name);

// Accepted-key introspection for the schema reference in docs/campaigns.md:
// parses `campaign` (a campaign document) with key recording enabled and
// returns, per spec object ("campaign", "defaults", "scenario", "trace",
// "controllers", "corners", "buses", "drift", "drift_points"), every key
// the STRICT parser actually looked
// up along the branches the document exercised. Because unknown keys
// throw, looked-up keys == accepted keys. tests/docs_test.cpp feeds this
// an exemplar document covering every branch and cross-checks the result
// against the documented schema tables, so the docs cannot drift from the
// parser.
std::map<std::string, std::set<std::string>> record_accepted_keys(const Json& campaign);

}  // namespace razorbus::core

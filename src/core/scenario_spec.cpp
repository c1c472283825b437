#include "core/scenario_spec.hpp"

#include <map>
#include <set>
#include <stdexcept>

#include "util/busword.hpp"

namespace razorbus::core {

namespace {

[[noreturn]] void bad_spec(const std::string& where, const std::string& message) {
  throw std::invalid_argument("scenario spec: " + where + ": " + message);
}

// When set (record_accepted_keys), every key a Fields reader asks about is
// recorded under its object name — the introspection behind the
// docs/campaigns.md schema cross-check.
// razorlint: allow(no-mutable-static): docs-introspection hook, thread-local
// and null outside record_accepted_keys; parsing results never depend on it.
thread_local std::map<std::string, std::set<std::string>>* g_key_recorder = nullptr;

// Strict reader over one JSON object: typed getters that name the offending
// field on a type mismatch, plus an unknown-key check once parsing is done.
class Fields {
 public:
  Fields(const Json& json, std::string where) : json_(json), where_(std::move(where)) {
    if (!json.is_object()) bad_spec(where_, "expected a JSON object");
  }

  const Json* find(const std::string& key) {
    seen_.insert(key);
    if (g_key_recorder != nullptr) (*g_key_recorder)[where_].insert(key);
    return json_.find(key);
  }

  bool has(const std::string& key) { return find(key) != nullptr; }

  std::string get_string(const std::string& key, const std::string& fallback) {
    const Json* v = find(key);
    if (v == nullptr) return fallback;
    if (!v->is_string()) bad_spec(where_, "'" + key + "' must be a string");
    return v->as_string();
  }

  long long get_int(const std::string& key, long long fallback) {
    const Json* v = find(key);
    if (v == nullptr) return fallback;
    if (!v->is_integer()) bad_spec(where_, "'" + key + "' must be an integer");
    return v->as_int();
  }

  double get_double(const std::string& key, double fallback) {
    const Json* v = find(key);
    if (v == nullptr) return fallback;
    if (!v->is_number()) bad_spec(where_, "'" + key + "' must be a number");
    return v->as_double();
  }

  bool get_bool(const std::string& key, bool fallback) {
    const Json* v = find(key);
    if (v == nullptr) return fallback;
    if (!v->is_bool()) bad_spec(where_, "'" + key + "' must be a boolean");
    return v->as_bool();
  }

  // Throws when the object holds keys nothing asked about (typo defence —
  // a misspelled "cycels" must not silently run with the default).
  void reject_unknown() const {
    for (const auto& member : json_.members())
      if (seen_.count(member.first) == 0)
        bad_spec(where_, "unknown key '" + member.first + "'");
  }

  const std::string& where() const { return where_; }

 private:
  const Json& json_;
  std::string where_;
  std::set<std::string> seen_;
};

tech::PvtCorner corner_from_json(const Json& json, const std::string& where) {
  if (json.is_string()) return corner_from_spec_name(json.as_string());
  Fields f(json, where);
  tech::PvtCorner corner;
  const std::string process = f.get_string("process", "typical");
  try {
    corner.process = tech::process_corner_from_string(process);
  } catch (const std::invalid_argument& e) {
    bad_spec(where, e.what());
  }
  corner.temp_c = f.get_double("temp_c", 100.0);
  corner.ir_drop_fraction = f.get_double("ir_drop", 0.0);
  if (corner.ir_drop_fraction < 0.0 || corner.ir_drop_fraction >= 1.0)
    bad_spec(where, "'ir_drop' must be in [0, 1)");
  f.reject_unknown();
  return corner;
}

Json corner_to_json(const tech::PvtCorner& corner) {
  Json j = Json::object();
  j.set("process", tech::to_string(corner.process));
  j.set("temp_c", corner.temp_c);
  j.set("ir_drop", corner.ir_drop_fraction);
  return j;
}

// Reads a scalar-or-array axis into a vector (a bare value is a 1-element
// axis), applying `parse` to each element.
template <typename Fn>
auto axis_values(const Json& json, Fn&& parse) -> std::vector<decltype(parse(json))> {
  std::vector<decltype(parse(json))> out;
  if (json.is_array()) {
    for (const Json& item : json.items()) out.push_back(parse(item));
  } else {
    out.push_back(parse(json));
  }
  return out;
}

std::string flag_value_to_string(const Json& value, const std::string& where,
                                 const std::string& key) {
  if (value.is_string()) return value.as_string();
  if (value.is_bool()) return value.as_bool() ? "true" : "false";
  if (value.is_number()) return value.dump(0);
  bad_spec(where, "flag '" + key + "' must be a string, number or boolean");
}

}  // namespace

namespace {

// Scenario and campaign names become result file names and subprocess
// arguments, so they are restricted to a filesystem- and shell-safe set.
void check_name(const std::string& name, const std::string& where) {
  if (name.empty()) bad_spec(where, "'name' must not be empty");
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '-' || c == '.';
    if (!ok)
      bad_spec(where, "name '" + name +
                          "' may only contain letters, digits, '_', '-' and '.'");
  }
}

}  // namespace

tech::PvtCorner corner_from_spec_name(const std::string& name) {
  if (name == "typical") return tech::typical_corner();
  if (name == "worst" || name == "worst_case") return tech::worst_case_corner();
  const auto fig5 = tech::fig5_corners();
  for (std::size_t i = 0; i < fig5.size(); ++i)
    if (name == "fig5_" + std::to_string(i + 1)) return fig5[i];
  throw std::invalid_argument("scenario spec: unknown corner name '" + name +
                              "' (expected typical, worst or fig5_1..fig5_5)");
}

// ---------------------------------------------------------------- TraceSpec

TraceSpec TraceSpec::from_json(const Json& json) {
  Fields f(json, "trace");
  TraceSpec spec;
  const std::string source = f.get_string("source", "synthetic");
  if (source == "synthetic") {
    spec.source = Source::synthetic;
    const std::string style = f.get_string("style", "uniform");
    try {
      spec.style = trace::synthetic_style_from_string(style);
    } catch (const std::invalid_argument& e) {
      bad_spec("trace", e.what());
    }
    spec.load_rate = f.get_double("load_rate", 0.4);
    if (spec.load_rate < 0.0 || spec.load_rate > 1.0)
      bad_spec("trace", "'load_rate' must be in [0, 1]");
    spec.activity = f.get_double("activity", 0.5);
    if (spec.activity < 0.0 || spec.activity > 1.0)
      bad_spec("trace", "'activity' must be in [0, 1]");
    const long long seed = f.get_int("seed", 1);
    spec.seed = static_cast<std::uint64_t>(seed);
  } else if (source == "benchmark") {
    spec.source = Source::benchmark;
    spec.benchmark = f.get_string("name", "");
    if (spec.benchmark.empty()) bad_spec("trace", "benchmark source requires 'name'");
  } else if (source == "suite") {
    spec.source = Source::suite;
  } else if (source == "file") {
    spec.source = Source::file;
    spec.path = f.get_string("path", "");
    if (spec.path.empty()) bad_spec("trace", "file source requires 'path'");
  } else {
    bad_spec("trace", "unknown source '" + source +
                          "' (expected synthetic, benchmark, suite or file)");
  }
  f.reject_unknown();
  return spec;
}

Json TraceSpec::to_json() const {
  Json j = Json::object();
  switch (source) {
    case Source::synthetic:
      j.set("source", "synthetic");
      j.set("style", trace::to_string(style));
      j.set("load_rate", load_rate);
      j.set("activity", activity);
      j.set("seed", static_cast<long long>(seed));
      break;
    case Source::benchmark:
      j.set("source", "benchmark");
      j.set("name", benchmark);
      break;
    case Source::suite: j.set("source", "suite"); break;
    case Source::file:
      j.set("source", "file");
      j.set("path", path);
      break;
  }
  return j;
}

// ----------------------------------------------------------- ControllerSpec

ControllerSpec ControllerSpec::from_json(const Json& json) {
  ControllerSpec spec;
  if (json.is_string()) {
    try {
      spec.kind = dvs::controller_kind_from_string(json.as_string());
    } catch (const std::invalid_argument& e) {
      bad_spec("controllers", e.what());
    }
    return spec;
  }
  Fields f(json, "controllers");
  const std::string kind = f.get_string("kind", "threshold");
  try {
    spec.kind = dvs::controller_kind_from_string(kind);
  } catch (const std::invalid_argument& e) {
    bad_spec("controllers", e.what());
  }
  spec.custom_label = f.get_string("label", "");
  if (!spec.custom_label.empty()) check_name(spec.custom_label, "controllers");
  // Either controller decides once per window, so a window holds a cycle.
  const auto window = [&f](std::uint64_t fallback) {
    const long long cycles = f.get_int("window", static_cast<long long>(fallback));
    if (cycles < 1) bad_spec("controllers", "'window' must be >= 1");
    return static_cast<std::uint64_t>(cycles);
  };
  if (spec.kind == dvs::ControllerKind::threshold) {
    spec.threshold.low_threshold = f.get_double("low", spec.threshold.low_threshold);
    spec.threshold.high_threshold = f.get_double("high", spec.threshold.high_threshold);
    spec.threshold.window_cycles = window(spec.threshold.window_cycles);
    spec.threshold.voltage_step = f.get_double("step", spec.threshold.voltage_step);
  } else if (spec.kind == dvs::ControllerKind::proportional) {
    spec.proportional.target_error_rate =
        f.get_double("target", spec.proportional.target_error_rate);
    spec.proportional.gain = f.get_double("gain", spec.proportional.gain);
    spec.proportional.window_cycles = window(spec.proportional.window_cycles);
    spec.proportional.max_step = f.get_double("max_step", spec.proportional.max_step);
  }
  f.reject_unknown();
  return spec;
}

Json ControllerSpec::to_json() const {
  Json j = Json::object();
  j.set("kind", dvs::to_string(kind));
  if (!custom_label.empty()) j.set("label", custom_label);
  if (kind == dvs::ControllerKind::threshold) {
    j.set("low", threshold.low_threshold);
    j.set("high", threshold.high_threshold);
    j.set("window", static_cast<long long>(threshold.window_cycles));
    j.set("step", threshold.voltage_step);
  } else if (kind == dvs::ControllerKind::proportional) {
    j.set("target", proportional.target_error_rate);
    j.set("gain", proportional.gain);
    j.set("window", static_cast<long long>(proportional.window_cycles));
    j.set("max_step", proportional.max_step);
  }
  return j;
}

// ------------------------------------------------------------------- BusSpec

BusSpec BusSpec::from_json(const Json& json) {
  Fields f(json, "buses");
  BusSpec spec;
  const long long width = f.get_int("width", 32);
  if (width < 1 || width > BusWord::kMaxBits)
    bad_spec("buses", "width " + std::to_string(width) + " out of range 1.." +
                          std::to_string(BusWord::kMaxBits));
  spec.width = static_cast<int>(width);
  spec.weight = f.get_double("weight", 1.0);
  if (!(spec.weight > 0.0)) bad_spec("buses", "'weight' must be > 0");
  if (const Json* trace = f.find("trace")) spec.trace = TraceSpec::from_json(*trace);
  if (spec.trace.source == TraceSpec::Source::suite)
    bad_spec("buses",
             "'suite' traces are not valid for a multi_bus lane (one stream per bus)");
  // The 32-bit mini-CPU streams widen by whole words; a mismatched lane
  // width would silently truncate the trace, so it throws here, before
  // any characterization work starts.
  if (spec.trace.source == TraceSpec::Source::benchmark && spec.width % 32 != 0)
    bad_spec("buses", "benchmark trace '" + spec.trace.benchmark +
                          "' is 32 bits wide but the bus width " +
                          std::to_string(spec.width) + " is not a multiple of 32");
  f.reject_unknown();
  return spec;
}

Json BusSpec::to_json() const {
  Json j = Json::object();
  j.set("width", static_cast<long long>(width));
  j.set("weight", weight);
  j.set("trace", trace.to_json());
  return j;
}

// ----------------------------------------------------------------- DriftSpec

namespace {

void check_drift_state(const std::string& where, double temp_c, double vth_shift) {
  if (temp_c < -55.0 || temp_c > 150.0)
    bad_spec(where, "temperature " + std::to_string(temp_c) +
                        " out of range [-55, 150]");
  if (vth_shift < 0.0 || vth_shift > 0.3)
    bad_spec(where, "'vth_shift' must be in [0, 0.3] volts");
}

}  // namespace

DriftSpec DriftSpec::from_json(const Json& json) {
  Fields f(json, "drift");
  DriftSpec spec;
  spec.enabled = true;
  // Look every key up in both branches so the accepted-key sets (and so
  // the docs cross-check) do not depend on which branch a document takes.
  const Json* points = f.find("points");
  const Json* temp_start = f.find("temp_start");
  const Json* temp_end = f.find("temp_end");
  const Json* vth_start = f.find("vth_shift_start");
  const Json* vth_end = f.find("vth_shift_end");
  const auto number = [](const Json* v, const char* key, double fallback) {
    if (v == nullptr) return fallback;
    if (!v->is_number())
      bad_spec("drift", "'" + std::string(key) + "' must be a number");
    return v->as_double();
  };
  if (points != nullptr) {
    if (temp_start != nullptr || temp_end != nullptr || vth_start != nullptr ||
        vth_end != nullptr)
      bad_spec("drift", "'points' excludes the linear ramp keys "
                        "(temp_start/temp_end/vth_shift_start/vth_shift_end)");
    if (!points->is_array() || points->size() == 0)
      bad_spec("drift", "'points' must be a non-empty array");
    for (const Json& p : points->items()) {
      Fields pf(p, "drift_points");
      DriftPointSpec point;
      const long long cycle = pf.get_int("cycle", -1);
      if (cycle < 0) bad_spec("drift_points", "'cycle' must be an integer >= 0");
      point.cycle = static_cast<std::uint64_t>(cycle);
      point.temp_c = pf.get_double("temp_c", 25.0);
      point.vth_shift = pf.get_double("vth_shift", 0.0);
      check_drift_state("drift_points", point.temp_c, point.vth_shift);
      pf.reject_unknown();
      if (!spec.points.empty() && point.cycle <= spec.points.back().cycle)
        bad_spec("drift", "'points' cycles must be strictly increasing");
      spec.points.push_back(point);
    }
  } else {
    spec.temp_start = number(temp_start, "temp_start", 25.0);
    spec.temp_end = number(temp_end, "temp_end", spec.temp_start);
    spec.vth_shift_start = number(vth_start, "vth_shift_start", 0.0);
    spec.vth_shift_end = number(vth_end, "vth_shift_end", spec.vth_shift_start);
    check_drift_state("drift", spec.temp_start, spec.vth_shift_start);
    check_drift_state("drift", spec.temp_end, spec.vth_shift_end);
  }
  f.reject_unknown();
  return spec;
}

Json DriftSpec::to_json() const {
  Json j = Json::object();
  if (!points.empty()) {
    Json jp = Json::array();
    for (const auto& point : points) {
      Json p = Json::object();
      p.set("cycle", static_cast<long long>(point.cycle));
      p.set("temp_c", point.temp_c);
      p.set("vth_shift", point.vth_shift);
      jp.push(std::move(p));
    }
    j.set("points", std::move(jp));
  } else {
    j.set("temp_start", temp_start);
    j.set("temp_end", temp_end);
    j.set("vth_shift_start", vth_shift_start);
    j.set("vth_shift_end", vth_shift_end);
  }
  return j;
}

// --------------------------------------------------------------- ScenarioSpec

ScenarioSpec ScenarioSpec::from_json(const Json& json) {
  ScenarioSpec spec;
  if (json.is_string()) {  // shorthand: "fig4_voltage_sweep"
    spec.kind = Kind::bench;
    spec.bench = json.as_string();
    spec.name = spec.bench;
    check_name(spec.name, "scenario");
    return spec;
  }
  Fields f(json, "scenario");
  const bool is_bench = f.has("bench");
  const bool is_experiment = f.has("experiment");
  if (is_bench == is_experiment)
    bad_spec("scenario", "exactly one of 'bench' or 'experiment' is required");

  const long long cycles = f.get_int("cycles", 0);
  if (cycles < 0) bad_spec("scenario", "'cycles' must be >= 0");
  spec.cycles = static_cast<std::size_t>(cycles);
  const long long threads = f.get_int("threads", 0);
  if (threads < 0) bad_spec("scenario", "'threads' must be >= 0");
  spec.threads = static_cast<unsigned>(threads);

  if (is_bench) {
    spec.kind = Kind::bench;
    spec.bench = f.get_string("bench", "");
    spec.name = f.get_string("name", spec.bench);
    check_name(spec.name, "scenario");
    if (const Json* flags = f.find("flags")) {
      if (!flags->is_object()) bad_spec("scenario", "'flags' must be an object");
      for (const auto& member : flags->members()) {
        // The runner owns these; a shadowing "json" would silently redirect
        // the job's report out from under the campaign aggregation.
        if (member.first == "json" || member.first == "cycles" ||
            member.first == "threads")
          bad_spec("scenario", "flag '" + member.first +
                                   "' is reserved (use the spec's own keys)");
        spec.flags.emplace_back(
            member.first, flag_value_to_string(member.second, "scenario", member.first));
      }
    }
    f.reject_unknown();
    return spec;
  }

  const std::string experiment = f.get_string("experiment", "");
  if (experiment == "closed_loop")
    spec.kind = Kind::closed_loop;
  else if (experiment == "static_sweep")
    spec.kind = Kind::static_sweep;
  else if (experiment == "multi_bus")
    spec.kind = Kind::multi_bus;
  else
    bad_spec("scenario", "unknown experiment '" + experiment +
                             "' (expected closed_loop, static_sweep or multi_bus)");

  spec.name = f.get_string("name", "");
  if (spec.name.empty()) bad_spec("scenario", "declarative scenarios require 'name'");
  check_name(spec.name, "scenario");

  if (const Json* trace = f.find("trace")) {
    if (spec.kind == Kind::multi_bus)
      bad_spec("scenario",
               "multi_bus experiments take per-bus 'trace' entries inside 'buses'");
    spec.trace = TraceSpec::from_json(*trace);
  }

  if (const Json* buses = f.find("buses")) {
    if (spec.kind != Kind::multi_bus)
      bad_spec("scenario", "'buses' only applies to multi_bus experiments");
    if (!buses->is_array() || buses->size() == 0)
      bad_spec("scenario", "'buses' must be a non-empty array");
    for (const Json& bus : buses->items())
      spec.buses.push_back(BusSpec::from_json(bus));
  } else if (spec.kind == Kind::multi_bus) {
    bad_spec("scenario", "multi_bus experiments require 'buses'");
  }

  if (const Json* arbitration = f.find("arbitration")) {
    if (spec.kind != Kind::multi_bus)
      bad_spec("scenario", "'arbitration' only applies to multi_bus experiments");
    if (!arbitration->is_string())
      bad_spec("scenario", "'arbitration' must be a string");
    try {
      spec.arbitration = dvs::arbitration_policy_from_string(arbitration->as_string());
    } catch (const std::invalid_argument& e) {
      bad_spec("scenario", e.what());
    }
  }

  if (const Json* widths = f.find("widths")) {
    if (spec.kind == Kind::multi_bus)
      bad_spec("scenario",
               "multi_bus experiments take per-bus 'width' entries inside 'buses'");
    spec.widths = axis_values(*widths, [](const Json& w) {
      if (!w.is_integer()) bad_spec("scenario", "'widths' entries must be integers");
      return static_cast<int>(w.as_int());
    });
    if (spec.widths.empty()) bad_spec("scenario", "'widths' must not be empty");
    for (const int width : spec.widths)
      if (width < 1 || width > BusWord::kMaxBits)
        bad_spec("scenario", "width " + std::to_string(width) + " out of range 1.." +
                                 std::to_string(BusWord::kMaxBits));
  }

  if (const Json* controllers = f.find("controllers")) {
    if (spec.kind == Kind::static_sweep)
      bad_spec("scenario",
               "'controllers' only applies to closed_loop and multi_bus experiments");
    spec.controllers = axis_values(
        *controllers, [](const Json& c) { return ControllerSpec::from_json(c); });
    if (spec.controllers.empty()) bad_spec("scenario", "'controllers' must not be empty");
  } else if (spec.kind == Kind::closed_loop || spec.kind == Kind::multi_bus) {
    spec.controllers.push_back(ControllerSpec{});
  }
  if (spec.kind == Kind::multi_bus)
    for (const auto& controller : spec.controllers)
      if (controller.kind != dvs::ControllerKind::threshold)
        bad_spec("scenario",
                 "multi_bus experiments require threshold controllers (cross-bus "
                 "arbitration fuses into one threshold controller input)");

  if (const Json* corners = f.find("corners")) {
    spec.corners = axis_values(
        *corners, [](const Json& c) { return corner_from_json(c, "corners"); });
    if (spec.corners.empty()) bad_spec("scenario", "'corners' must not be empty");
  } else {
    spec.corners.push_back(tech::typical_corner());
  }

  const std::string encoding = f.get_string("encoding", "none");
  if (encoding == "bus_invert")
    spec.bus_invert = true;
  else if (encoding != "none")
    bad_spec("scenario",
             "unknown encoding '" + encoding + "' (expected none or bus_invert)");

  const std::string engine = f.get_string("engine", "bit_parallel");
  try {
    spec.engine = bus::engine_mode_from_string(engine);
  } catch (const std::invalid_argument& e) {
    bad_spec("scenario", e.what());
  }

  spec.timing_jitter_sigma = f.get_double("timing_jitter_sigma", 0.0);
  if (spec.timing_jitter_sigma < 0.0)
    bad_spec("scenario", "'timing_jitter_sigma' must be >= 0");

  spec.stream = f.get_bool("stream", false);

  spec.lut_tolerance = f.get_double("lut_tolerance", 0.0);
  if (spec.lut_tolerance < 0.0) bad_spec("scenario", "'lut_tolerance' must be >= 0");

  if (const Json* drift = f.find("drift")) {
    if (spec.kind == Kind::static_sweep)
      bad_spec("scenario",
               "'drift' only applies to closed_loop and multi_bus experiments");
    spec.drift = DriftSpec::from_json(*drift);
    // Drift rides the window-granular closed loop (either controller);
    // fixed_vs has no window boundary to re-derive the corner at.
    for (const auto& controller : spec.controllers)
      if (controller.kind == dvs::ControllerKind::fixed_vs)
        bad_spec("scenario",
                 "drift runs reject fixed_vs controllers (no control window to "
                 "re-derive the corner at)");
  }

  f.reject_unknown();
  return spec;
}

Json ScenarioSpec::to_json() const {
  Json j = Json::object();
  j.set("name", name);
  if (kind == Kind::bench) {
    j.set("bench", bench);
    if (!flags.empty()) {
      Json jf = Json::object();
      for (const auto& [key, value] : flags) jf.set(key, value);
      j.set("flags", std::move(jf));
    }
  } else {
    j.set("experiment", kind == Kind::closed_loop     ? "closed_loop"
                        : kind == Kind::static_sweep ? "static_sweep"
                                                     : "multi_bus");
    if (kind == Kind::multi_bus) {
      Json jb = Json::array();
      for (const auto& bus : buses) jb.push(bus.to_json());
      j.set("buses", std::move(jb));
      j.set("arbitration", dvs::to_string(arbitration));
    } else {
      j.set("trace", trace.to_json());
      Json jw = Json::array();
      for (const int width : widths) jw.push(width);
      j.set("widths", std::move(jw));
    }
    if (kind == Kind::closed_loop || kind == Kind::multi_bus) {
      Json jc = Json::array();
      for (const auto& controller : controllers) jc.push(controller.to_json());
      j.set("controllers", std::move(jc));
    }
    Json jcorners = Json::array();
    for (const auto& corner : corners) jcorners.push(corner_to_json(corner));
    j.set("corners", std::move(jcorners));
    j.set("encoding", bus_invert ? "bus_invert" : "none");
    j.set("engine", bus::to_string(engine));
    if (timing_jitter_sigma > 0.0) j.set("timing_jitter_sigma", timing_jitter_sigma);
    if (stream) j.set("stream", true);
    if (lut_tolerance > 0.0) j.set("lut_tolerance", lut_tolerance);
    if (drift.enabled) j.set("drift", drift.to_json());
  }
  if (cycles > 0) j.set("cycles", static_cast<long long>(cycles));
  if (threads > 0) j.set("threads", static_cast<long long>(threads));
  return j;
}

// --------------------------------------------------------------- CampaignSpec

CampaignSpec CampaignSpec::from_json(const Json& json) {
  Fields f(json, "campaign");
  CampaignSpec campaign;
  campaign.name = f.get_string("name", "campaign");
  check_name(campaign.name, "campaign");
  campaign.description = f.get_string("description", "");
  if (const Json* defaults = f.find("defaults")) {
    Fields d(*defaults, "defaults");
    const long long cycles = d.get_int("cycles", 0);
    if (cycles < 0) bad_spec("defaults", "'cycles' must be >= 0");
    campaign.default_cycles = static_cast<std::size_t>(cycles);
    const long long threads = d.get_int("threads", 0);
    if (threads < 0) bad_spec("defaults", "'threads' must be >= 0");
    campaign.default_threads = static_cast<unsigned>(threads);
    d.reject_unknown();
  }
  const Json* scenarios = f.find("scenarios");
  if (scenarios == nullptr || !scenarios->is_array() || scenarios->size() == 0)
    bad_spec("campaign", "'scenarios' must be a non-empty array");
  for (const Json& scenario : scenarios->items())
    campaign.scenarios.push_back(ScenarioSpec::from_json(scenario));
  f.reject_unknown();
  return campaign;
}

CampaignSpec CampaignSpec::from_file(const std::string& path) {
  return from_json(Json::parse_file(path));
}

Json CampaignSpec::to_json() const {
  Json j = Json::object();
  j.set("name", name);
  if (!description.empty()) j.set("description", description);
  if (default_cycles > 0 || default_threads > 0) {
    Json defaults = Json::object();
    if (default_cycles > 0)
      defaults.set("cycles", static_cast<long long>(default_cycles));
    if (default_threads > 0)
      defaults.set("threads", static_cast<long long>(default_threads));
    j.set("defaults", std::move(defaults));
  }
  Json js = Json::array();
  for (const auto& scenario : scenarios) js.push(scenario.to_json());
  j.set("scenarios", std::move(js));
  return j;
}

// ------------------------------------------------------------ introspection

std::map<std::string, std::set<std::string>> record_accepted_keys(const Json& campaign) {
  std::map<std::string, std::set<std::string>> keys;
  g_key_recorder = &keys;
  try {
    CampaignSpec::from_json(campaign);
  } catch (...) {
    g_key_recorder = nullptr;
    throw;
  }
  g_key_recorder = nullptr;
  return keys;
}

// ------------------------------------------------------------------ expansion

std::vector<ScenarioJob> expand_campaign(const CampaignSpec& campaign) {
  std::vector<ScenarioJob> jobs;
  std::set<std::string> names;
  for (const ScenarioSpec& scenario : campaign.scenarios) {
    ScenarioSpec base = scenario;
    if (base.cycles == 0) base.cycles = campaign.default_cycles;
    if (base.threads == 0) base.threads = campaign.default_threads;

    const auto add_job = [&](std::string job_name, ScenarioSpec spec) {
      if (!names.insert(job_name).second)
        throw std::invalid_argument("campaign '" + campaign.name +
                                    "': duplicate job name '" + job_name +
                                    "' after expansion");
      jobs.push_back(ScenarioJob{std::move(job_name), std::move(spec)});
    };

    if (base.kind == ScenarioSpec::Kind::bench) {
      add_job(base.name, base);
      continue;
    }

    // The cross product: one job per (width, controller). Axis suffixes are
    // only appended when the axis actually varies, so a single-point
    // scenario keeps its plain name.
    const bool has_controller_axis =
        base.kind == ScenarioSpec::Kind::closed_loop ||
        base.kind == ScenarioSpec::Kind::multi_bus;
    const bool many_widths = base.widths.size() > 1;
    std::vector<ControllerSpec> controllers = base.controllers;
    if (controllers.empty()) controllers.push_back(ControllerSpec{});  // static_sweep
    const bool many_controllers = has_controller_axis && base.controllers.size() > 1;

    // Tuning sweeps repeat a controller kind; unlabelled duplicates get an
    // occurrence suffix so their job names stay distinct.
    std::vector<std::string> controller_labels(controllers.size());
    std::map<std::string, int> label_uses;
    for (std::size_t c = 0; c < controllers.size(); ++c) {
      const int occurrence = ++label_uses[controllers[c].label()];
      controller_labels[c] =
          controllers[c].label() +
          (occurrence > 1 ? "_" + std::to_string(occurrence) : "");
    }

    for (const int width : base.widths) {
      for (std::size_t c = 0; c < controllers.size(); ++c) {
        ScenarioSpec job = base;
        job.widths = {width};
        job.controllers = has_controller_axis
                              ? std::vector<ControllerSpec>{controllers[c]}
                              : std::vector<ControllerSpec>{};
        std::string job_name = base.name;
        if (many_widths) job_name += "_w" + std::to_string(width);
        if (many_controllers) job_name += "_" + controller_labels[c];
        job.name = job_name;
        add_job(std::move(job_name), std::move(job));
        if (!has_controller_axis) break;  // one controller pass (static_sweep)
      }
    }
  }
  return jobs;
}

}  // namespace razorbus::core

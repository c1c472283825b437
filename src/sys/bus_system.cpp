#include "sys/bus_system.hpp"

#include <stdexcept>
#include <utility>

namespace razorbus::sys {

BusSystem::BusSystem(std::vector<BusLane> lanes) : lanes_(std::move(lanes)) {
  if (lanes_.empty()) throw std::invalid_argument("sys: no buses");
  for (const BusLane& lane : lanes_) {
    if (lane.system == nullptr) throw std::invalid_argument("sys: null lane system");
    if (!(lane.weight > 0.0))
      throw std::invalid_argument("sys: lane weight must be > 0");
  }
  const double vnom = lanes_.front().system->design().node.vdd_nominal;
  for (const BusLane& lane : lanes_)
    // razorlint: allow(float-eq): one regulator drives one rail; designs
    // must agree on the nominal supply exactly, not approximately.
    if (lane.system->design().node.vdd_nominal != vnom)
      throw std::invalid_argument(
          "sys: all buses must share one supply rail (vdd_nominal mismatch)");
}

SystemRunReport BusSystem::run_closed_loop(const tech::PvtCorner& environment,
                                           const std::vector<trace::Trace>& traces,
                                           const SystemRunConfig& config) const {
  return run_closed_loop_streamed(environment, trace::make_trace_view_sources(traces),
                                  config);
}

SystemRunReport BusSystem::run_closed_loop_streamed(
    const tech::PvtCorner& environment,
    const std::vector<std::unique_ptr<trace::TraceSource>>& sources,
    const SystemRunConfig& config, const core::StreamConfig& stream,
    core::StreamStats* stats) const {
  core::ClosedLoop loop(lanes_, environment, config);

  std::vector<const trace::TraceSource*> lane_sources;
  for (const auto& source : sources) lane_sources.push_back(source.get());
  SystemRunReport report;
  report.per_bus = loop.run(lane_sources, stream, stats);
  report.series = loop.take_series();
  report.cycles = loop.cycles();
  report.windows = loop.windows();
  report.floor_supply = loop.floor_supply();
  report.average_supply = report.per_bus.front().average_supply;
  report.wall_tracking_error = loop.wall_tracking_error();
  report.env_updates = loop.env_updates();
  return report;
}

drift::Schedule schedule_from_spec(const core::DriftSpec& spec,
                                   std::uint64_t cycles) {
  if (!spec.enabled) return {};
  if (!spec.points.empty()) {
    std::vector<drift::Breakpoint> points;
    points.reserve(spec.points.size());
    for (const auto& p : spec.points)
      points.push_back({p.cycle, p.temp_c, p.vth_shift});
    return drift::Schedule::piecewise(std::move(points));
  }
  return drift::Schedule::linear(cycles, spec.temp_start, spec.temp_end,
                                 spec.vth_shift_start, spec.vth_shift_end);
}

}  // namespace razorbus::sys

#include "core/closed_loop.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

namespace razorbus::core {

StreamCursor::StreamCursor(const trace::TraceSource& prototype, std::size_t block_cycles)
    : source_(prototype.clone()), buffer_(block_cycles) {
  if (block_cycles == 0) throw std::invalid_argument("stream: block_cycles must be > 0");
}

std::size_t StreamCursor::available() {
  if (pos_ == filled_ && !eof_) {
    filled_ = source_->next_block(buffer_.data(), buffer_.size());
    pos_ = 0;
    if (filled_ == 0) {
      eof_ = true;
    } else {
      ++blocks_;
      streamed_ += filled_;
    }
  }
  return filled_ - pos_;
}

void StreamCursor::account(StreamStats* stats) const {
  if (stats == nullptr) return;
  stats->block_cycles = buffer_.size();
  stats->blocks += blocks_;
  stats->cycles += streamed_;
  stats->peak_buffer_words = std::max(stats->peak_buffer_words, buffer_.size());
}

void check_width(const DvsBusSystem& system, const trace::TraceSource& source) {
  if (source.n_bits() > system.design().n_bits)
    throw std::invalid_argument(
        "experiment: trace '" + source.name() + "' is " +
        std::to_string(source.n_bits()) + " bits wide but the bus has " +
        std::to_string(system.design().n_bits) + " wires");
}

namespace {

double loop_floor(const std::vector<LoopLane>& lanes,
                  const tech::PvtCorner& environment) {
  double floor = 0.0;
  for (const LoopLane& lane : lanes)
    floor = std::max(floor, lane.system->dvs_floor(environment.process));
  return floor;
}

double start_supply(const std::vector<LoopLane>& lanes, const LoopConfig& config) {
  return config.start_supply > 0.0 ? config.start_supply
                                   : lanes.front().system->design().node.vdd_nominal;
}

}  // namespace

ClosedLoop::ClosedLoop(std::vector<LoopLane> lanes, const tech::PvtCorner& environment,
                       LoopConfig config)
    : lanes_(std::move(lanes)),
      environment_(environment),
      current_(environment),
      config_(std::move(config)),
      floor_(loop_floor(lanes_, environment)),
      regulator_(start_supply(lanes_, config_), floor_,
                 lanes_.front().system->design().node.vdd_nominal,
                 config_.regulator_delay_cycles),
      threshold_(config_.controller) {
  const auto& proportional = config_.proportional;
  if (proportional) proportional_.emplace(*proportional);
  window_ = proportional ? proportional->window_cycles : config_.controller.window_cycles;
  band_mid_ = proportional ? proportional->target_error_rate
                           : 0.5 * (config_.controller.low_threshold +
                                    config_.controller.high_threshold);
  remaining_window_ = window_;
  window_errors_.assign(lanes_.size(), 0);

  sims_.reserve(lanes_.size());
  for (const LoopLane& lane : lanes_) {
    weights_.push_back(lane.weight);
    sims_.push_back(lane.system->make_simulator(environment_));
    sims_.back().set_engine_mode(config_.engine);
    if (config_.timing_jitter_sigma > 0.0)
      sims_.back().set_timing_jitter(config_.timing_jitter_sigma);
  }
  for (auto& sim : sims_) sim.set_supply(regulator_.voltage());
  apply_drift();
}

std::vector<DvsRunReport> ClosedLoop::run(
    const std::vector<const trace::TraceSource*>& sources, const StreamConfig& stream,
    StreamStats* stats) {
  const std::size_t n_lanes = lanes_.size();
  if (sources.size() != n_lanes)
    throw std::invalid_argument("closed loop: " + std::to_string(n_lanes) +
                                " buses but " + std::to_string(sources.size()) +
                                " traces");
  for (std::size_t l = 0; l < n_lanes; ++l) check_width(*lanes_[l].system, *sources[l]);

  // Each leg restarts every lane's nominal meter (a fresh sum from the zero
  // word, priced at the lane's current corner).
  std::vector<bus::RunningTotals> before;
  for (std::size_t l = 0; l < n_lanes; ++l) {
    before.push_back(sims_[l].totals());
    sims_[l].start_nominal_meter();
  }
  std::vector<StreamCursor> cursors;
  for (const trace::TraceSource* source : sources)
    cursors.emplace_back(*source, stream.block_cycles);

  double supply_sum = 0.0;
  std::uint64_t leg_cycles = 0;
  for (;;) {
    // Every cursor is polled (no short-circuit), so refills — and the
    // stream accounting — do not depend on lane order.
    bool more = true;
    for (auto& cursor : cursors) more = cursor.available() > 0 && more;
    if (!more) break;

    const double supply = regulator_.advance(cycle_);
    for (auto& sim : sims_) sim.set_supply(supply);
    std::uint64_t planned = remaining_window_;
    const std::uint64_t change = regulator_.next_change_cycle();
    if (change != dvs::VoltageRegulator::kNoPendingChange && change > cycle_)
      planned = std::min(planned, change - cycle_);

    // Serve the segment across buffered chunks, lockstep on every lane;
    // short only when a stream ends mid-segment.
    std::uint64_t served = 0;
    while (served < planned) {
      auto chunk = static_cast<std::size_t>(planned - served);
      for (auto& cursor : cursors) chunk = std::min(chunk, cursor.available());
      if (chunk == 0) break;
      for (std::size_t l = 0; l < n_lanes; ++l) {
        window_errors_[l] += sims_[l].run(cursors[l].data(), chunk).errors;
        cursors[l].consume(chunk);
      }
      served += chunk;
    }
    supply_sum += sims_.front().supply() * static_cast<double>(served);
    cycle_ += served;
    leg_cycles += served;
    remaining_window_ -= served;
    if (remaining_window_ == 0) close_window();
  }
  for (const auto& cursor : cursors) cursor.account(stats);

  const double average = leg_cycles == 0 ? sims_.front().supply()
                                         : supply_sum / static_cast<double>(leg_cycles);
  std::vector<DvsRunReport> reports(n_lanes);
  for (std::size_t l = 0; l < n_lanes; ++l) {
    const bus::RunningTotals& now = sims_[l].totals();
    DvsRunReport& r = reports[l];
    r.totals.cycles = now.cycles - before[l].cycles;
    r.totals.errors = now.errors - before[l].errors;
    r.totals.shadow_failures = now.shadow_failures - before[l].shadow_failures;
    r.totals.bus_energy = now.bus_energy - before[l].bus_energy;
    r.totals.overhead_energy = now.overhead_energy - before[l].overhead_energy;
    r.floor_supply = floor_;
    r.average_supply = average;
    r.baseline_bus_energy = sims_[l].nominal_bus_energy();
  }
  return reports;
}

// A whole window has run: fuse the lanes' counts, decide, and request the
// change at the window's last cycle — exactly when a per-cycle loop would.
void ClosedLoop::close_window() {
  const std::uint64_t fused =
      dvs::fuse_window_errors(config_.arbitration, window_errors_, weights_);
  double delta = 0.0;
  double rate = 0.0;
  if (proportional_) {
    delta = proportional_->observe_segment(window_, fused);
    rate = proportional_->last_window_error_rate();
  } else {
    const dvs::VoltageDecision decision = threshold_.observe_segment(window_, fused);
    if (decision == dvs::VoltageDecision::step_down)
      delta = -config_.controller.voltage_step;
    else if (decision == dvs::VoltageDecision::step_up)
      delta = +config_.controller.voltage_step;
    rate = threshold_.last_window_error_rate();
  }
  // razorlint: allow(float-eq): the controllers return literal 0.0 for "no
  // step"; any nonzero delta, however tiny, is a real request.
  if (delta != 0.0) regulator_.request_change(delta, cycle_ - 1);

  track_sum_ += std::abs(rate - band_mid_);
  ++windows_;
  if (config_.record_series) series_.push_back({cycle_, sims_.front().supply(), rate});
  std::fill(window_errors_.begin(), window_errors_.end(), 0);
  remaining_window_ = window_;
  apply_drift();
}

// Re-derive the drift corner for the window starting now and push it into
// every lane (its nominal meter follows). A disabled schedule never reaches a
// set_environment call, which keeps zero-drift runs byte-identical to
// static-corner runs.
void ClosedLoop::apply_drift() {
  if (!config_.drift.enabled()) return;
  const DvsBusSystem& first = *lanes_.front().system;
  const tech::PvtCorner next = config_.drift.corner_at(
      environment_, cycle_, first.design().node.vdd_nominal, first.table().temps());
  if (next == current_) return;
  current_ = next;
  ++env_updates_;
  for (auto& sim : sims_) sim.set_environment(next);
}

}  // namespace razorbus::core

// The one closed loop (paper Section 5, Fig. 7) and the one trace cursor.
//
// Every closed-loop experiment runs through `ClosedLoop`: the single-bus
// drivers of experiments.hpp (one lane), run_consecutive_streamed's
// back-to-back benchmarks (one lane, one `run` per source, state carried
// across) and sys::BusSystem (N lanes on one regulator). Each lane is a bus, its own
// DVS simulator with its nominal meter (the energy of the same words on the
// conventional bus at nominal supply, priced in the same trace pass) and
// its own StreamCursor; the lanes share one ramping regulator, one
// optional drift::Schedule and one window-count controller — the paper's
// threshold controller or the proportional one it rejects. Each lane counts
// its own errors per controller window, and dvs::fuse_window_errors fuses
// the N counts into the single count the controller is fed, once per whole
// window (both controllers decide on the window's count alone, so this is
// cycle-for-cycle the per-cycle loop — tests/engine_parity_test.cpp).
//
// Segments end at window boundaries and regulator change landings, never
// at trace block boundaries; the cursor serves a segment across as many
// buffered chunks as it takes, and the engine's totals are invariant under
// span splits (DESIGN.md §5). So the block size, materialized vs streamed
// input and the N=1 system vs the single-bus drivers are invisible in the
// reports by construction.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "bus/simulator.hpp"
#include "core/experiments.hpp"
#include "core/system.hpp"
#include "drift/schedule.hpp"
#include "dvs/arbitration.hpp"
#include "dvs/controller.hpp"
#include "dvs/proportional.hpp"
#include "dvs/regulator.hpp"
#include "trace/source.hpp"

namespace razorbus::core {

// Serves a clone of a TraceSource through one fixed block buffer: the only
// consumer of TraceSource::next_block in the experiment layers. Callers
// take spans of any length across refills, so block boundaries never
// decide where anything else falls.
class StreamCursor {
 public:
  // Throws std::invalid_argument on a zero block size.
  StreamCursor(const trace::TraceSource& prototype, std::size_t block_cycles);

  // Words buffered and ready at data(), refilling once the buffer is
  // spent; 0 only when the stream is exhausted.
  std::size_t available();
  const BusWord* data() const { return buffer_.data() + pos_; }
  void consume(std::size_t n) { pos_ += n; }

  // Hands every remaining chunk to `run(const BusWord*, std::size_t)`.
  template <typename Run>
  void drain(Run&& run) {
    for (std::size_t n = available(); n > 0; n = available()) {
      run(data(), n);
      consume(n);
    }
  }

  // Adds this cursor's pulls and buffer size to `stats` (null: no-op).
  void account(StreamStats* stats) const;

 private:
  std::unique_ptr<trace::TraceSource> source_;
  std::vector<BusWord> buffer_;
  std::size_t pos_ = 0;
  std::size_t filled_ = 0;
  bool eof_ = false;
  std::uint64_t blocks_ = 0;
  std::uint64_t streamed_ = 0;
};

// The width rule: a source wider than its bus would silently drop its high
// wires (std::invalid_argument); narrower is legal, the surplus wires hold.
void check_width(const DvsBusSystem& system, const trace::TraceSource& source);

// One bus of a closed loop. `system` is non-owning; `weight` is read by
// the `weighted` arbitration policy.
struct LoopLane {
  const DvsBusSystem* system = nullptr;
  double weight = 1.0;
};

// A single-bus run's settings plus the system knobs (sys::SystemRunConfig
// is this struct).
struct LoopConfig : DvsRunConfig {
  dvs::ArbitrationPolicy arbitration = dvs::ArbitrationPolicy::max_error;
  // Disabled (the default) = the static corner, on the exact static code
  // path. Enabled: the corner is re-derived at every window boundary and
  // applied to every lane and its nominal meter.
  drift::Schedule drift{};
};

class ClosedLoop {
 public:
  // Lanes must be non-empty, non-null and share one nominal supply (the
  // caller validates; sys::BusSystem does for its users). The window-count
  // policy is `config.proportional` when set, else the threshold controller
  // of `config.controller`.
  ClosedLoop(std::vector<LoopLane> lanes, const tech::PvtCorner& environment,
             LoopConfig config);

  // One leg: lane l drains a clone of sources[l], all lanes in lockstep,
  // until the first source ends. Controller, regulator, drift and DVS
  // simulator state carry into the next leg; the nominal meters restart
  // each leg, so a leg's baseline is BusSimulator::run_reference over its
  // words. Returns one report per lane covering this leg: totals,
  // cycle-weighted average supply and the meter's baseline energy.
  std::vector<DvsRunReport> run(const std::vector<const trace::TraceSource*>& sources,
                                const StreamConfig& stream = {},
                                StreamStats* stats = nullptr);

  double floor_supply() const { return floor_; }
  std::uint64_t cycles() const { return cycle_; }
  std::uint64_t windows() const { return windows_; }
  std::uint64_t env_updates() const { return env_updates_; }
  // Mean |fused window error rate - band centre| over completed windows.
  double wall_tracking_error() const {
    return windows_ == 0 ? 0.0 : track_sum_ / static_cast<double>(windows_);
  }
  // One sample per completed window (config.record_series): the cycle, the
  // shared supply and the fused window error rate.
  std::vector<WindowSample> take_series() { return std::move(series_); }

 private:
  void close_window();
  void apply_drift();

  std::vector<LoopLane> lanes_;
  std::vector<double> weights_;
  tech::PvtCorner environment_;
  tech::PvtCorner current_;
  LoopConfig config_;
  double floor_;
  std::vector<bus::BusSimulator> sims_;
  dvs::VoltageRegulator regulator_;
  dvs::ThresholdController threshold_;
  std::optional<dvs::ProportionalController> proportional_;
  std::uint64_t window_;
  double band_mid_;
  std::uint64_t remaining_window_;
  std::vector<std::uint64_t> window_errors_;
  std::uint64_t cycle_ = 0;
  std::uint64_t windows_ = 0;
  std::uint64_t env_updates_ = 0;
  double track_sum_ = 0.0;
  std::vector<WindowSample> series_;
};

}  // namespace razorbus::core

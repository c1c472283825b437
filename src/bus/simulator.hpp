// Cycle-level simulator of the DVS bus with double-sampling receivers.
//
// Each cycle a bus word (up to BusWord::kMaxBits = 128 wires) is driven
// onto the bus. The simulator classifies the switching pattern of every
// wire, looks up in-to-out delays and supply energies in the characterised
// tables, decides which receivers erred, and accrues leakage and
// flop/recovery overheads. This is the engine behind every experiment:
// static voltage sweeps (Fig. 4/5), the oracle distribution study (Fig. 6),
// and closed-loop DVS runs (Table 1, Fig. 8) — at any
// `interconnect::BusDesign` width (the paper's 32-wire bus, 16-wire
// peripheral buses, 64-wire memory buses, 128-wire cacheline flits).
//
// Two engines implement the same cycle semantics (see DESIGN.md §5):
//
//   * EngineMode::reference — the per-wire golden model: every wire is
//     classified on its own, every DoubleSamplingFlop of the receiver bank
//     is clocked with its arrival time. Slow, but structurally mirrors the
//     hardware; kept as the oracle the fast engine is tested against.
//
//   * EngineMode::bit_parallel (default) — the production engine. The
//     shield wires partition the bus into independent groups (4 signals
//     per group on the paper bus), so each group's dynamic energy, error /
//     shadow-failure wire masks and worst arrival are a pure function of
//     its (prev, cur) bit pair — precomputed per operating point into
//     per-group combo tables, lane-indexed into the BusWord. The per-cycle
//     hot path is then one table lookup per group plus a handful of
//     OR/max/add reductions. Cycles with timing jitter fall back to
//     bit-parallel per-class verdicts (all wires of a pattern class share
//     one delay, so the verdict loop touches present classes, not wires),
//     still reading energy from the combo tables. Totals are bit-identical
//     to the reference engine, cycle for cycle.
//
// The batched run() entry point drives whole words[] spans (e.g. one
// regulator window) through the hot loop with totals accumulated in
// registers — this is what the experiment drivers use.
//
// A third mode, EngineMode::simd, selects the same bit-parallel cycle
// semantics but tells multi-operating-point DRIVERS (static sweeps, PVT
// sampling) to batch their points through MultiPointEngine (DESIGN.md
// §13): one pass over the trace evaluates N (supply, corner) points with
// the per-cycle pattern classification done once and the per-point
// delay/energy/verdict evaluation laid out structure-of-arrays, vectorized
// via util/simd.hpp. Per-point totals are bit-identical to running the
// single-point engine once per point — a scheduling choice, never a
// semantic one. On a single BusSimulator, simd behaves exactly like
// bit_parallel.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bus/classify.hpp"
#include "interconnect/bus_design.hpp"
#include "lut/table.hpp"
#include "razor/bank.hpp"
#include "tech/corner.hpp"
#include "tech/leakage.hpp"
#include "trace/source.hpp"
#include "util/busword.hpp"
#include "util/rng.hpp"

namespace razorbus::bus {

// Which cycle engine drives the simulation (see file comment). `simd` is
// bit_parallel semantics plus a driver-level promise: multi-point
// consumers batch their operating points through MultiPointEngine.
enum class EngineMode { bit_parallel, reference, simd };

// Engine names as used by the scenario specs ("bit_parallel", "reference",
// "simd"); from_string throws std::invalid_argument on unknown names.
std::string to_string(EngineMode mode);
EngineMode engine_mode_from_string(const std::string& name);

namespace detail {

// Capture verdict of a whole pattern class for one cycle (all wires of a
// class share one arrival time). Mirrors DoubleSamplingFlop::clock.
enum class Verdict : std::uint8_t {
  held,          // arrival <= 0: latches keep their value, no line update
  clean,         // captured by the main flop
  corrected,     // main missed, shadow caught it: Error_L asserted
  shadow_failed  // silent corruption (late arrival or short-path race)
};

// Shield-delimited wire groups. A group's wires interact with nothing
// outside it (its edges border shields), so for tabulatable widths the
// whole group's cycle contribution is precomputed over all (prev, cur)
// bit combinations. Same-width groups are structurally identical and
// share one table block. A group lives at `start` within the (possibly
// multi-lane) bus word; extraction/deposit straddle the 64-bit lane
// boundary transparently. Energy accounting is group-wise in EVERY
// engine/kernel (one sub-accumulator per group, groups summed in order)
// so all paths agree bit for bit. Shared between the single-point
// BusSimulator and the multi-point engine so both tabulate identically.
struct WireGroup {
  int start = 0;
  int width = 0;
  std::size_t table_offset = 0;  // into the combo_* arrays
};

struct GroupLayout {
  static constexpr int kMaxTableWidth = 6;  // 4^6 combos per table block

  std::vector<WireGroup> groups;
  std::size_t total_combos = 0;  // summed block sizes (distinct widths)
  // False when some group is wider than kMaxTableWidth; combo tables are
  // then not built and every cycle takes the per-wire general kernel.
  bool tabulatable = false;

  static GroupLayout build(const interconnect::BusDesign& design);
};

}  // namespace detail

struct CycleResult {
  bool error = false;           // bank error signal (>=1 flop corrected)
  bool shadow_failure = false;  // unrecoverable capture miss
  double bus_energy = 0.0;      // wire switching + repeater leakage (J)
  double overhead_energy = 0.0; // flop clocking, detection, recovery (J)
  double worst_delay = 0.0;     // max arrival across wires (s)
};

struct RunningTotals {
  std::uint64_t cycles = 0;
  std::uint64_t errors = 0;
  std::uint64_t shadow_failures = 0;
  double bus_energy = 0.0;
  double overhead_energy = 0.0;

  double total_energy() const { return bus_energy + overhead_energy; }
  double error_rate() const {
    return cycles ? static_cast<double>(errors) / static_cast<double>(cycles) : 0.0;
  }
};

class BusSimulator {
 public:
  // `table` must outlive the simulator. The operating environment (process
  // corner, temperature, IR drop) is set at construction and only moves
  // under an explicit drift schedule (set_environment); the supply is
  // mutable per cycle (that is what the DVS loop controls).
  BusSimulator(const interconnect::BusDesign& design, const lut::DelayEnergyTable& table,
               tech::PvtCorner environment,
               razor::RecoveryCostModel recovery = {});

  // Change the regulator output voltage. Cheap when unchanged; on change,
  // re-interpolates the per-class slice and re-derives the per-class
  // capture verdicts (the per-cycle hot path is pure table reads).
  void set_supply(double volts);
  double supply() const { return supply_; }

  // Change the operating environment (process, temperature, IR drop) of a
  // live simulator — the drift campaigns' corner-modulating hook
  // (drift::Schedule). Cheap when the corner is unchanged; on change the
  // operating point is re-derived exactly as a supply change would, and
  // receiver state plus totals carry over untouched.
  void set_environment(const tech::PvtCorner& environment);

  // Select the cycle engine. Switching is legal mid-run: the receiver
  // state carries over (the engines share it by construction).
  void set_engine_mode(EngineMode mode);
  EngineMode engine_mode() const { return mode_; }

  // Optional cycle-to-cycle arrival-time jitter (clock + supply noise),
  // applied common-mode to all wires each cycle. Zero disables (default;
  // keeps unit tests deterministic). Experiments use a few ps, which
  // smooths the otherwise pattern-class-quantised error onset.
  void set_timing_jitter(double sigma_seconds, std::uint64_t seed = 0x7a5e11u);

  const interconnect::BusDesign& design() const { return design_; }
  const tech::PvtCorner& environment() const { return environment_; }

  // Drive the next word; returns this cycle's outcome.
  CycleResult step(const BusWord& word);

  // Drive `n` words through the active engine back to back and return the
  // totals accrued by this call (overall totals() advance as well). This
  // is the hot entry point: the bit-parallel engine keeps its accumulators
  // in registers for the whole span.
  RunningTotals run(const BusWord* words, std::size_t n);
  RunningTotals run(const std::vector<BusWord>& words) {
    return run(words.data(), words.size());
  }
  // Legacy 32-bit spans (tests and hand-rolled drivers): converted up
  // front, then identical to the BusWord path cycle for cycle.
  RunningTotals run(const std::uint32_t* words, std::size_t n);
  RunningTotals run(const std::vector<std::uint32_t>& words) {
    return run(words.data(), words.size());
  }
  // Drain a streaming trace (DESIGN.md §12) through a fixed block buffer
  // of `block_cycles` words: resident trace memory stays O(block) no
  // matter how long the stream runs, and because run() accumulates totals
  // with the same per-cycle operation sequence at any span split, the
  // result is bit-identical to one run() over the materialized words.
  // Rejects streams wider than the bus (the high lanes would be dropped).
  RunningTotals run(trace::TraceSource& source,
                    std::size_t block_cycles = trace::kDefaultBlockCycles);

  // Reset bus/flop state and totals (keeps the operating point and mode).
  void reset(const BusWord& initial_word = BusWord());

  const RunningTotals& totals() const { return totals_; }

  // Energy one cycle would consume at the CURRENT operating point if the
  // given word were driven — without mutating state. Used by tests.
  double peek_cycle_energy(const BusWord& word) const;

  // Reference energy per cycle of the conventional bus: same environment,
  // supply fixed at nominal. Used to normalise gains.
  static RunningTotals run_reference(const interconnect::BusDesign& design,
                                     const lut::DelayEnergyTable& table,
                                     tech::PvtCorner environment,
                                     const std::vector<BusWord>& words);
  static RunningTotals run_reference(const interconnect::BusDesign& design,
                                     const lut::DelayEnergyTable& table,
                                     tech::PvtCorner environment,
                                     const std::vector<std::uint32_t>& words);

 private:
  using Verdict = detail::Verdict;

  struct CycleOutcome {
    double dynamic_energy = 0.0;
    double worst_delay = 0.0;
    BusWord error_mask;
    BusWord shadow_mask;
    BusWord line_update;
  };

  void refresh_operating_point();
  Verdict classify_arrival(double arrival) const;

  void rebuild_group_tables();

  CycleResult step_reference(const BusWord& word);
  CycleResult step_bit_parallel(const BusWord& word);
  // Combo-table cycle kernel for jitter-free cycles (the common case).
  CycleOutcome table_kernel(const BusWord& prev, const BusWord& word) const;
  // Bit-parallel per-class kernel for jittered cycles: energy still comes
  // from the combo tables; verdicts are re-derived per present class.
  CycleOutcome jitter_kernel(const BusWord& prev, const BusWord& word,
                             const BusWord& line, double jitter) const;
  // Per-wire fallback for the cases the table kernels cannot serve: groups
  // too wide to tabulate, or receiver state diverged from the bus
  // (line != prev after a pathological arrival <= 0 hold).
  CycleOutcome general_kernel(const BusWord& prev, const BusWord& word,
                              const BusWord& line, double jitter);
  void run_bit_parallel(const BusWord* words, std::size_t n);
  void account_idle(CycleResult& out);

  const interconnect::BusDesign& design_;
  const lut::DelayEnergyTable& table_;
  tech::PvtCorner environment_;
  razor::RecoveryCostModel recovery_;
  tech::LeakageModel leakage_;
  WireClassifier classifier_;
  razor::FlopBank bank_;
  razor::FlopTiming timing_;
  EngineMode mode_ = EngineMode::bit_parallel;

  double supply_ = 0.0;
  lut::TableSlice slice_{};
  double leakage_energy_per_cycle_ = 0.0;
  double energy_scale_ = 1.0;  // rail-vs-effective voltage correction (IR drop)
  double cycle_overhead_ = 0.0;
  double error_overhead_ = 0.0;
  double jitter_sigma_ = 0.0;
  Rng jitter_rng_{0x7a5e11u};

  // Per-class operating-point precomputation (refreshed on supply change):
  // energy already scaled to the rail voltage, the class arrival time at
  // zero jitter, and the zero-jitter capture verdict. With jitter enabled
  // the verdict is re-derived per cycle from arrival = delay + jitter with
  // exactly the comparison chain of DoubleSamplingFlop::clock, so the
  // engines stay bit-identical (the verdict flips where delay + jitter
  // crosses a capture limit).
  double scaled_energy_[lut::PatternClass::kCount] = {};
  double class_delay_[lut::PatternClass::kCount] = {};
  Verdict class_verdict_[lut::PatternClass::kCount] = {};

  // Shield-group structure (see detail::GroupLayout). Combo tables are
  // built per operating point when layout_.tabulatable.
  detail::GroupLayout layout_;
  // False when some tabulated verdict is "held" (arrival <= 0), which the
  // toggle-update table path cannot express; zero-jitter cycles then go
  // through the per-class kernel instead.
  bool combo_zero_jitter_ok_ = true;
  std::vector<double> combo_energy_;
  std::vector<double> combo_worst_;
  std::vector<std::uint8_t> combo_error_;
  std::vector<std::uint8_t> combo_shadow_;

  BusWord prev_word_;
  // Value stably latched on each wire as the receiver sees it. Equals
  // prev_word_ except in the pathological arrival<=0 case (the flop keeps
  // its old value while the bus has moved on) — tracked separately so both
  // engines agree even there.
  BusWord line_word_;
  RunningTotals totals_;
  std::vector<double> arrivals_;
  std::vector<int> classes_;
};

// ------------------------------------------------------------- multi-point

// One operating point of a batched run: the regulator rail voltage plus
// the process/temperature/IR environment — exactly the axes BusSimulator
// fixes per instance (set_supply + the constructor's PvtCorner).
struct OperatingPoint {
  double supply = 0.0;
  tech::PvtCorner environment{};
};

struct MultiPointConfig {
  razor::RecoveryCostModel recovery{};
  // Common-mode arrival jitter, as BusSimulator::set_timing_jitter: one
  // draw per non-idle cycle. The draw sequence depends only on the trace
  // (which cycles are idle), never on the operating point, so a single
  // shared generator reproduces what N scalar shards — each re-seeded
  // with the same seed — would each draw.
  double timing_jitter_sigma = 0.0;
  std::uint64_t jitter_seed = 0x7a5e11u;
  BusWord initial_word{};
};

// Evaluates N operating points against ONE trace in a single pass
// (DESIGN.md §13). Per-cycle pattern work (idle detection, group combo
// indices, class masks) is shared across points; the per-point
// delay/energy/verdict evaluation is laid out structure-of-arrays — the
// combo tables hold rows of N energies/error-bytes per (prev, cur)
// combination — and the hot zero-jitter path reduces those rows with the
// util/simd.hpp kernels. Per-point totals are bit-identical to running
// BusSimulator (bit_parallel) once per point over the same trace: the
// per-cycle IEEE operation sequence of every point is preserved exactly
// (group-order energy sub-sums, one `+= dynamic + leakage` per cycle,
// the scalar engine's own per-point kernel selection).
class MultiPointEngine {
 public:
  // `design` and `table` must outlive the engine. Throws on an empty
  // point list or a non-positive supply.
  MultiPointEngine(const interconnect::BusDesign& design,
                   const lut::DelayEnergyTable& table,
                   const std::vector<OperatingPoint>& points,
                   const MultiPointConfig& config = {});

  std::size_t n_points() const { return n_points_; }

  // Drive `n` words through every point. Calls accumulate: spans may be
  // split arbitrarily (streamed blocks, multiple traces back to back)
  // with bit-identical totals, same contract as BusSimulator::run.
  void run(const BusWord* words, std::size_t n);
  void run(const std::vector<BusWord>& words) { run(words.data(), words.size()); }
  // Drain a streaming trace through a fixed block buffer (same width
  // check and block semantics as BusSimulator::run(TraceSource&)).
  void run(trace::TraceSource& source,
           std::size_t block_cycles = trace::kDefaultBlockCycles);

  // Totals of one point (cycles are shared: every point saw every cycle).
  RunningTotals totals(std::size_t point) const;
  std::vector<RunningTotals> all_totals() const;

  // Reset bus/receiver state and totals (keeps the operating points).
  void reset(const BusWord& initial_word = BusWord());

 private:
  void build_point(std::size_t p, const OperatingPoint& point);
  void fast_cycle(const BusWord& word);
  void mixed_cycle(const BusWord& word, double jitter);

  const interconnect::BusDesign& design_;
  const lut::DelayEnergyTable& table_;
  tech::LeakageModel leakage_;
  WireClassifier classifier_;
  razor::FlopTiming timing_;
  detail::GroupLayout layout_;

  std::size_t n_points_ = 0;
  std::size_t stride_ = 0;  // n_points_ padded to the SIMD row granule
  double cycle_overhead_ = 0.0;
  double cycle_error_overhead_ = 0.0;  // cycle + error overhead, pre-added
  double jitter_sigma_ = 0.0;
  Rng jitter_rng_{0x7a5e11u};

  // Per-point operating tables, structure-of-arrays. Row-major over the
  // point index: combo_* arrays hold one stride_-wide row per (group
  // table offset, prev, cur) combination so the fast path reduces whole
  // rows; the per-class arrays are point-major ([p * kCount + cls]) since
  // the scalar fallback kernels walk one point at a time.
  std::vector<double> leak_;                   // [stride_]
  std::vector<double> combo_energy_;           // [combo][stride_]
  std::vector<std::uint8_t> combo_error_;      // [combo][stride_]
  std::vector<std::uint8_t> combo_shadow_;     // [combo][stride_]
  std::vector<double> scaled_energy_;          // [point][kCount]
  std::vector<double> class_delay_;            // [point][kCount]
  std::vector<detail::Verdict> class_verdict_; // [point][kCount]
  std::vector<std::uint8_t> combo_ok_;         // per point: zero-jitter ok
  bool all_combo_ok_ = false;

  // Cycle state. While every point rides the fast table path their
  // receiver lines are all equal to prev & bits_mask, so line_ is kept
  // STALE (all_fast_ set) and materialized only when a cycle leaves the
  // fast path; afterwards per-point lines may diverge exactly as N scalar
  // engines' would.
  BusWord prev_word_;
  std::vector<BusWord> line_;
  bool all_fast_ = false;
  std::uint64_t cycles_ = 0;
  std::vector<std::uint64_t> errors_;           // [n_points_]
  std::vector<std::uint64_t> shadow_failures_;  // [n_points_]
  std::vector<double> bus_energy_;              // [stride_]
  std::vector<double> overhead_energy_;         // [stride_]

  // Per-cycle scratch rows (fast path).
  std::vector<double> dyn_;
  std::vector<std::uint8_t> errb_;
  std::vector<std::uint8_t> shadowb_;
  std::vector<int> classes_;
};

// One-shot convenience wrappers: build the engine, run the trace, return
// per-point totals in point order.
std::vector<RunningTotals> multi_point_run(const interconnect::BusDesign& design,
                                           const lut::DelayEnergyTable& table,
                                           const std::vector<OperatingPoint>& points,
                                           const BusWord* words, std::size_t n,
                                           const MultiPointConfig& config = {});
std::vector<RunningTotals> multi_point_run(const interconnect::BusDesign& design,
                                           const lut::DelayEnergyTable& table,
                                           const std::vector<OperatingPoint>& points,
                                           const std::vector<BusWord>& words,
                                           const MultiPointConfig& config = {});

}  // namespace razorbus::bus

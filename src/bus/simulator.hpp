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
//     per-group combo tables, each group read off the 64-bit lane that
//     holds it (one shift, one mask). The per-cycle hot path is then one
//     table lookup per group plus a handful of OR/max/add reductions.
//     Cycles with timing jitter fall back to
//     bit-parallel per-class verdicts (all wires of a pattern class share
//     one delay, so the verdict loop touches present classes, not wires),
//     still reading energy from the combo tables. Totals are bit-identical
//     to the reference engine, cycle for cycle.
//
// The batched run() entry point drives whole words[] spans (e.g. one
// regulator window) through the hot loop with totals accumulated in
// registers — this is what the experiment drivers use. At zero jitter,
// with a tabulatable layout free of held verdicts and the receivers in
// sync, the span is the table loop: one CycleRule::table_walk per non-idle
// cycle, no class pattern, no jitter draw and no per-cycle line update
// (the receivers stay in sync on that path). Any other cycle goes through
// CycleRule::evaluate, and the span rejoins the table loop once the
// receivers resync.
//
// The bit-parallel cycle rule is written once, as detail::CycleRule: the
// operating-point derivation, the combo-table fill, the table / jitter /
// general kernels and the rule that picks one per cycle, all addressing
// one point of a detail::PointTables. BusSimulator evaluates one point
// (row 0; row 1 is its nominal meter's, energy only). MultiPointEngine
// (DESIGN.md §13) evaluates N points per trace pass through the same rule;
// it adds only the structure-of-arrays row layout and fused row kernels for
// idle runs and for cycles on which every point takes the table kernel. Under
// EngineMode::bit_parallel the static sweep runs all its supplies through
// one MultiPointEngine pass: a schedule of that mode, not a mode of its own.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "bus/classify.hpp"
#include "interconnect/bus_design.hpp"
#include "lut/table.hpp"
#include "razor/bank.hpp"
#include "tech/corner.hpp"
#include "tech/leakage.hpp"
#include "util/busword.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"

namespace razorbus::bus {

// Which cycle engine drives the simulation (see file comment). `simd` is
// a legacy alias of bit_parallel, kept for callers that still name it.
enum class EngineMode { bit_parallel, reference, simd = bit_parallel };

// Engine names as used by the scenario specs ("bit_parallel",
// "reference"); from_string also reads the legacy "simd" as bit_parallel
// and throws std::invalid_argument on unknown names.
std::string to_string(EngineMode mode);
EngineMode engine_mode_from_string(const std::string& name);

// One operating point of a batched run: the regulator rail voltage plus
// the process/temperature/IR environment — exactly the axes BusSimulator
// fixes per instance (set_supply + the constructor's PvtCorner).
struct OperatingPoint {
  double supply = 0.0;
  tech::PvtCorner environment{};
};

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
// multi-lane) bus word, and its bits are read straight off the 64-bit lane
// that holds them: one shift and one mask. Only a group that straddles
// the lane boundary (start % 64 + width > 64) takes the two-lane
// BusWord::extract. Energy accounting is group-wise in EVERY
// engine/kernel (one sub-accumulator per group, groups summed in order)
// so all paths agree bit for bit. Shared between the single-point
// BusSimulator and the multi-point engine so both tabulate identically.
struct WireGroup {
  int start = 0;
  int width = 0;
  std::size_t table_offset = 0;  // into the combo_* arrays
  int lane = 0;                  // lane holding bit `start`
  int shift = 0;                 // start % 64
  std::uint64_t mask = 0;        // low `width` bits
  bool straddles = false;        // crosses bit 64: two-lane extract

  // Row of this group's (prev, cur) combination in the combo tables.
  std::size_t combo_index(const BusWord& prev, const BusWord& word) const {
    std::uint64_t pm = 0;
    std::uint64_t cm = 0;
    if (straddles) {
      pm = prev.extract(start, width);
      cm = word.extract(start, width);
    } else {
      pm = (prev.lane(lane) >> shift) & mask;
      cm = (word.lane(lane) >> shift) & mask;
    }
    return table_offset + static_cast<std::size_t>((pm << width) | cm);
  }
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

// Operating tables of one or more points, structure-of-arrays (refreshed
// by CycleRule::build_point on a supply or environment change). The combo
// arrays hold one `stride`-wide row per (group table offset, prev, cur)
// combination, so a multi-point cycle reduces whole rows; the per-class
// arrays are point-major ([p * kCount + cls]). One point is stride 1.
struct PointTables {
  PointTables(const GroupLayout& layout, std::size_t n_points, std::size_t row_stride);

  std::size_t stride = 0;
  std::vector<double> leak;  // [stride]: leakage energy per cycle
  // Per class: energy already scaled to the rail voltage, the arrival at
  // zero jitter, and the zero-jitter capture verdict. With jitter the
  // verdict is re-derived per cycle from arrival = delay + jitter with
  // exactly the comparison chain of DoubleSamplingFlop::clock, so the
  // engines stay bit-identical.
  std::vector<double> scaled_energy;   // [point][kCount]
  std::vector<double> class_delay;     // [point][kCount]
  std::vector<Verdict> class_verdict;  // [point][kCount]
  // 0 when some tabulated verdict is "held" (arrival <= 0), which the
  // toggle-update table kernel cannot express; that point's zero-jitter
  // cycles take the jitter kernel instead.
  std::vector<std::uint8_t> combo_ok;      // [point]
  std::vector<double> combo_energy;        // [combo][stride]
  std::vector<double> combo_worst;         // [combo][stride]
  std::vector<std::uint8_t> combo_error;   // [combo][stride]
  std::vector<std::uint8_t> combo_shadow;  // [combo][stride]
};

// One point's outcome of one non-idle cycle.
struct CycleOutcome {
  double dynamic_energy = 0.0;
  double worst_delay = 0.0;
  bool error = false;   // some receiver corrected (Error_L asserted)
  bool shadow = false;  // some receiver's shadow capture failed
  BusWord line_update;  // wires whose receiver latched this cycle's value
};

// Combo rows summed and ORed: over a cycle's shield groups
// (CycleRule::table_walk), or over one group's wires (a combo cell).
struct TableSums {
  double energy = 0.0;  // dynamic energy: 0.0 + e_g0 + e_g1 + ...
  double meter = 0.0;   // the same sum over row p + 1 (kMeter only)
  double worst = 0.0;   // worst arrival (kWorst only)
  std::uint8_t error = 0;   // ORed error bytes
  std::uint8_t shadow = 0;  // ORed shadow bytes
};

// The (prev, cur) pattern work of one cycle, shared by every point that
// needs it and computed on first demand: the class masks of the jitter
// kernel and the per-wire classes of the general kernel.
class CyclePattern {
 public:
  // `classes` is scratch for n_bits entries.
  CyclePattern(const WireClassifier& classifier, const BusWord& prev, const BusWord& word,
               int* classes)
      : classifier_(classifier), prev_(prev), word_(word), classes_(classes) {}

  const BusWord& prev() const { return prev_; }
  const BusWord& word() const { return word_; }
  const ClassMaskSet& masks() {
    if (!masks_) masks_ = classifier_.masks(prev_, word_);
    return *masks_;
  }
  const int* classes() {
    if (!have_classes_) classifier_.classify_all(prev_, word_, classes_);
    have_classes_ = true;
    return classes_;
  }

 private:
  const WireClassifier& classifier_;
  BusWord prev_;
  BusWord word_;
  int* classes_;
  bool have_classes_ = false;
  std::optional<ClassMaskSet> masks_;
};

// The bit-parallel engine's per-point cycle rule (paper Sections 3-4):
// each wire's pattern class gives a delay and an energy from the
// characterised tables, and the double-sampling latch decides clean,
// corrected or failed. BusSimulator and MultiPointEngine both evaluate
// their points through this one rule, so they agree bit for bit by
// construction.
class CycleRule {
 public:
  // `design` and `table` must outlive the rule. Throws on an invalid or
  // unsized design.
  CycleRule(const interconnect::BusDesign& design, const lut::DelayEnergyTable& table);

  const interconnect::BusDesign& design() const { return design_; }
  const WireClassifier& classifier() const { return classifier_; }
  const razor::FlopTiming& timing() const { return timing_; }
  const GroupLayout& layout() const { return layout_; }

  // Derives point `p` of `tables` (throws on a non-positive supply): the
  // table slice at the effective (IR-drooped) supply, the rail energy
  // scale, leakage per cycle, the per-class arrays and, for tabulatable
  // layouts, the combo rows at combo * stride + p.
  void build_point(PointTables& tables, std::size_t p, const OperatingPoint& point) const;

  // One non-idle cycle of point `p`, whose receivers hold `line`. Picks the
  // kernel: general when the layout is untabulatable; table at zero jitter
  // with the receiver in sync and combo_ok; jitter otherwise.
  //
  // kMeter (BusSimulator's nominal meter) also stores in `*nominal` the
  // dynamic energy of point p + 1 for the same (prev, cur): read from the
  // combo row index or the wire classes the kernel already has, summed in
  // the same group order. Energy never depends on a verdict or on jitter,
  // so point p + 1 needs no verdicts. Without kMeter (the default, and
  // MultiPointEngine's only use) the meter compiles away.
  template <bool kMeter = false>
  CycleOutcome evaluate(const PointTables& tables, std::size_t p, CyclePattern& pattern,
                        const BusWord& line, double jitter,
                        double* nominal = nullptr) const;

  // True when point p's zero-jitter, in-sync cycles may take the table
  // kernel: the layout is tabulatable and the point's combo rows hold no
  // held verdict.
  bool table_path(const PointTables& tables, std::size_t p) const {
    return layout_.tabulatable && tables.combo_ok[p];
  }

  // The combo-row group walk, the one copy of it: one combo row per shield
  // group for the (prev, cur) cycle of point p. Its energy sums hold on
  // any cycle; its error/shadow bytes and worst arrival are the cycle's
  // verdicts only when table_path(p) holds, jitter is zero and the
  // receivers are in sync. kMeter also sums row p + 1's energy, kWorst
  // the worst arrival. BusSimulator::run calls it directly on its table
  // stretches.
  template <bool kMeter, bool kWorst>
  TableSums table_walk(const PointTables& t, std::size_t p, const BusWord& prev,
                       const BusWord& word) const;

 private:
  // One lookup per shield group (jitter-free, receiver in sync).
  template <bool kMeter>
  CycleOutcome table_kernel(const PointTables& tables, std::size_t p, const BusWord& prev,
                            const BusWord& word, double* nominal) const;
  // Energy from the combo rows; verdicts re-derived per present class.
  template <bool kMeter>
  CycleOutcome jitter_kernel(const PointTables& tables, std::size_t p,
                             CyclePattern& pattern, const BusWord& line, double jitter,
                             double* nominal) const;
  // Per-wire fallback for groups too wide to tabulate.
  template <bool kMeter>
  CycleOutcome general_kernel(const PointTables& tables, std::size_t p,
                              CyclePattern& pattern, const BusWord& line, double jitter,
                              double* nominal) const;

  const interconnect::BusDesign& design_;
  const lut::DelayEnergyTable& table_;
  tech::LeakageModel leakage_;
  WireClassifier classifier_;
  razor::FlopTiming timing_;
  GroupLayout layout_;
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

  const interconnect::BusDesign& design() const { return rule_.design(); }
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

  // Reset bus/flop state and totals (keeps the operating point and mode);
  // restarts the nominal meter's sum when it is on.
  void reset(const BusWord& initial_word = BusWord());

  const RunningTotals& totals() const { return totals_; }

  // The energy-only nominal meter (DESIGN.md §5), off until started. Once
  // on, every cycle is also priced at (vdd_nominal, environment()), the
  // second row of this simulator's tables, into a sum of its own: exactly
  // the bus_energy of run_reference over the words driven since the meter
  // started. Each call (re)starts it: the nominal row is built now (and
  // again on every set_environment, never on set_supply), the sum restarts
  // at 0.0 and its first cycle compares against the zero word, whatever the
  // bus drove last.
  void start_nominal_meter();
  double nominal_bus_energy() const { return meter_energy_; }

  // Reference energy per cycle of the conventional bus: same environment,
  // supply fixed at nominal. Used to normalise gains.
  static RunningTotals run_reference(const interconnect::BusDesign& design,
                                     const lut::DelayEnergyTable& table,
                                     tech::PvtCorner environment,
                                     const std::vector<BusWord>& words);

 private:
  void refresh_operating_point();
  void refresh_nominal_row();
  double draw_jitter();
  CycleResult step_reference(const BusWord& word);
  // `meter`: the nominal meter rides this cycle (it is on and in step
  // with the bus).
  CycleResult step_bit_parallel(const BusWord& word, bool meter);
  template <bool kMeter>
  void run_bit_parallel(const BusWord* words, std::size_t n);
  void account_idle(CycleResult& out, bool meter);
  double nominal_cycle_energy(const BusWord& word);

  detail::CycleRule rule_;
  tech::PvtCorner environment_;
  razor::FlopBank bank_;
  // Row 0 is the operating point. The first start_nominal_meter()
  // re-lays the table at stride 2, and row 1 holds the meter's point.
  detail::PointTables tables_;
  double cycle_overhead_;
  double error_overhead_;
  EngineMode mode_ = EngineMode::bit_parallel;
  double supply_ = 0.0;
  double jitter_sigma_ = 0.0;
  Rng jitter_rng_{0x7a5e11u};

  BusWord prev_word_;
  // Value stably latched on each wire as the receiver sees it. Equals
  // prev_word_ except in the pathological arrival<=0 case (the flop keeps
  // its old value while the bus has moved on) — tracked separately so both
  // engines agree even there.
  BusWord line_word_;
  RunningTotals totals_;
  std::vector<double> arrivals_;
  std::vector<int> classes_;

  bool meter_ = false;
  double meter_energy_ = 0.0;
  // The meter's previous word: the zero word at its start, the bus's
  // previous word from its first cycle on.
  BusWord meter_prev_;
};

// ------------------------------------------------------------- multi-point

// Evaluates N operating points against ONE trace in a single pass
// (DESIGN.md §13). Per-cycle pattern work (idle detection, group combo
// indices, class masks) is shared across points. The per-point tables are
// structure-of-arrays rows (detail::PointTables). A cycle on which every
// point takes the table kernel is one util/simd.hpp table_cycle call, and a
// run of idle cycles is one idle_cycles call; any other cycle walks the
// points through BusSimulator's own detail::CycleRule. Per-point totals are
// therefore bit-identical to running BusSimulator (bit_parallel) once per
// point over the same trace (group-order energy sub-sums, one `+= dynamic +
// leakage` per cycle, one `+= leakage` per idle cycle).
class MultiPointEngine {
 public:
  // `design` and `table` must outlive the engine. Throws on an empty
  // point list, a non-positive supply or a negative jitter sigma.
  // `timing_jitter_sigma` is BusSimulator::set_timing_jitter's common-mode
  // arrival jitter at its default seed: one draw per non-idle cycle. The
  // draw sequence depends only on the trace (which cycles are idle), never
  // on the operating point, so one shared generator reproduces what N
  // scalar simulators would each draw.
  MultiPointEngine(const interconnect::BusDesign& design,
                   const lut::DelayEnergyTable& table,
                   const std::vector<OperatingPoint>& points,
                   double timing_jitter_sigma = 0.0);
  // rows_ points into the engine's own vectors.
  MultiPointEngine(const MultiPointEngine&) = delete;
  MultiPointEngine& operator=(const MultiPointEngine&) = delete;

  std::size_t n_points() const { return n_points_; }

  // Drive `n` words through every point. Calls accumulate: spans may be
  // split arbitrarily (streamed blocks, multiple traces back to back)
  // with bit-identical totals, same contract as BusSimulator::run.
  void run(const BusWord* words, std::size_t n);
  void run(const std::vector<BusWord>& words) { run(words.data(), words.size()); }

  // Totals of one point (cycles are shared: every point saw every cycle).
  RunningTotals totals(std::size_t point) const;

  // Reset bus/receiver state and totals (keeps the operating points).
  void reset(const BusWord& initial_word = BusWord());

 private:
  void fast_cycle(const BusWord& word);
  void mixed_cycle(const BusWord& word, double jitter);

  detail::CycleRule rule_;
  std::size_t n_points_;
  // Rows padded to simd::kChunk points. The padding slots' tables stay
  // zero, and their accumulators never reach the totals.
  detail::PointTables tables_;
  double jitter_sigma_;
  Rng jitter_rng_{0x7a5e11u};
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
  // Accumulator rows, [stride] each.
  std::vector<std::uint64_t> errors_;
  std::vector<std::uint64_t> shadow_failures_;
  std::vector<double> bus_energy_;
  std::vector<double> overhead_energy_;
  // The accumulator and table rows as the fused kernels address them, and
  // the per-cycle overheads every path adds.
  simd::Rows rows_;

  // Per-cycle scratch: the groups' combo row offsets (fast path) and the
  // per-wire classes (mixed path).
  std::vector<std::size_t> offsets_;
  std::vector<int> classes_;
};

}  // namespace razorbus::bus

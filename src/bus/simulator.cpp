#include "bus/simulator.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "util/bits.hpp"
#include "util/simd.hpp"
#include "util/units.hpp"

namespace razorbus::bus {

namespace {

razor::FlopTiming make_timing(const interconnect::BusDesign& design) {
  razor::FlopTiming t{};
  t.main_capture_limit = design.main_capture_limit();
  t.shadow_capture_limit = design.shadow_capture_limit();
  // Short paths must not race past the delayed shadow clock. Common-mode
  // jitter moves data and clock together, so leave a small allowance
  // rather than comparing against the raw shadow delay. Clamped at zero
  // (= check disabled) so a small shadow_delay_fraction cannot produce a
  // negative limit that would spuriously flag every fast arrival.
  t.min_path_limit =
      std::max(0.0, design.shadow_delay_fraction * design.clock_period() - 15e-12);
  return t;
}

// Branch order mirrors DoubleSamplingFlop::clock exactly; keeping the
// comparison chain identical across every engine is what makes them all
// bit-compatible.
detail::Verdict classify_arrival_for(const razor::FlopTiming& timing, double arrival) {
  using detail::Verdict;
  if (arrival <= 0.0) return Verdict::held;
  if (timing.min_path_limit > 0.0 && arrival < timing.min_path_limit)
    return Verdict::shadow_failed;
  if (arrival <= timing.main_capture_limit) return Verdict::clean;
  if (arrival <= timing.shadow_capture_limit) return Verdict::corrected;
  return Verdict::shadow_failed;
}

// One (prev, cur) combination of one shield group at one operating point:
// the per-bit chain in ascending bit order — the exact operation sequence
// every engine uses for this group's energy sub-sum — plus the zero-jitter
// wire verdicts folded into error/shadow masks. `any_held` flags the
// arrival <= 0 case the toggle-update table path cannot express. Shared by
// the single-point and multi-point table builders so their tables agree
// bit for bit by construction.
struct ComboCell {
  double energy = 0.0;
  double worst = 0.0;
  std::uint8_t error_mask = 0;
  std::uint8_t shadow_mask = 0;
  bool any_held = false;
};

ComboCell compute_combo(int w, std::uint32_t pm, std::uint32_t cm,
                        const double* scaled_energy, const double* class_delay,
                        const detail::Verdict* class_verdict) {
  using detail::Verdict;
  using lut::NeighborActivity;
  using lut::PatternClass;
  ComboCell cell;
  for (int b = 0; b < w; ++b) {
    const auto victim = lut::classify_victim((pm >> b) & 1u, (cm >> b) & 1u);
    const NeighborActivity left =
        b == 0 ? NeighborActivity::shield
               : lut::classify_neighbor((pm >> (b - 1)) & 1u, (cm >> (b - 1)) & 1u);
    const NeighborActivity right =
        b == w - 1 ? NeighborActivity::shield
                   : lut::classify_neighbor((pm >> (b + 1)) & 1u, (cm >> (b + 1)) & 1u);
    const int cls = PatternClass::encode(victim, left, right);
    cell.energy += scaled_energy[cls];
    const double d = class_delay[cls];
    if (std::isnan(d)) continue;
    if (d > cell.worst) cell.worst = d;
    // A switching victim toggles by definition, so at zero jitter
    // (line == prev) the wire is active and the class verdict is the
    // wire verdict.
    switch (class_verdict[cls]) {
      case Verdict::held:
        cell.any_held = true;
        break;
      case Verdict::clean:
        break;
      case Verdict::corrected:
        cell.error_mask |= static_cast<std::uint8_t>(1u << b);
        break;
      case Verdict::shadow_failed:
        cell.shadow_mask |= static_cast<std::uint8_t>(1u << b);
        break;
    }
  }
  return cell;
}

}  // namespace

namespace detail {

GroupLayout GroupLayout::build(const interconnect::BusDesign& design) {
  // A group is a maximal run of signal wires with no internal shield; its
  // edges border shields (the layout guarantees shields at both bus
  // edges), so nothing outside a group influences its wires. Same-width
  // groups are structurally identical and share one combo-table block.
  GroupLayout layout;
  const int n = design.n_bits;
  std::size_t offsets[kMaxTableWidth + 1];
  std::fill(std::begin(offsets), std::end(offsets), static_cast<std::size_t>(-1));
  layout.tabulatable = true;

  int i = 0;
  while (i < n) {
    int j = i + 1;
    while (j < n && design.left_neighbor(j) != interconnect::NeighborKind::shield) ++j;
    WireGroup g;
    g.start = i;
    g.width = j - i;
    if (g.width > kMaxTableWidth) {
      layout.tabulatable = false;
    } else {
      if (offsets[g.width] == static_cast<std::size_t>(-1)) {
        offsets[g.width] = layout.total_combos;
        layout.total_combos += static_cast<std::size_t>(1) << (2 * g.width);
      }
      g.table_offset = offsets[g.width];
    }
    layout.groups.push_back(g);
    i = j;
  }
  return layout;
}

}  // namespace detail

BusSimulator::BusSimulator(const interconnect::BusDesign& design,
                           const lut::DelayEnergyTable& table,
                           tech::PvtCorner environment,
                           razor::RecoveryCostModel recovery)
    : design_(design),
      table_(table),
      environment_(environment),
      recovery_(recovery),
      leakage_(design.node),
      classifier_(design),
      bank_(design.n_bits, make_timing(design)),
      timing_(make_timing(design)),
      arrivals_(static_cast<std::size_t>(design.n_bits), -1.0),
      classes_(static_cast<std::size_t>(design.n_bits), 0) {
  design_.validate();
  if (design_.repeater_size <= 0.0)
    throw std::invalid_argument("BusSimulator: repeaters not sized");
  cycle_overhead_ = recovery_.cycle_overhead(design_.n_bits);
  error_overhead_ = recovery_.error_overhead(design_.n_bits);
  layout_ = detail::GroupLayout::build(design_);
  if (layout_.tabulatable) {
    combo_energy_.assign(layout_.total_combos, 0.0);
    combo_worst_.assign(layout_.total_combos, 0.0);
    combo_error_.assign(layout_.total_combos, 0);
    combo_shadow_.assign(layout_.total_combos, 0);
  }
  set_supply(design_.node.vdd_nominal);
}

void BusSimulator::set_supply(double volts) {
  if (volts <= 0.0) throw std::invalid_argument("BusSimulator: non-positive supply");
  // Tolerant compare (kSupplyToleranceVolts, shared with the regulator):
  // the regulator accumulates 20 mV steps in floating point, so "the same
  // voltage" can arrive a few ULPs away from the value we cached. A
  // sub-nanovolt difference never changes the interpolated tables, while
  // an exact != would force a needless operating-point refresh on every
  // closed-loop segment.
  if (supply_ > 0.0 && std::fabs(volts - supply_) <= kSupplyToleranceVolts) return;
  supply_ = volts;
  refresh_operating_point();
}

void BusSimulator::set_environment(const tech::PvtCorner& environment) {
  // Exact compare on purpose: drift schedules quantise temperature to the
  // characterised axis and re-derive the same corner for most windows, so
  // the common case is bit-equality and an early return.
  if (environment == environment_) return;
  environment_ = environment;
  refresh_operating_point();
}

std::string to_string(EngineMode mode) {
  switch (mode) {
    case EngineMode::bit_parallel:
      return "bit_parallel";
    case EngineMode::reference:
      return "reference";
    case EngineMode::simd:
      return "simd";
  }
  return "bit_parallel";
}

EngineMode engine_mode_from_string(const std::string& name) {
  if (name == "bit_parallel") return EngineMode::bit_parallel;
  if (name == "reference") return EngineMode::reference;
  if (name == "simd") return EngineMode::simd;
  throw std::invalid_argument("unknown engine mode '" + name +
                              "' (expected bit_parallel, reference or simd)");
}

void BusSimulator::set_engine_mode(EngineMode mode) {
  if (mode == mode_) return;
  mode_ = mode;
  // The engines share receiver state through line_word_: the reference
  // engine re-seeds its flop bank from it, the bit-parallel engine reads
  // it directly. Counters and totals carry over untouched.
  if (mode_ == EngineMode::reference)
    bank_ = razor::FlopBank(design_.n_bits, timing_, line_word_);
}

BusSimulator::Verdict BusSimulator::classify_arrival(double arrival) const {
  return classify_arrival_for(timing_, arrival);
}

void BusSimulator::refresh_operating_point() {
  const double v_eff = environment_.effective_supply(supply_);
  slice_ = table_.slice(environment_.process, environment_.temp_c, v_eff);
  // The tables are characterised at the drooped driver voltage; the charge
  // is still drawn from the un-drooped supply rail.
  energy_scale_ = supply_ / v_eff;

  const double n_drivers =
      static_cast<double>(design_.n_bits) * static_cast<double>(design_.n_segments);
  const double leak_current = leakage_.current(
      design_.repeater_size, environment_.process, environment_.temp_c, v_eff);
  leakage_energy_per_cycle_ = n_drivers * leak_current * supply_ * design_.clock_period();

  // Per-class precomputation: all wires of a class share one delay, so the
  // capture verdict (at zero jitter) and the rail-scaled energy are
  // functions of the operating point alone.
  for (int cls = 0; cls < lut::PatternClass::kCount; ++cls) {
    scaled_energy_[cls] = slice_.energy[cls] * energy_scale_;
    class_delay_[cls] = slice_.delay[cls];
    class_verdict_[cls] = std::isnan(class_delay_[cls])
                              ? Verdict::held
                              : classify_arrival(class_delay_[cls]);
  }
  if (layout_.tabulatable) rebuild_group_tables();
}

void BusSimulator::rebuild_group_tables() {
  combo_zero_jitter_ok_ = true;
  bool built[detail::GroupLayout::kMaxTableWidth + 1] = {};
  for (const auto& g : layout_.groups) {
    if (built[g.width]) continue;
    built[g.width] = true;
    const int w = g.width;
    const std::uint32_t combos = 1u << w;
    for (std::uint32_t pm = 0; pm < combos; ++pm) {
      for (std::uint32_t cm = 0; cm < combos; ++cm) {
        const ComboCell cell =
            compute_combo(w, pm, cm, scaled_energy_, class_delay_, class_verdict_);
        // An arrival <= 0 verdict in any reachable combo means the wire
        // would silently keep its old value, which the toggle-update
        // table path cannot express — route such operating points
        // through the per-class kernel instead.
        if (cell.any_held) combo_zero_jitter_ok_ = false;
        const std::size_t idx = g.table_offset + ((pm << w) | cm);
        combo_energy_[idx] = cell.energy;
        combo_worst_[idx] = cell.worst;
        combo_error_[idx] = cell.error_mask;
        combo_shadow_[idx] = cell.shadow_mask;
      }
    }
  }
}

void BusSimulator::set_timing_jitter(double sigma_seconds, std::uint64_t seed) {
  if (sigma_seconds < 0.0) throw std::invalid_argument("negative jitter sigma");
  jitter_sigma_ = sigma_seconds;
  jitter_rng_ = Rng(seed);
}

void BusSimulator::account_idle(CycleResult& out) {
  // Idle bus: nothing switches, no flop can err, no dynamic energy.
  out.bus_energy = leakage_energy_per_cycle_;
  out.overhead_energy = cycle_overhead_;
  ++totals_.cycles;
  totals_.bus_energy += out.bus_energy;
  totals_.overhead_energy += out.overhead_energy;
}

CycleResult BusSimulator::step(const BusWord& word) {
  // simd is a driver-level scheduling mode; on a single simulator it IS
  // the bit-parallel engine.
  return mode_ == EngineMode::reference ? step_reference(word)
                                        : step_bit_parallel(word);
}

// --------------------------------------------------------------- reference

CycleResult BusSimulator::step_reference(const BusWord& word) {
  CycleResult out;

  if (word == prev_word_) {
    bank_.tick_hold();
    account_idle(out);
    return out;
  }

  classifier_.classify_all(prev_word_, word, classes_.data());
  const double jitter =
      jitter_sigma_ > 0.0 ? jitter_rng_.normal(0.0, jitter_sigma_) : 0.0;

  double worst = 0.0;
  for (int bit = 0; bit < classifier_.n_bits(); ++bit) {
    const double d = slice_.delay[classes_[static_cast<std::size_t>(bit)]];
    if (std::isnan(d)) {
      arrivals_[static_cast<std::size_t>(bit)] = -1.0;
    } else {
      const double arrival = d + jitter;
      arrivals_[static_cast<std::size_t>(bit)] = arrival;
      if (arrival > worst) worst = arrival;
    }
  }
  // Group-wise energy accounting (one sub-accumulator per shield group,
  // groups summed in order): the exact operation sequence of the
  // bit-parallel engine's precomputed group tables, so the engines'
  // energy totals match bit for bit.
  double dynamic_energy = 0.0;
  for (const auto& g : layout_.groups) {
    double sub = 0.0;
    for (int bit = g.start; bit < g.start + g.width; ++bit)
      sub += scaled_energy_[classes_[static_cast<std::size_t>(bit)]];
    dynamic_energy += sub;
  }

  const razor::BankCycleResult bank = bank_.clock(word, arrivals_);
  line_word_ = bank.captured;
  out.error = bank.error;
  out.shadow_failure = bank.shadow_failure;
  out.worst_delay = worst;
  out.bus_energy = dynamic_energy + leakage_energy_per_cycle_;
  out.overhead_energy = cycle_overhead_;
  if (bank.error) out.overhead_energy += error_overhead_;

  prev_word_ = word;
  ++totals_.cycles;
  if (out.error) ++totals_.errors;
  if (out.shadow_failure) ++totals_.shadow_failures;
  totals_.bus_energy += out.bus_energy;
  totals_.overhead_energy += out.overhead_energy;
  return out;
}

// ------------------------------------------------------------ bit-parallel

BusSimulator::CycleOutcome BusSimulator::table_kernel(const BusWord& prev,
                                                      const BusWord& word) const {
  // Jitter-free, receiver in sync: the whole cycle is one lookup per
  // shield group. Every toggling wire captures (cleanly or not), so the
  // line update is simply the toggle mask.
  CycleOutcome out;
  for (const auto& g : layout_.groups) {
    const std::uint64_t pm = prev.extract(g.start, g.width);
    const std::uint64_t cm = word.extract(g.start, g.width);
    const std::size_t idx =
        g.table_offset + static_cast<std::size_t>((pm << g.width) | cm);
    out.dynamic_energy += combo_energy_[idx];
    if (combo_worst_[idx] > out.worst_delay) out.worst_delay = combo_worst_[idx];
    out.error_mask |= BusWord(combo_error_[idx]) << g.start;
    out.shadow_mask |= BusWord(combo_shadow_[idx]) << g.start;
  }
  out.line_update = (prev ^ word) & classifier_.bits_mask();
  return out;
}

BusSimulator::CycleOutcome BusSimulator::jitter_kernel(const BusWord& prev,
                                                       const BusWord& word,
                                                       const BusWord& line,
                                                       double jitter) const {
  CycleOutcome out;
  // Energy and the per-group sub-sum order are jitter-independent: reuse
  // the combo tables.
  for (const auto& g : layout_.groups) {
    const std::uint64_t pm = prev.extract(g.start, g.width);
    const std::uint64_t cm = word.extract(g.start, g.width);
    out.dynamic_energy +=
        combo_energy_[g.table_offset + static_cast<std::size_t>((pm << g.width) | cm)];
  }

  // Verdicts shift with the common-mode jitter: re-derive them per present
  // switching class (all wires of a class share one arrival), comparing
  // arrival = delay + jitter with exactly the flop's comparison chain.
  const ClassMaskSet s = classifier_.masks(prev, word);
  const BusWord flop_toggle = word ^ line;
  for (int v = 0; v < 2; ++v) {  // rise, fall: the switching victims
    const BusWord vm = s.victim[v];
    if (!vm.any()) continue;
    for (int l = 0; l < 4; ++l) {
      const BusWord vl = vm & s.left[l];
      if (!vl.any()) continue;
      for (int r = 0; r < 4; ++r) {
        const BusWord mask = vl & s.right[r];
        if (!mask.any()) continue;
        const int cls = (v << 4) | (l << 2) | r;
        const double arrival = class_delay_[cls] + jitter;
        if (arrival > out.worst_delay) out.worst_delay = arrival;
        const BusWord active = mask & flop_toggle;
        if (!active.any()) continue;
        switch (classify_arrival(arrival)) {
          case Verdict::held:
            break;
          case Verdict::clean:
            out.line_update |= active;
            break;
          case Verdict::corrected:
            out.error_mask |= active;
            out.line_update |= active;
            break;
          case Verdict::shadow_failed:
            out.shadow_mask |= active;
            out.line_update |= active;
            break;
        }
      }
    }
  }
  return out;
}

BusSimulator::CycleOutcome BusSimulator::general_kernel(const BusWord& prev,
                                                        const BusWord& word,
                                                        const BusWord& line,
                                                        double jitter) {
  // Per-wire fallback for untabulatable layouts (a shield group wider than
  // kMaxTableWidth): classify every wire, keep the group-wise energy
  // accounting, and apply the class verdict per wire.
  CycleOutcome out;
  classifier_.classify_all(prev, word, classes_.data());
  const BusWord flop_toggle = word ^ line;
  for (const auto& g : layout_.groups) {
    double sub = 0.0;
    for (int bit = g.start; bit < g.start + g.width; ++bit) {
      const int cls = classes_[static_cast<std::size_t>(bit)];
      sub += scaled_energy_[cls];
      const double d = class_delay_[cls];
      if (std::isnan(d)) continue;
      const double arrival = d + jitter;
      if (arrival > out.worst_delay) out.worst_delay = arrival;
      if (!flop_toggle.test(bit)) continue;
      const BusWord wire = BusWord(1) << bit;
      switch (classify_arrival(arrival)) {
        case Verdict::held:
          break;
        case Verdict::clean:
          out.line_update |= wire;
          break;
        case Verdict::corrected:
          out.error_mask |= wire;
          out.line_update |= wire;
          break;
        case Verdict::shadow_failed:
          out.shadow_mask |= wire;
          out.line_update |= wire;
          break;
      }
    }
    out.dynamic_energy += sub;
  }
  return out;
}

CycleResult BusSimulator::step_bit_parallel(const BusWord& word) {
  CycleResult out;

  if (word == prev_word_) {
    account_idle(out);
    return out;
  }

  const double jitter =
      jitter_sigma_ > 0.0 ? jitter_rng_.normal(0.0, jitter_sigma_) : 0.0;
  const bool in_sync = ((line_word_ ^ prev_word_) & classifier_.bits_mask()).none();
  CycleOutcome k;
  if (!layout_.tabulatable)
    k = general_kernel(prev_word_, word, line_word_, jitter);
  // razorlint: allow(float-eq): exact 0.0 marks "no jitter drawn this cycle";
  // the combo-table fast path is only valid for that exact case (DESIGN.md §5).
  else if (jitter == 0.0 && in_sync && combo_zero_jitter_ok_)
    k = table_kernel(prev_word_, word);
  else
    k = jitter_kernel(prev_word_, word, line_word_, jitter);

  line_word_ = (line_word_ & ~k.line_update) | (word & k.line_update);
  out.error = k.error_mask.any();
  out.shadow_failure = k.shadow_mask.any();
  out.worst_delay = k.worst_delay;
  out.bus_energy = k.dynamic_energy + leakage_energy_per_cycle_;
  out.overhead_energy = cycle_overhead_;
  if (out.error) out.overhead_energy += error_overhead_;

  prev_word_ = word;
  ++totals_.cycles;
  if (out.error) ++totals_.errors;
  if (out.shadow_failure) ++totals_.shadow_failures;
  totals_.bus_energy += out.bus_energy;
  totals_.overhead_energy += out.overhead_energy;
  return out;
}

void BusSimulator::run_bit_parallel(const BusWord* words, std::size_t n) {
  // Totals accumulate in registers across the whole span; the per-cycle
  // operation sequence (one `+= dynamic + leakage` per cycle, etc.) is
  // kept identical to step(), so batching never changes a single bit.
  std::uint64_t cycles = totals_.cycles;
  std::uint64_t errors = totals_.errors;
  std::uint64_t shadow_failures = totals_.shadow_failures;
  double bus_energy = totals_.bus_energy;
  double overhead_energy = totals_.overhead_energy;
  BusWord prev = prev_word_;
  BusWord line = line_word_;

  const double leak = leakage_energy_per_cycle_;
  const double cycle_ovh = cycle_overhead_;
  const double error_ovh = error_overhead_;
  const bool jitter_on = jitter_sigma_ > 0.0;
  const BusWord bits_mask = classifier_.bits_mask();

  for (std::size_t i = 0; i < n; ++i) {
    const BusWord word = words[i];
    if (word == prev) {
      ++cycles;
      bus_energy += leak;
      overhead_energy += cycle_ovh;
      continue;
    }
    const double jitter = jitter_on ? jitter_rng_.normal(0.0, jitter_sigma_) : 0.0;
    CycleOutcome k;
    if (!layout_.tabulatable)
      k = general_kernel(prev, word, line, jitter);
    // razorlint: allow(float-eq): exact 0.0 marks "no jitter drawn this cycle";
    // the table path is only valid for that exact case (DESIGN.md §5).
    else if (jitter == 0.0 && ((line ^ prev) & bits_mask).none() && combo_zero_jitter_ok_)
      k = table_kernel(prev, word);
    else
      k = jitter_kernel(prev, word, line, jitter);

    line = (line & ~k.line_update) | (word & k.line_update);
    prev = word;
    ++cycles;
    const bool error = k.error_mask.any();
    if (error) ++errors;
    if (k.shadow_mask.any()) ++shadow_failures;
    bus_energy += k.dynamic_energy + leak;
    double ovh = cycle_ovh;
    if (error) ovh += error_ovh;
    overhead_energy += ovh;
  }

  totals_.cycles = cycles;
  totals_.errors = errors;
  totals_.shadow_failures = shadow_failures;
  totals_.bus_energy = bus_energy;
  totals_.overhead_energy = overhead_energy;
  prev_word_ = prev;
  line_word_ = line;
}

// ------------------------------------------------------------------ shared

RunningTotals BusSimulator::run(const BusWord* words, std::size_t n) {
  const RunningTotals before = totals_;
  if (mode_ == EngineMode::reference) {
    for (std::size_t i = 0; i < n; ++i) step_reference(words[i]);
  } else {
    run_bit_parallel(words, n);
  }
  RunningTotals delta;
  delta.cycles = totals_.cycles - before.cycles;
  delta.errors = totals_.errors - before.errors;
  delta.shadow_failures = totals_.shadow_failures - before.shadow_failures;
  delta.bus_energy = totals_.bus_energy - before.bus_energy;
  delta.overhead_energy = totals_.overhead_energy - before.overhead_energy;
  return delta;
}

RunningTotals BusSimulator::run(const std::uint32_t* words, std::size_t n) {
  const std::vector<BusWord> wide(words, words + n);
  return run(wide.data(), wide.size());
}

RunningTotals BusSimulator::run(trace::TraceSource& source, std::size_t block_cycles) {
  if (block_cycles == 0)
    throw std::invalid_argument("BusSimulator::run: block_cycles must be > 0");
  if (source.n_bits() > design_.n_bits)
    throw std::invalid_argument("BusSimulator::run: stream '" + source.name() +
                                "' is " + std::to_string(source.n_bits()) +
                                " bits wide but the bus has " +
                                std::to_string(design_.n_bits) + " wires");
  const RunningTotals before = totals_;
  std::vector<BusWord> buffer(block_cycles);
  for (;;) {
    const std::size_t n = source.next_block(buffer.data(), buffer.size());
    if (n == 0) break;
    run(buffer.data(), n);
  }
  RunningTotals delta;
  delta.cycles = totals_.cycles - before.cycles;
  delta.errors = totals_.errors - before.errors;
  delta.shadow_failures = totals_.shadow_failures - before.shadow_failures;
  delta.bus_energy = totals_.bus_energy - before.bus_energy;
  delta.overhead_energy = totals_.overhead_energy - before.overhead_energy;
  return delta;
}

void BusSimulator::reset(const BusWord& initial_word) {
  prev_word_ = initial_word;
  line_word_ = initial_word & classifier_.bits_mask();
  totals_ = RunningTotals{};
  bank_ = razor::FlopBank(design_.n_bits, timing_, initial_word);
}

double BusSimulator::peek_cycle_energy(const BusWord& word) const {
  // Per-group sub-sums, same accounting as the engines.
  double energy = leakage_energy_per_cycle_;
  if (word == prev_word_) return energy;
  for (const auto& g : layout_.groups) {
    double sub = 0.0;
    for (int bit = g.start; bit < g.start + g.width; ++bit)
      sub += slice_.energy[classifier_.classify(prev_word_, word, bit)] * energy_scale_;
    energy += sub;
  }
  return energy;
}

RunningTotals BusSimulator::run_reference(const interconnect::BusDesign& design,
                                          const lut::DelayEnergyTable& table,
                                          tech::PvtCorner environment,
                                          const std::vector<BusWord>& words) {
  BusSimulator sim(design, table, environment);
  sim.set_supply(design.node.vdd_nominal);
  sim.run(words.data(), words.size());
  return sim.totals();
}

RunningTotals BusSimulator::run_reference(const interconnect::BusDesign& design,
                                          const lut::DelayEnergyTable& table,
                                          tech::PvtCorner environment,
                                          const std::vector<std::uint32_t>& words) {
  return run_reference(design, table, environment,
                       std::vector<BusWord>(words.begin(), words.end()));
}

// ------------------------------------------------------------- multi-point

MultiPointEngine::MultiPointEngine(const interconnect::BusDesign& design,
                                   const lut::DelayEnergyTable& table,
                                   const std::vector<OperatingPoint>& points,
                                   const MultiPointConfig& config)
    : design_(design),
      table_(table),
      leakage_(design.node),
      classifier_(design),
      timing_(make_timing(design)),
      jitter_sigma_(config.timing_jitter_sigma),
      jitter_rng_(config.jitter_seed),
      classes_(static_cast<std::size_t>(design.n_bits), 0) {
  design_.validate();
  if (design_.repeater_size <= 0.0)
    throw std::invalid_argument("MultiPointEngine: repeaters not sized");
  if (points.empty())
    throw std::invalid_argument("MultiPointEngine: empty operating-point list");
  if (jitter_sigma_ < 0.0) throw std::invalid_argument("negative jitter sigma");

  cycle_overhead_ = config.recovery.cycle_overhead(design_.n_bits);
  cycle_error_overhead_ =
      cycle_overhead_ + config.recovery.error_overhead(design_.n_bits);
  layout_ = detail::GroupLayout::build(design_);

  n_points_ = points.size();
  // Rows padded to a fixed four-lane granule (the widest double vector in
  // util/simd.cpp); padding slots stay zero and never reach the totals.
  stride_ = (n_points_ + 3) & ~std::size_t{3};

  leak_.assign(stride_, 0.0);
  scaled_energy_.assign(n_points_ * lut::PatternClass::kCount, 0.0);
  class_delay_.assign(n_points_ * lut::PatternClass::kCount, 0.0);
  class_verdict_.assign(n_points_ * lut::PatternClass::kCount, detail::Verdict::held);
  combo_ok_.assign(n_points_, 1);
  if (layout_.tabulatable) {
    combo_energy_.assign(layout_.total_combos * stride_, 0.0);
    combo_error_.assign(layout_.total_combos * stride_, 0);
    combo_shadow_.assign(layout_.total_combos * stride_, 0);
  }
  for (std::size_t p = 0; p < n_points_; ++p) build_point(p, points[p]);
  all_combo_ok_ = layout_.tabulatable;
  for (std::size_t p = 0; p < n_points_; ++p)
    if (!combo_ok_[p]) all_combo_ok_ = false;

  line_.assign(n_points_, BusWord());
  errors_.assign(n_points_, 0);
  shadow_failures_.assign(n_points_, 0);
  bus_energy_.assign(stride_, 0.0);
  overhead_energy_.assign(stride_, 0.0);
  dyn_.assign(stride_, 0.0);
  errb_.assign(stride_, 0);
  shadowb_.assign(stride_, 0);
  reset(config.initial_word);
}

void MultiPointEngine::build_point(std::size_t p, const OperatingPoint& point) {
  if (point.supply <= 0.0)
    throw std::invalid_argument("MultiPointEngine: non-positive supply");
  // Exactly BusSimulator::refresh_operating_point, written into row `p`
  // of the structure-of-arrays tables.
  const tech::PvtCorner& env = point.environment;
  const double v_eff = env.effective_supply(point.supply);
  const lut::TableSlice slice = table_.slice(env.process, env.temp_c, v_eff);
  const double energy_scale = point.supply / v_eff;

  const double n_drivers =
      static_cast<double>(design_.n_bits) * static_cast<double>(design_.n_segments);
  const double leak_current =
      leakage_.current(design_.repeater_size, env.process, env.temp_c, v_eff);
  leak_[p] = n_drivers * leak_current * point.supply * design_.clock_period();

  double* se = &scaled_energy_[p * lut::PatternClass::kCount];
  double* cd = &class_delay_[p * lut::PatternClass::kCount];
  detail::Verdict* cv = &class_verdict_[p * lut::PatternClass::kCount];
  for (int cls = 0; cls < lut::PatternClass::kCount; ++cls) {
    se[cls] = slice.energy[cls] * energy_scale;
    cd[cls] = slice.delay[cls];
    cv[cls] = std::isnan(cd[cls]) ? detail::Verdict::held
                                  : classify_arrival_for(timing_, cd[cls]);
  }

  if (!layout_.tabulatable) return;
  bool ok = true;
  bool built[detail::GroupLayout::kMaxTableWidth + 1] = {};
  for (const auto& g : layout_.groups) {
    if (built[g.width]) continue;
    built[g.width] = true;
    const int w = g.width;
    const std::uint32_t combos = 1u << w;
    for (std::uint32_t pm = 0; pm < combos; ++pm) {
      for (std::uint32_t cm = 0; cm < combos; ++cm) {
        const ComboCell cell = compute_combo(w, pm, cm, se, cd, cv);
        if (cell.any_held) ok = false;
        const std::size_t row =
            (g.table_offset + static_cast<std::size_t>((pm << w) | cm)) * stride_;
        combo_energy_[row + p] = cell.energy;
        combo_error_[row + p] = cell.error_mask;
        combo_shadow_[row + p] = cell.shadow_mask;
      }
    }
  }
  combo_ok_[p] = ok ? 1 : 0;
}

void MultiPointEngine::reset(const BusWord& initial_word) {
  prev_word_ = initial_word;
  std::fill(line_.begin(), line_.end(), initial_word & classifier_.bits_mask());
  all_fast_ = all_combo_ok_;
  cycles_ = 0;
  std::fill(errors_.begin(), errors_.end(), 0);
  std::fill(shadow_failures_.begin(), shadow_failures_.end(), 0);
  std::fill(bus_energy_.begin(), bus_energy_.end(), 0.0);
  std::fill(overhead_energy_.begin(), overhead_energy_.end(), 0.0);
}

void MultiPointEngine::run(const BusWord* words, std::size_t n) {
  const bool jitter_on = jitter_sigma_ > 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const BusWord word = words[i];
    if (word == prev_word_) {
      // Idle bus: nothing switches for ANY point — leakage plus the flop
      // clocking overhead, rows at a time.
      ++cycles_;
      simd::add_rows(bus_energy_.data(), leak_.data(), stride_);
      simd::add_const(overhead_energy_.data(), cycle_overhead_, stride_);
      continue;
    }
    const double jitter = jitter_on ? jitter_rng_.normal(0.0, jitter_sigma_) : 0.0;
    // razorlint: allow(float-eq): exact 0.0 marks "no jitter drawn this cycle".
    if (all_fast_ && jitter == 0.0)
      fast_cycle(word);
    else
      mixed_cycle(word, jitter);
    prev_word_ = word;
  }
}

void MultiPointEngine::fast_cycle(const BusWord& word) {
  // Every point is on the zero-jitter table path: the cycle is one combo
  // row per shield group, reduced with the SIMD kernels. Receiver lines
  // stay implicitly in sync (line == word on the signal wires), so no
  // per-point line update is needed.
  std::fill(dyn_.begin(), dyn_.end(), 0.0);
  std::memset(errb_.data(), 0, stride_);
  std::memset(shadowb_.data(), 0, stride_);
  const BusWord prev = prev_word_;
  for (const auto& g : layout_.groups) {
    const std::uint64_t pm = prev.extract(g.start, g.width);
    const std::uint64_t cm = word.extract(g.start, g.width);
    const std::size_t row =
        (g.table_offset + static_cast<std::size_t>((pm << g.width) | cm)) * stride_;
    simd::add_rows(dyn_.data(), combo_energy_.data() + row, stride_);
    simd::or_bytes(errb_.data(), combo_error_.data() + row, stride_);
    simd::or_bytes(shadowb_.data(), combo_shadow_.data() + row, stride_);
  }
  simd::add2_rows(bus_energy_.data(), dyn_.data(), leak_.data(), stride_);
  ++cycles_;
  for (std::size_t p = 0; p < n_points_; ++p) {
    const bool error = errb_[p] != 0;
    errors_[p] += error ? 1u : 0u;
    shadow_failures_[p] += shadowb_[p] != 0 ? 1u : 0u;
    overhead_energy_[p] += error ? cycle_error_overhead_ : cycle_overhead_;
  }
}

void MultiPointEngine::mixed_cycle(const BusWord& word, double jitter) {
  // The general cycle: jittered arrivals, a desynced receiver, a
  // combo-ineligible point, or an untabulatable layout. Points are walked
  // one at a time with the scalar engine's own per-point kernel
  // selection; the trace-dependent pattern work (class masks / per-wire
  // classes) is shared across points, computed lazily on first demand.
  const BusWord prev = prev_word_;
  const BusWord bits_mask = classifier_.bits_mask();
  if (all_fast_) {
    // Leaving the fast path: materialize the per-point receiver lines
    // (all equal to prev on the signal wires while the path was hot).
    std::fill(line_.begin(), line_.end(), prev & bits_mask);
    all_fast_ = false;
  }

  ClassMaskSet masks{};
  bool have_masks = false;
  bool have_classes = false;

  ++cycles_;
  for (std::size_t p = 0; p < n_points_; ++p) {
    const double* cd = &class_delay_[p * lut::PatternClass::kCount];
    double dynamic_energy = 0.0;
    BusWord error_mask, shadow_mask, line_update;

    if (!layout_.tabulatable) {
      // Per-wire general kernel (BusSimulator::general_kernel).
      if (!have_classes) {
        classifier_.classify_all(prev, word, classes_.data());
        have_classes = true;
      }
      const double* se = &scaled_energy_[p * lut::PatternClass::kCount];
      const BusWord flop_toggle = word ^ line_[p];
      for (const auto& g : layout_.groups) {
        double sub = 0.0;
        for (int bit = g.start; bit < g.start + g.width; ++bit) {
          const int cls = classes_[static_cast<std::size_t>(bit)];
          sub += se[cls];
          const double d = cd[cls];
          if (std::isnan(d)) continue;
          const double arrival = d + jitter;
          if (!flop_toggle.test(bit)) continue;
          const BusWord wire = BusWord(1) << bit;
          switch (classify_arrival_for(timing_, arrival)) {
            case detail::Verdict::held:
              break;
            case detail::Verdict::clean:
              line_update |= wire;
              break;
            case detail::Verdict::corrected:
              error_mask |= wire;
              line_update |= wire;
              break;
            case detail::Verdict::shadow_failed:
              shadow_mask |= wire;
              line_update |= wire;
              break;
          }
        }
        dynamic_energy += sub;
      }
      // razorlint: allow(float-eq): exact 0.0 marks "no jitter drawn".
    } else if (jitter == 0.0 && combo_ok_[p] &&
               ((line_[p] ^ prev) & bits_mask).none()) {
      // This point still qualifies for the table path
      // (BusSimulator::table_kernel), scalar over its combo rows.
      for (const auto& g : layout_.groups) {
        const std::uint64_t pm = prev.extract(g.start, g.width);
        const std::uint64_t cm = word.extract(g.start, g.width);
        const std::size_t row =
            (g.table_offset + static_cast<std::size_t>((pm << g.width) | cm)) *
            stride_;
        dynamic_energy += combo_energy_[row + p];
        error_mask |= BusWord(combo_error_[row + p]) << g.start;
        shadow_mask |= BusWord(combo_shadow_[row + p]) << g.start;
      }
      line_update = (prev ^ word) & bits_mask;
    } else {
      // Per-class kernel (BusSimulator::jitter_kernel): energy from the
      // combo rows, verdicts re-derived per present switching class.
      for (const auto& g : layout_.groups) {
        const std::uint64_t pm = prev.extract(g.start, g.width);
        const std::uint64_t cm = word.extract(g.start, g.width);
        dynamic_energy +=
            combo_energy_[(g.table_offset +
                           static_cast<std::size_t>((pm << g.width) | cm)) *
                              stride_ +
                          p];
      }
      if (!have_masks) {
        masks = classifier_.masks(prev, word);
        have_masks = true;
      }
      const BusWord flop_toggle = word ^ line_[p];
      for (int v = 0; v < 2; ++v) {  // rise, fall: the switching victims
        const BusWord vm = masks.victim[v];
        if (!vm.any()) continue;
        for (int l = 0; l < 4; ++l) {
          const BusWord vl = vm & masks.left[l];
          if (!vl.any()) continue;
          for (int r = 0; r < 4; ++r) {
            const BusWord mask = vl & masks.right[r];
            if (!mask.any()) continue;
            const int cls = (v << 4) | (l << 2) | r;
            const double arrival = cd[cls] + jitter;
            const BusWord active = mask & flop_toggle;
            if (!active.any()) continue;
            switch (classify_arrival_for(timing_, arrival)) {
              case detail::Verdict::held:
                break;
              case detail::Verdict::clean:
                line_update |= active;
                break;
              case detail::Verdict::corrected:
                error_mask |= active;
                line_update |= active;
                break;
              case detail::Verdict::shadow_failed:
                shadow_mask |= active;
                line_update |= active;
                break;
            }
          }
        }
      }
    }

    line_[p] = (line_[p] & ~line_update) | (word & line_update);
    const bool error = error_mask.any();
    errors_[p] += error ? 1u : 0u;
    shadow_failures_[p] += shadow_mask.any() ? 1u : 0u;
    bus_energy_[p] += dynamic_energy + leak_[p];
    overhead_energy_[p] += error ? cycle_error_overhead_ : cycle_overhead_;
  }

  // Rejoin the all-points fast path once every receiver line is back in
  // sync with the new prev (= word) — immediately after a transient
  // jitter cycle in which every active wire captured.
  if (all_combo_ok_) {
    bool sync = true;
    for (std::size_t p = 0; p < n_points_; ++p) {
      if (((line_[p] ^ word) & bits_mask).any()) {
        sync = false;
        break;
      }
    }
    all_fast_ = sync;
  }
}

void MultiPointEngine::run(trace::TraceSource& source, std::size_t block_cycles) {
  if (block_cycles == 0)
    throw std::invalid_argument("MultiPointEngine::run: block_cycles must be > 0");
  if (source.n_bits() > design_.n_bits)
    throw std::invalid_argument("MultiPointEngine::run: stream '" + source.name() +
                                "' is " + std::to_string(source.n_bits()) +
                                " bits wide but the bus has " +
                                std::to_string(design_.n_bits) + " wires");
  std::vector<BusWord> buffer(block_cycles);
  for (;;) {
    const std::size_t n = source.next_block(buffer.data(), buffer.size());
    if (n == 0) break;
    run(buffer.data(), n);
  }
}

RunningTotals MultiPointEngine::totals(std::size_t point) const {
  RunningTotals t;
  t.cycles = cycles_;
  t.errors = errors_[point];
  t.shadow_failures = shadow_failures_[point];
  t.bus_energy = bus_energy_[point];
  t.overhead_energy = overhead_energy_[point];
  return t;
}

std::vector<RunningTotals> MultiPointEngine::all_totals() const {
  std::vector<RunningTotals> out(n_points_);
  for (std::size_t p = 0; p < n_points_; ++p) out[p] = totals(p);
  return out;
}

std::vector<RunningTotals> multi_point_run(const interconnect::BusDesign& design,
                                           const lut::DelayEnergyTable& table,
                                           const std::vector<OperatingPoint>& points,
                                           const BusWord* words, std::size_t n,
                                           const MultiPointConfig& config) {
  MultiPointEngine engine(design, table, points, config);
  engine.run(words, n);
  return engine.all_totals();
}

std::vector<RunningTotals> multi_point_run(const interconnect::BusDesign& design,
                                           const lut::DelayEnergyTable& table,
                                           const std::vector<OperatingPoint>& points,
                                           const std::vector<BusWord>& words,
                                           const MultiPointConfig& config) {
  return multi_point_run(design, table, points, words.data(), words.size(), config);
}

}  // namespace razorbus::bus

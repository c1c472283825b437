#include "bus/simulator.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

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
detail::Verdict classify_arrival(const razor::FlopTiming& timing, double arrival) {
  using detail::Verdict;
  if (arrival <= 0.0) return Verdict::held;
  if (timing.min_path_limit > 0.0 && arrival < timing.min_path_limit)
    return Verdict::shadow_failed;
  if (arrival <= timing.main_capture_limit) return Verdict::clean;
  if (arrival <= timing.shadow_capture_limit) return Verdict::corrected;
  return Verdict::shadow_failed;
}

// Folds one capture verdict over `wires` into `out`: a wire that captured
// updates its receiver line, and a corrected or failed capture also flags
// its mask. A held wire keeps its old value.
void apply_verdict(detail::Verdict verdict, const BusWord& wires,
                   detail::CycleOutcome& out) {
  switch (verdict) {
    case detail::Verdict::held:
      return;
    case detail::Verdict::clean:
      break;
    case detail::Verdict::corrected:
      out.error_mask |= wires;
      break;
    case detail::Verdict::shadow_failed:
      out.shadow_mask |= wires;
      break;
  }
  out.line_update |= wires;
}

// Row of group `g`'s (prev, cur) combination in the combo tables (inline: the
// kernels call it once per group per cycle).
inline std::size_t combo_index(const detail::WireGroup& g, const BusWord& prev,
                               const BusWord& word) {
  const std::uint64_t pm = prev.extract(g.start, g.width);
  const std::uint64_t cm = word.extract(g.start, g.width);
  return g.table_offset + static_cast<std::size_t>((pm << g.width) | cm);
}

// Dynamic energy of one cycle from per-wire classes: one sub-sum per shield
// group, groups summed in order (the operation sequence of every kernel).
double grouped_energy(const detail::GroupLayout& layout, const double* energy,
                      const int* classes) {
  double sum = 0.0;
  for (const auto& g : layout.groups) {
    double sub = 0.0;
    for (int bit = g.start; bit < g.start + g.width; ++bit) sub += energy[classes[bit]];
    sum += sub;
  }
  return sum;
}

// One (prev, cur) combination of a `w`-wide shield group at one operating
// point: the per-bit chain in ascending bit order — the exact operation
// sequence every kernel uses for this group's energy sub-sum — plus the
// zero-jitter wire verdicts folded into error/shadow masks (bits 0..w-1).
// A switching victim toggles by definition, so at zero jitter (line ==
// prev) the wire is active and the class verdict is the wire verdict.
// `any_held` flags the arrival <= 0 case the table kernel cannot express.
detail::CycleOutcome combo_cell(int w, std::uint32_t pm, std::uint32_t cm,
                                const double* scaled_energy, const double* class_delay,
                                const detail::Verdict* class_verdict, bool& any_held) {
  using lut::NeighborActivity;
  detail::CycleOutcome cell;
  for (int b = 0; b < w; ++b) {
    const auto victim = lut::classify_victim((pm >> b) & 1u, (cm >> b) & 1u);
    const NeighborActivity left =
        b == 0 ? NeighborActivity::shield
               : lut::classify_neighbor((pm >> (b - 1)) & 1u, (cm >> (b - 1)) & 1u);
    const NeighborActivity right =
        b == w - 1 ? NeighborActivity::shield
                   : lut::classify_neighbor((pm >> (b + 1)) & 1u, (cm >> (b + 1)) & 1u);
    const int cls = lut::PatternClass::encode(victim, left, right);
    cell.dynamic_energy += scaled_energy[cls];
    const double d = class_delay[cls];
    if (std::isnan(d)) continue;
    if (d > cell.worst_delay) cell.worst_delay = d;
    if (class_verdict[cls] == detail::Verdict::held) any_held = true;
    apply_verdict(class_verdict[cls], BusWord(1) << b, cell);
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

PointTables::PointTables(const GroupLayout& layout, std::size_t n_points,
                         std::size_t row_stride)
    : stride(row_stride),
      leak(row_stride, 0.0),
      scaled_energy(n_points * lut::PatternClass::kCount, 0.0),
      class_delay(n_points * lut::PatternClass::kCount, 0.0),
      class_verdict(n_points * lut::PatternClass::kCount, Verdict::held),
      combo_ok(n_points, 1) {
  if (!layout.tabulatable) return;
  combo_energy.assign(layout.total_combos * stride, 0.0);
  combo_worst.assign(layout.total_combos * stride, 0.0);
  combo_error.assign(layout.total_combos * stride, 0);
  combo_shadow.assign(layout.total_combos * stride, 0);
}

CycleRule::CycleRule(const interconnect::BusDesign& design,
                     const lut::DelayEnergyTable& table)
    : design_(design),
      table_(table),
      leakage_(design.node),
      classifier_(design),
      timing_(make_timing(design)) {
  design_.validate();
  if (design_.repeater_size <= 0.0)
    throw std::invalid_argument("bus simulator: repeaters not sized");
  layout_ = GroupLayout::build(design_);
}

void CycleRule::build_point(PointTables& t, std::size_t p,
                            const OperatingPoint& point) const {
  if (point.supply <= 0.0)
    throw std::invalid_argument("bus simulator: non-positive supply");
  const tech::PvtCorner& env = point.environment;
  const double v_eff = env.effective_supply(point.supply);
  const lut::TableSlice slice = table_.slice(env.process, env.temp_c, v_eff);
  // The tables are characterised at the drooped driver voltage; the charge
  // is still drawn from the un-drooped supply rail.
  const double energy_scale = point.supply / v_eff;

  const double n_drivers =
      static_cast<double>(design_.n_bits) * static_cast<double>(design_.n_segments);
  const double leak_current =
      leakage_.current(design_.repeater_size, env.process, env.temp_c, v_eff);
  t.leak[p] = n_drivers * leak_current * point.supply * design_.clock_period();

  // Per-class precomputation: all wires of a class share one delay, so the
  // capture verdict (at zero jitter) and the rail-scaled energy are
  // functions of the operating point alone.
  double* se = &t.scaled_energy[p * lut::PatternClass::kCount];
  double* cd = &t.class_delay[p * lut::PatternClass::kCount];
  Verdict* cv = &t.class_verdict[p * lut::PatternClass::kCount];
  for (int cls = 0; cls < lut::PatternClass::kCount; ++cls) {
    se[cls] = slice.energy[cls] * energy_scale;
    cd[cls] = slice.delay[cls];
    cv[cls] = std::isnan(cd[cls]) ? Verdict::held : classify_arrival(timing_, cd[cls]);
  }

  // Combo rows: one block per distinct group width, written at
  // combo * stride + p.
  if (!layout_.tabulatable) return;
  bool any_held = false;
  bool built[GroupLayout::kMaxTableWidth + 1] = {};
  for (const auto& g : layout_.groups) {
    if (built[g.width]) continue;
    built[g.width] = true;
    const int w = g.width;
    const std::uint32_t combos = 1u << w;
    for (std::uint32_t pm = 0; pm < combos; ++pm) {
      for (std::uint32_t cm = 0; cm < combos; ++cm) {
        const CycleOutcome cell = combo_cell(w, pm, cm, se, cd, cv, any_held);
        const std::size_t at =
            (g.table_offset + static_cast<std::size_t>((pm << w) | cm)) * t.stride + p;
        t.combo_energy[at] = cell.dynamic_energy;
        t.combo_worst[at] = cell.worst_delay;
        t.combo_error[at] = static_cast<std::uint8_t>(cell.error_mask.extract(0, w));
        t.combo_shadow[at] = static_cast<std::uint8_t>(cell.shadow_mask.extract(0, w));
      }
    }
  }
  // A held verdict in any reachable combo means a wire would silently keep
  // its old value, which the toggle-update table kernel cannot express.
  t.combo_ok[p] = any_held ? 0 : 1;
}

template <bool kMeter>
CycleOutcome CycleRule::evaluate(const PointTables& t, std::size_t p,
                                 CyclePattern& pattern, const BusWord& line,
                                 double jitter, double* nominal) const {
  if (!layout_.tabulatable)
    return general_kernel<kMeter>(t, p, pattern, line, jitter, nominal);
  const bool in_sync = ((line ^ pattern.prev()) & classifier_.bits_mask()).none();
  // razorlint: allow(float-eq): exact 0.0 marks "no jitter drawn this cycle";
  // the combo-table path is only valid for that exact case (DESIGN.md §5).
  if (jitter == 0.0 && in_sync && t.combo_ok[p])
    return table_kernel<kMeter>(t, p, pattern.prev(), pattern.word(), nominal);
  return jitter_kernel<kMeter>(t, p, pattern, line, jitter, nominal);
}

template <bool kMeter>
CycleOutcome CycleRule::table_kernel(const PointTables& t, std::size_t p,
                                     const BusWord& prev, const BusWord& word,
                                     double* nominal) const {
  // Every toggling wire captures (cleanly or not), so the line update is
  // simply the toggle mask.
  CycleOutcome out;
  double meter = 0.0;
  for (const auto& g : layout_.groups) {
    const std::size_t at = combo_index(g, prev, word) * t.stride + p;
    out.dynamic_energy += t.combo_energy[at];
    if constexpr (kMeter) meter += t.combo_energy[at + 1];
    out.worst_delay = std::max(out.worst_delay, t.combo_worst[at]);
    out.error_mask |= BusWord(t.combo_error[at]) << g.start;
    out.shadow_mask |= BusWord(t.combo_shadow[at]) << g.start;
  }
  out.line_update = (prev ^ word) & classifier_.bits_mask();
  if constexpr (kMeter) *nominal = meter;
  return out;
}

template <bool kMeter>
CycleOutcome CycleRule::jitter_kernel(const PointTables& t, std::size_t p,
                                      CyclePattern& pattern, const BusWord& line,
                                      double jitter, double* nominal) const {
  CycleOutcome out;
  // Energy and the per-group sub-sum order are jitter-independent: reuse
  // the combo tables.
  double meter = 0.0;
  for (const auto& g : layout_.groups) {
    const std::size_t at = combo_index(g, pattern.prev(), pattern.word()) * t.stride + p;
    out.dynamic_energy += t.combo_energy[at];
    if constexpr (kMeter) meter += t.combo_energy[at + 1];
  }
  if constexpr (kMeter) *nominal = meter;

  // Verdicts shift with the common-mode jitter: re-derive them per present
  // switching class (all wires of a class share one arrival), comparing
  // arrival = delay + jitter with exactly the flop's comparison chain.
  const double* delay = &t.class_delay[p * lut::PatternClass::kCount];
  const ClassMaskSet& s = pattern.masks();
  const BusWord flop_toggle = pattern.word() ^ line;
  for (int v = 0; v < 2; ++v) {  // rise, fall: the switching victims
    const BusWord vm = s.victim[v];
    if (!vm.any()) continue;
    for (int l = 0; l < 4; ++l) {
      const BusWord vl = vm & s.left[l];
      if (!vl.any()) continue;
      for (int r = 0; r < 4; ++r) {
        const BusWord mask = vl & s.right[r];
        if (!mask.any()) continue;
        const double arrival = delay[(v << 4) | (l << 2) | r] + jitter;
        if (arrival > out.worst_delay) out.worst_delay = arrival;
        const BusWord active = mask & flop_toggle;
        if (active.any()) apply_verdict(classify_arrival(timing_, arrival), active, out);
      }
    }
  }
  return out;
}

template <bool kMeter>
CycleOutcome CycleRule::general_kernel(const PointTables& t, std::size_t p,
                                       CyclePattern& pattern, const BusWord& line,
                                       double jitter, double* nominal) const {
  // Classify every wire, keep the group-wise energy accounting, and apply
  // the class verdict per wire.
  CycleOutcome out;
  const int* classes = pattern.classes();
  const double* energy = &t.scaled_energy[p * lut::PatternClass::kCount];
  const double* delay = &t.class_delay[p * lut::PatternClass::kCount];
  const BusWord flop_toggle = pattern.word() ^ line;
  for (const auto& g : layout_.groups) {
    double sub = 0.0;
    for (int bit = g.start; bit < g.start + g.width; ++bit) {
      const int cls = classes[bit];
      sub += energy[cls];
      const double d = delay[cls];
      if (std::isnan(d)) continue;
      const double arrival = d + jitter;
      if (arrival > out.worst_delay) out.worst_delay = arrival;
      if (flop_toggle.test(bit))
        apply_verdict(classify_arrival(timing_, arrival), BusWord(1) << bit, out);
    }
    out.dynamic_energy += sub;
  }
  if constexpr (kMeter) {
    const double* row = &t.scaled_energy[(p + 1) * lut::PatternClass::kCount];
    *nominal = grouped_energy(layout_, row, classes);
  }
  return out;
}

}  // namespace detail

BusSimulator::BusSimulator(const interconnect::BusDesign& design,
                           const lut::DelayEnergyTable& table,
                           tech::PvtCorner environment,
                           razor::RecoveryCostModel recovery)
    : rule_(design, table),
      environment_(environment),
      bank_(design.n_bits, rule_.timing()),
      tables_(rule_.layout(), 1, 1),
      cycle_overhead_(recovery.cycle_overhead(design.n_bits)),
      error_overhead_(recovery.error_overhead(design.n_bits)),
      arrivals_(static_cast<std::size_t>(design.n_bits), -1.0),
      classes_(static_cast<std::size_t>(design.n_bits), 0) {
  set_supply(design.node.vdd_nominal);
}

void BusSimulator::set_supply(double volts) {
  if (volts <= 0.0) throw std::invalid_argument("BusSimulator: non-positive supply");
  // Tolerant compare (kSupplyToleranceVolts, shared with the regulator):
  // the regulator accumulates 20 mV steps in floating point, so "the same
  // voltage" can arrive a few ULPs away from the value we cached, and an
  // exact != would force an operating-point refresh on every closed-loop
  // segment. The tolerance keeps the supply already priced: a move within
  // 1 nV of it is ignored, so the tables stay those of the old value, not
  // of `volts` (a few ULPs can still change an interpolated entry, which a
  // MultiPointEngine built at the exact value would then price). Static
  // sweeps cannot hit it: the constructor starts every simulator at
  // vdd_nominal, and every sweep supply is either exactly vdd_nominal or
  // 20 mV or more below it.
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
  if (meter_) refresh_nominal_row();
}

void BusSimulator::refresh_operating_point() {
  rule_.build_point(tables_, 0, OperatingPoint{supply_, environment_});
}

void BusSimulator::refresh_nominal_row() {
  rule_.build_point(tables_, 1, OperatingPoint{design().node.vdd_nominal, environment_});
}

void BusSimulator::start_nominal_meter() {
  meter_ = true;
  meter_energy_ = 0.0;
  meter_prev_ = BusWord();
  // Stride 2 only once a meter runs: an unmetered simulator keeps the
  // denser stride-1 rows, on which its kernels run faster.
  if (tables_.stride == 1) {
    tables_ = detail::PointTables(rule_.layout(), 2, 2);
    refresh_operating_point();
  }
  refresh_nominal_row();
}

// The meter's cycle priced on its own, against its own previous word: every
// reference-engine cycle, and the bit-parallel engine's first cycle after the
// meter starts, when that zero word differs from the bus's.
double BusSimulator::nominal_cycle_energy(const BusWord& word) {
  const double leak = tables_.leak[1];
  if (word == meter_prev_) return leak;
  rule_.classifier().classify_all(meter_prev_, word, classes_.data());
  const double* row = &tables_.scaled_energy[lut::PatternClass::kCount];
  return grouped_energy(rule_.layout(), row, classes_.data()) + leak;
}

std::string to_string(EngineMode mode) {
  switch (mode) {
    case EngineMode::bit_parallel:
      return "bit_parallel";
    case EngineMode::reference:
      return "reference";
  }
  return "bit_parallel";
}

EngineMode engine_mode_from_string(const std::string& name) {
  if (name == "bit_parallel" || name == "simd") return EngineMode::bit_parallel;
  if (name == "reference") return EngineMode::reference;
  throw std::invalid_argument("unknown engine mode '" + name +
                              "' (expected bit_parallel or reference)");
}

void BusSimulator::set_engine_mode(EngineMode mode) {
  if (mode == mode_) return;
  mode_ = mode;
  // The engines share receiver state through line_word_: the reference
  // engine re-seeds its flop bank from it, the bit-parallel engine reads
  // it directly. Counters and totals carry over untouched.
  if (mode_ == EngineMode::reference)
    bank_ = razor::FlopBank(design().n_bits, rule_.timing(), line_word_);
}

void BusSimulator::set_timing_jitter(double sigma_seconds, std::uint64_t seed) {
  if (sigma_seconds < 0.0) throw std::invalid_argument("negative jitter sigma");
  jitter_sigma_ = sigma_seconds;
  jitter_rng_ = Rng(seed);
}

double BusSimulator::draw_jitter() {
  return jitter_sigma_ > 0.0 ? jitter_rng_.normal(0.0, jitter_sigma_) : 0.0;
}

void BusSimulator::account_idle(CycleResult& out, bool meter) {
  // Idle bus: nothing switches, no flop can err, no dynamic energy.
  out.bus_energy = tables_.leak[0];
  out.overhead_energy = cycle_overhead_;
  ++totals_.cycles;
  totals_.bus_energy += out.bus_energy;
  totals_.overhead_energy += out.overhead_energy;
  if (meter) meter_energy_ += tables_.leak[1];
}

CycleResult BusSimulator::step(const BusWord& word) {
  // The reference engine always prices the meter's cycle on its own. The
  // bit-parallel engine's meter rides its cycle when the meter's previous
  // word is the bus's; otherwise (its first cycle) it is priced on its own.
  const bool ride =
      meter_ && mode_ != EngineMode::reference && meter_prev_ == prev_word_;
  if (meter_ && !ride) meter_energy_ += nominal_cycle_energy(word);
  meter_prev_ = word;
  return mode_ == EngineMode::reference ? step_reference(word)
                                        : step_bit_parallel(word, ride);
}

// --------------------------------------------------------------- reference

CycleResult BusSimulator::step_reference(const BusWord& word) {
  CycleResult out;

  if (word == prev_word_) {
    bank_.tick_hold();
    account_idle(out, false);
    return out;
  }

  const WireClassifier& classifier = rule_.classifier();
  classifier.classify_all(prev_word_, word, classes_.data());
  const double jitter = draw_jitter();

  double worst = 0.0;
  for (int bit = 0; bit < classifier.n_bits(); ++bit) {
    const double d = tables_.class_delay[classes_[static_cast<std::size_t>(bit)]];
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
  const double dynamic_energy =
      grouped_energy(rule_.layout(), tables_.scaled_energy.data(), classes_.data());

  const razor::BankCycleResult bank = bank_.clock(word, arrivals_);
  line_word_ = bank.captured;
  out.error = bank.error;
  out.shadow_failure = bank.shadow_failure;
  out.worst_delay = worst;
  out.bus_energy = dynamic_energy + tables_.leak[0];
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

CycleResult BusSimulator::step_bit_parallel(const BusWord& word, bool meter) {
  CycleResult out;

  if (word == prev_word_) {
    account_idle(out, meter);
    return out;
  }

  const double jitter = draw_jitter();
  detail::CyclePattern pattern(rule_.classifier(), prev_word_, word, classes_.data());
  double nominal = 0.0;
  const detail::CycleOutcome k =
      meter ? rule_.evaluate<true>(tables_, 0, pattern, line_word_, jitter, &nominal)
            : rule_.evaluate(tables_, 0, pattern, line_word_, jitter);
  if (meter) meter_energy_ += nominal + tables_.leak[1];

  line_word_ = (line_word_ & ~k.line_update) | (word & k.line_update);
  out.error = k.error_mask.any();
  out.shadow_failure = k.shadow_mask.any();
  out.worst_delay = k.worst_delay;
  out.bus_energy = k.dynamic_energy + tables_.leak[0];
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

template <bool kMeter>
void BusSimulator::run_bit_parallel(const BusWord* words, std::size_t n) {
  // Totals accumulate in registers across the whole span; the per-cycle
  // operation sequence (one `+= dynamic + leakage` per cycle, etc.) is
  // kept identical to step(), so batching never changes a single bit.
  // kMeter: the meter is on and in step with the bus, and rides along.
  std::uint64_t cycles = totals_.cycles;
  std::uint64_t errors = totals_.errors;
  std::uint64_t shadow_failures = totals_.shadow_failures;
  double bus_energy = totals_.bus_energy;
  double overhead_energy = totals_.overhead_energy;
  double meter_energy = meter_energy_;
  BusWord prev = prev_word_;
  BusWord line = line_word_;

  const double leak = tables_.leak[0];
  const double meter_leak = kMeter ? tables_.leak[1] : 0.0;
  const double cycle_ovh = cycle_overhead_;
  const double error_ovh = error_overhead_;

  for (std::size_t i = 0; i < n; ++i) {
    const BusWord word = words[i];
    if (word == prev) {
      ++cycles;
      bus_energy += leak;
      overhead_energy += cycle_ovh;
      if constexpr (kMeter) meter_energy += meter_leak;
      continue;
    }
    const double jitter = draw_jitter();
    detail::CyclePattern pattern(rule_.classifier(), prev, word, classes_.data());
    double nominal = 0.0;
    const detail::CycleOutcome k =
        rule_.evaluate<kMeter>(tables_, 0, pattern, line, jitter, &nominal);
    if constexpr (kMeter) meter_energy += nominal + meter_leak;

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
  if constexpr (kMeter) {
    meter_energy_ = meter_energy;
    meter_prev_ = prev;
  }
}

// ------------------------------------------------------------------ shared

RunningTotals BusSimulator::run(const BusWord* words, std::size_t n) {
  const RunningTotals before = totals_;
  if (mode_ == EngineMode::reference) {
    for (std::size_t i = 0; i < n; ++i) step(words[i]);
  } else if (meter_) {
    // The meter's first cycle compares against its own zero word: step it
    // alone, then the meter rides the batched kernel.
    if (n > 0 && meter_prev_ != prev_word_) {
      step(*words++);
      --n;
    }
    run_bit_parallel<true>(words, n);
  } else {
    run_bit_parallel<false>(words, n);
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
  line_word_ = initial_word & rule_.classifier().bits_mask();
  totals_ = RunningTotals{};
  bank_ = razor::FlopBank(design().n_bits, rule_.timing(), initial_word);
  meter_energy_ = 0.0;
  meter_prev_ = BusWord();
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

// ------------------------------------------------------------- multi-point

MultiPointEngine::MultiPointEngine(const interconnect::BusDesign& design,
                                   const lut::DelayEnergyTable& table,
                                   const std::vector<OperatingPoint>& points,
                                   double timing_jitter_sigma)
    : rule_(design, table),
      n_points_(points.size()),
      tables_(rule_.layout(), n_points_,
              (n_points_ + simd::kChunk - 1) / simd::kChunk * simd::kChunk),
      jitter_sigma_(timing_jitter_sigma),
      offsets_(rule_.layout().groups.size(), 0),
      classes_(static_cast<std::size_t>(design.n_bits), 0) {
  if (points.empty())
    throw std::invalid_argument("MultiPointEngine: empty operating-point list");
  if (jitter_sigma_ < 0.0) throw std::invalid_argument("negative jitter sigma");

  all_combo_ok_ = rule_.layout().tabulatable;
  for (std::size_t p = 0; p < n_points_; ++p) {
    rule_.build_point(tables_, p, points[p]);
    if (!tables_.combo_ok[p]) all_combo_ok_ = false;
  }

  const std::size_t stride = tables_.stride;
  line_.assign(n_points_, BusWord());
  errors_.assign(stride, 0);
  shadow_failures_.assign(stride, 0);
  bus_energy_.assign(stride, 0.0);
  overhead_energy_.assign(stride, 0.0);

  rows_.stride = stride;
  rows_.bus_energy = bus_energy_.data();
  rows_.overhead_energy = overhead_energy_.data();
  rows_.errors = errors_.data();
  rows_.shadow_failures = shadow_failures_.data();
  rows_.leak = tables_.leak.data();
  rows_.combo_energy = tables_.combo_energy.data();
  rows_.combo_error = tables_.combo_error.data();
  rows_.combo_shadow = tables_.combo_shadow.data();
  const razor::RecoveryCostModel recovery;
  rows_.cycle_overhead = recovery.cycle_overhead(design.n_bits);
  rows_.cycle_error_overhead =
      rows_.cycle_overhead + recovery.error_overhead(design.n_bits);
  reset();
}

void MultiPointEngine::reset(const BusWord& initial_word) {
  prev_word_ = initial_word;
  std::fill(line_.begin(), line_.end(), initial_word & rule_.classifier().bits_mask());
  all_fast_ = all_combo_ok_;
  cycles_ = 0;
  std::fill(errors_.begin(), errors_.end(), 0);
  std::fill(shadow_failures_.begin(), shadow_failures_.end(), 0);
  std::fill(bus_energy_.begin(), bus_energy_.end(), 0.0);
  std::fill(overhead_energy_.begin(), overhead_energy_.end(), 0.0);
}

void MultiPointEngine::run(const BusWord* words, std::size_t n) {
  const bool jitter_on = jitter_sigma_ > 0.0;
  std::size_t i = 0;
  while (i < n) {
    const BusWord word = words[i];
    if (word == prev_word_) {
      // Idle bus: nothing switches for ANY point. The whole run of equal
      // words is one kernel call: leakage plus the flop clocking overhead,
      // once per cycle. A run split across calls is the same sequence.
      std::size_t k = 1;
      while (i + k < n && words[i + k] == word) ++k;
      cycles_ += k;
      simd::idle_cycles(rows_, k);
      i += k;
      continue;
    }
    const double jitter = jitter_on ? jitter_rng_.normal(0.0, jitter_sigma_) : 0.0;
    // razorlint: allow(float-eq): exact 0.0 marks "no jitter drawn this cycle".
    if (all_fast_ && jitter == 0.0)
      fast_cycle(word);
    else
      mixed_cycle(word, jitter);
    prev_word_ = word;
    ++i;
  }
}

void MultiPointEngine::fast_cycle(const BusWord& word) {
  // Every point is on the zero-jitter table path: the cycle is one combo
  // row per shield group, reduced and accumulated by one fused kernel call.
  // Receiver lines stay implicitly in sync (line == word on the signal
  // wires), so no per-point line update is needed.
  const std::size_t stride = tables_.stride;
  const auto& groups = rule_.layout().groups;
  for (std::size_t g = 0; g < groups.size(); ++g)
    offsets_[g] = combo_index(groups[g], prev_word_, word) * stride;
  simd::table_cycle(rows_, offsets_.data(), groups.size());
  ++cycles_;
}

void MultiPointEngine::mixed_cycle(const BusWord& word, double jitter) {
  // The general cycle: jittered arrivals, a desynced receiver, a
  // combo-ineligible point, or an untabulatable layout. Points are walked
  // one at a time through the cycle rule; the trace-dependent pattern work
  // (class masks / per-wire classes) is shared across points, computed
  // lazily on first demand.
  const BusWord prev = prev_word_;
  const BusWord bits_mask = rule_.classifier().bits_mask();
  if (all_fast_) {
    // Leaving the fast path: materialize the per-point receiver lines
    // (all equal to prev on the signal wires while the path was hot).
    std::fill(line_.begin(), line_.end(), prev & bits_mask);
    all_fast_ = false;
  }

  detail::CyclePattern pattern(rule_.classifier(), prev, word, classes_.data());
  ++cycles_;
  for (std::size_t p = 0; p < n_points_; ++p) {
    const detail::CycleOutcome k = rule_.evaluate(tables_, p, pattern, line_[p], jitter);
    line_[p] = (line_[p] & ~k.line_update) | (word & k.line_update);
    const bool error = k.error_mask.any();
    errors_[p] += error ? 1u : 0u;
    shadow_failures_[p] += k.shadow_mask.any() ? 1u : 0u;
    bus_energy_[p] += k.dynamic_energy + tables_.leak[p];
    overhead_energy_[p] += error ? rows_.cycle_error_overhead : rows_.cycle_overhead;
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

RunningTotals MultiPointEngine::totals(std::size_t point) const {
  RunningTotals t;
  t.cycles = cycles_;
  t.errors = errors_[point];
  t.shadow_failures = shadow_failures_[point];
  t.bus_energy = bus_energy_[point];
  t.overhead_energy = overhead_energy_[point];
  return t;
}

}  // namespace razorbus::bus

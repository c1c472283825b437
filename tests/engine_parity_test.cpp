// Engine parity: the bit-parallel batched engine must reproduce the
// per-wire reference engine cycle for cycle — errors, shadow failures and
// energies bit-identical — at every operating point (see DESIGN.md §5).
//
// The suite sweeps all three process corners, both characterised
// temperatures and a supply ladder from error-free down to shadow-failure
// territory, over traces exercising every structural case: idle runs,
// all-toggle checkerboards, shield-adjacent patterns and random traffic,
// with and without common-mode timing jitter.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "bus/simulator.hpp"
#include "core/closed_loop.hpp"
#include "core/experiments.hpp"
#include "core/system.hpp"
#include "drift/schedule.hpp"
#include "dvs/proportional.hpp"
#include "dvs/regulator.hpp"
#include "interconnect/bus_design.hpp"
#include "lut/pattern.hpp"
#include "test_support.hpp"
#include "trace/source.hpp"
#include "trace/synthetic.hpp"
#include "util/bits.hpp"
#include "util/rng.hpp"

namespace razorbus::bus {
namespace {

// Full corner/temperature axes with a supply grid reaching low enough that
// the slow corner produces corrected AND shadow-failed captures. Narrower
// than the paper grid to keep first-run characterization cheap (cached on
// disk afterwards, like every other suite).
const core::DvsBusSystem& parity_system() {
  static const core::DvsBusSystem system = [] {
    core::SystemOptions options;
    options.lut_config.vmin = 0.78;
    options.lut_config.vmax = 1.20;
    options.lut_config.vstep = 0.020;
    options.lut_config.temps = {25.0, 100.0};
    options.lut_config.corners = {tech::ProcessCorner::slow, tech::ProcessCorner::typical,
                                  tech::ProcessCorner::fast};
    return core::DvsBusSystem(test_support::sized_paper_bus(), options);
  }();
  return system;
}

std::vector<BusWord> pattern_trace(const std::string& kind, std::size_t cycles,
                                   std::uint64_t seed) {
  std::vector<BusWord> words;
  words.reserve(cycles);
  Rng rng(seed);
  if (kind == "random") {
    for (std::size_t i = 0; i < cycles; ++i)
      words.push_back(rng.bernoulli(0.45) ? static_cast<std::uint32_t>(rng.next_u64())
                                          : 0u);
  } else if (kind == "idle_runs") {
    std::uint32_t word = 0;
    for (std::size_t i = 0; i < cycles; ++i) {
      if (i % 17 == 0) word = static_cast<std::uint32_t>(rng.next_u64());
      words.push_back(word);  // long holds between bursts
    }
  } else if (kind == "all_toggle") {
    for (std::size_t i = 0; i < cycles; ++i)
      words.push_back(i % 2 ? 0x55555555u : 0xAAAAAAAAu);
  } else if (kind == "shielded") {
    // Only shield-adjacent wires move (bits 0, 3, 4, 7, ... of each group):
    // exercises the shield-mask edges of the bit-parallel classifier.
    for (std::size_t i = 0; i < cycles; ++i)
      words.push_back((i % 3) ? (i % 2 ? 0x99999999u : 0x11111111u) : 0u);
  } else {
    ADD_FAILURE() << "unknown trace kind " << kind;
  }
  return words;
}

void expect_totals_identical(const RunningTotals& a, const RunningTotals& b,
                             const std::string& what) {
  EXPECT_EQ(a.cycles, b.cycles) << what;
  EXPECT_EQ(a.errors, b.errors) << what;
  EXPECT_EQ(a.shadow_failures, b.shadow_failures) << what;
  // Exact double equality is intentional: bit-identical is the contract.
  EXPECT_EQ(a.bus_energy, b.bus_energy) << what;
  EXPECT_EQ(a.overhead_energy, b.overhead_energy) << what;
}

// Bit pattern of a double: exact-equality checks that also tell -0.0 from
// 0.0 and print both sides as integers on failure.
std::uint64_t bits_of(double x) { return razorbus::bit_cast<std::uint64_t>(x); }

struct ParityCounts {
  std::uint64_t errors = 0;
  std::uint64_t shadow_failures = 0;
  // Non-idle cycles on which every arrival was <= 0: the receivers held
  // their old values, so line and bus diverge (the desynced-receiver case).
  std::uint64_t held_cycles = 0;
};

// Step both engines cycle-for-cycle and compare every per-cycle output,
// plus drive a third simulator through the batched entry point in
// irregular chunks. `seen` (optional) accumulates what the run produced so
// sweeps can assert they actually exercised error/shadow territory.
void check_parity(const tech::PvtCorner& env, double supply, double jitter_sigma,
                  const std::vector<BusWord>& words, const std::string& what,
                  ParityCounts* seen = nullptr) {
  BusSimulator fast = parity_system().make_simulator(env);
  BusSimulator ref = parity_system().make_simulator(env);
  BusSimulator batched = parity_system().make_simulator(env);
  ref.set_engine_mode(EngineMode::reference);
  EXPECT_EQ(fast.engine_mode(), EngineMode::bit_parallel);
  for (BusSimulator* sim : {&fast, &ref, &batched}) {
    sim->set_supply(supply);
    if (jitter_sigma > 0.0) sim->set_timing_jitter(jitter_sigma, 0xfeedu);
  }

  for (std::size_t i = 0; i < words.size(); ++i) {
    const CycleResult f = fast.step(words[i]);
    const CycleResult r = ref.step(words[i]);
    ASSERT_EQ(f.error, r.error) << what << " cycle " << i;
    ASSERT_EQ(f.shadow_failure, r.shadow_failure) << what << " cycle " << i;
    ASSERT_EQ(f.bus_energy, r.bus_energy) << what << " cycle " << i;
    ASSERT_EQ(f.overhead_energy, r.overhead_energy) << what << " cycle " << i;
    ASSERT_EQ(f.worst_delay, r.worst_delay) << what << " cycle " << i;
    const bool idle = words[i] == (i > 0 ? words[i - 1] : BusWord());
    if (seen && !idle && r.worst_delay <= 0.0) ++seen->held_cycles;
  }
  expect_totals_identical(fast.totals(), ref.totals(), what + " [step totals]");

  // Batched spans of irregular length must not change a single bit either.
  Rng chunk_rng(7);
  std::size_t i = 0;
  while (i < words.size()) {
    const std::size_t n =
        std::min<std::size_t>(words.size() - i, 1 + chunk_rng.next_below(97));
    batched.run(words.data() + i, n);
    i += n;
  }
  expect_totals_identical(batched.totals(), ref.totals(), what + " [batched totals]");

  if (seen) {
    seen->errors += ref.totals().errors;
    seen->shadow_failures += ref.totals().shadow_failures;
  }
}

TEST(EngineParity, AcrossCornersTemperaturesAndSupplies) {
  const std::vector<BusWord> random_words = pattern_trace("random", 1200, 11);
  ParityCounts seen;
  for (const auto process : {tech::ProcessCorner::slow, tech::ProcessCorner::typical,
                             tech::ProcessCorner::fast}) {
    for (const double temp : {25.0, 100.0}) {
      const tech::PvtCorner env{process, temp, 0.0};
      for (const double supply : {0.79, 0.92, 1.00, 1.08, 1.20})
        check_parity(env, supply, 0.0, random_words,
                     env.name() + " @" + std::to_string(supply) + "V", &seen);
    }
  }
  // The sweep must reach both corrected and silently-corrupted captures,
  // otherwise it is not exercising the verdict machinery.
  EXPECT_GT(seen.errors, 0u);
  EXPECT_GT(seen.shadow_failures, 0u);
}

TEST(EngineParity, TracePatternsAtMarginalSupply) {
  const tech::PvtCorner env{tech::ProcessCorner::slow, 100.0, 0.0};
  for (const char* kind : {"random", "idle_runs", "all_toggle", "shielded"}) {
    const auto words = pattern_trace(kind, 1500, 23);
    for (const double supply : {0.94, 1.04, 1.14})
      check_parity(env, supply, 0.0, words,
                   std::string(kind) + " @" + std::to_string(supply) + "V");
  }
}

TEST(EngineParity, WithCommonModeJitter) {
  // Jitter draws one normal per non-idle cycle from the same seeded RNG in
  // both engines; verdicts must still match bit for bit because both
  // compare arrival = delay + jitter against the same limits. A sigma
  // comparable to the class delays drives arrivals to <= 0: held captures
  // and receivers out of sync with the bus.
  const std::vector<BusWord> words = pattern_trace("random", 2000, 31);
  ParityCounts seen;
  for (const auto process : {tech::ProcessCorner::slow, tech::ProcessCorner::typical}) {
    const tech::PvtCorner env{process, 100.0, 0.0};
    for (const double supply : {0.98, 1.06})
      for (const double sigma : {2e-12, 8e-12, 300e-12})
        check_parity(env, supply, sigma, words,
                     env.name() + " jitter " + std::to_string(sigma * 1e12) + " ps",
                     &seen);
  }
  EXPECT_GT(seen.held_cycles, 0u);
}

TEST(EngineParity, IrDroppedEnvironment) {
  const tech::PvtCorner env{tech::ProcessCorner::typical, 100.0, 0.10};
  check_parity(env, 1.10, 0.0, pattern_trace("random", 1000, 5), "typical + IR drop");
  check_parity(env, 1.10, 4e-12, pattern_trace("all_toggle", 1000, 5),
               "typical + IR drop + jitter");
}

TEST(EngineParity, ModeSwitchMidRunKeepsReceiverState) {
  const tech::PvtCorner env{tech::ProcessCorner::slow, 100.0, 0.0};
  const auto words = pattern_trace("random", 600, 77);

  BusSimulator mixed = parity_system().make_simulator(env);
  BusSimulator ref = parity_system().make_simulator(env);
  ref.set_engine_mode(EngineMode::reference);
  mixed.set_supply(1.00);
  ref.set_supply(1.00);

  for (std::size_t i = 0; i < words.size(); ++i) {
    if (i % 150 == 0)
      mixed.set_engine_mode(i % 300 == 0 ? EngineMode::bit_parallel
                                         : EngineMode::reference);
    const CycleResult m = mixed.step(words[i]);
    const CycleResult r = ref.step(words[i]);
    ASSERT_EQ(m.error, r.error) << "cycle " << i;
    ASSERT_EQ(m.shadow_failure, r.shadow_failure) << "cycle " << i;
    ASSERT_EQ(m.bus_energy, r.bus_energy) << "cycle " << i;
  }
  expect_totals_identical(mixed.totals(), ref.totals(), "mode switching");
}

TEST(EngineParity, BatchedRunReturnsSegmentDelta) {
  const tech::PvtCorner env{tech::ProcessCorner::typical, 100.0, 0.0};
  const auto words = pattern_trace("random", 500, 3);
  BusSimulator sim = parity_system().make_simulator(env);
  sim.set_supply(1.02);

  const RunningTotals first = sim.run(words.data(), 200);
  EXPECT_EQ(first.cycles, 200u);
  const RunningTotals rest = sim.run(words.data() + 200, 300);
  EXPECT_EQ(rest.cycles, 300u);
  EXPECT_EQ(sim.totals().cycles, 500u);
  EXPECT_EQ(sim.totals().errors, first.errors + rest.errors);
  EXPECT_DOUBLE_EQ(sim.totals().bus_energy, first.bus_energy + rest.bus_energy);
}

// One metered simulator driven in irregular chunks leaves the zero-jitter
// table path for 300 ps jitter phases and comes back, several times. Each
// jitter phase ends right after a held cycle, and the next word returns
// the bus to the word before it: every zero-jitter phase opens with
// receivers out of sync, and its first cycle switches wires whose
// receivers already hold the new value, so they must not count an error.
// The simulator must take the rule until the receivers resync, and only
// then the table loop. Totals and the nominal meter must match a stepped
// reference engine and run_reference bit for bit.
TEST(EngineParity, BatchedRunLeavesAndRejoinsTablePath) {
  const auto& system = parity_system();
  const tech::PvtCorner env{tech::ProcessCorner::slow, 100.0, 0.0};
  trace::SyntheticConfig cfg;
  cfg.cycles = 6000;
  cfg.load_rate = 0.6;
  cfg.seed = 91;
  std::vector<BusWord> words = trace::generate_synthetic(cfg, "rejoin").words;
  constexpr double kSupply = 0.90;
  constexpr double kSigma = 300e-12;
  constexpr std::uint64_t kSeed = 0x1e55u;
  constexpr std::size_t kTableSpan = 300;

  // Phase ends: zero jitter up to ends[0], jitter up to ends[1], zero
  // jitter up to ends[2], ... and zero jitter to the end of the trace.
  std::vector<std::size_t> ends;
  {
    BusSimulator probe = system.make_simulator(env);
    probe.set_supply(kSupply);
    std::size_t i = 0;
    while (i + kTableSpan < words.size() - kTableSpan) {
      probe.set_timing_jitter(0.0);
      probe.run(words.data() + i, kTableSpan);
      i += kTableSpan;
      ends.push_back(i);
      probe.set_timing_jitter(kSigma, kSeed);
      for (bool held = false; !held && i < words.size(); ++i) {
        const CycleResult r = probe.step(words[i]);
        held = words[i] != words[i - 1] && r.worst_delay <= 0.0;
      }
      ends.push_back(i);
      if (i < words.size()) words[i] = words[i - 2];
    }
  }
  ASSERT_GE(ends.size(), 6u);

  BusSimulator batched = system.make_simulator(env);
  BusSimulator ref = system.make_simulator(env);
  ref.set_engine_mode(EngineMode::reference);
  for (BusSimulator* sim : {&batched, &ref}) {
    sim->set_supply(kSupply);
    sim->start_nominal_meter();
  }
  Rng chunk_rng(13);
  std::size_t from = 0;
  for (std::size_t phase = 0; phase <= ends.size(); ++phase) {
    const std::size_t to = phase < ends.size() ? ends[phase] : words.size();
    for (BusSimulator* sim : {&batched, &ref}) {
      if (phase % 2)
        sim->set_timing_jitter(kSigma, kSeed);
      else
        sim->set_timing_jitter(0.0);
    }
    for (std::size_t i = from; i < to; ++i) ref.step(words[i]);
    while (from < to) {
      const std::size_t n = std::min<std::size_t>(to - from, 1 + chunk_rng.next_below(97));
      batched.run(words.data() + from, n);
      from += n;
    }
  }

  expect_totals_identical(batched.totals(), ref.totals(), "leave and rejoin");
  EXPECT_GT(ref.totals().errors, 0u);
  const RunningTotals nominal =
      BusSimulator::run_reference(system.design(), system.table(), env, words);
  EXPECT_EQ(bits_of(batched.nominal_bus_energy()), bits_of(ref.nominal_bus_energy()));
  EXPECT_EQ(bits_of(batched.nominal_bus_energy()), bits_of(nominal.bus_energy));
}

TEST(EngineParity, ResetSeedsReceiversWithInitialWord) {
  // reset(w) must leave both engines agreeing that the bus already holds w
  // (historically the flop bank was re-seeded with zeros instead).
  const tech::PvtCorner env{tech::ProcessCorner::typical, 100.0, 0.0};
  for (const auto mode : {EngineMode::bit_parallel, EngineMode::reference}) {
    BusSimulator sim = parity_system().make_simulator(env);
    sim.set_engine_mode(mode);
    sim.set_supply(1.20);
    sim.reset(0xFFFFFFFFu);
    const CycleResult idle = sim.step(0xFFFFFFFFu);
    EXPECT_FALSE(idle.error);
    EXPECT_DOUBLE_EQ(idle.worst_delay, 0.0);
  }
}

// A bus with no internal shields has one 12-wire group — too wide for the
// combo tables — so the bit-parallel engine must take its per-wire
// fallback kernel. Characterised at the slow corner and 100 C only.
const core::DvsBusSystem& wide_group_system() {
  static const core::DvsBusSystem system = [] {
    interconnect::BusDesign design = test_support::sized_paper_bus();
    design.n_bits = 12;
    design.shield_group = 12;
    core::SystemOptions options;
    options.lut_config.vmin = 1.00;
    options.lut_config.vmax = 1.20;
    options.lut_config.temps = {100.0};
    options.lut_config.corners = {tech::ProcessCorner::slow};
    return core::DvsBusSystem(design, options);
  }();
  return system;
}

// One closed-loop configuration checked against the per-cycle driver.
struct LoopCase {
  std::string name;
  const core::DvsBusSystem* system = nullptr;
  tech::PvtCorner env{};
  EngineMode engine = EngineMode::bit_parallel;
  double jitter_sigma = 0.0;
  drift::Schedule drift{};
  // Start at the DVS floor instead of nominal: under 300 ps of jitter the
  // error rate never falls into the band, so only a run that starts low
  // moves the supply (upwards).
  bool start_at_floor = false;
};

// The window-batched closed loop must make exactly the decisions the
// historical per-cycle driver made, under either window-count controller:
// replicate that driver here (step + one observe_cycle/advance per cycle,
// threshold steps or proportional deltas, the drift corner re-derived at
// every window boundary) against the reference engine, with a separate
// nominal-supply BusSimulator fed every word alongside. Static-corner cases
// go through the public run_closed_loop_streamed entry point; drift cases
// assert ClosedLoop::env_updates(), so they drive core::ClosedLoop
// directly. The stream block is coprime to the window and the regulator
// delay, so chunks straddle window ends and supply landings. Returns the
// number of supply changes the per-cycle driver made.
std::uint64_t check_closed_loop(const LoopCase& c, dvs::ControllerKind kind,
                                const trace::Trace& trace) {
  const core::DvsBusSystem& system = *c.system;
  const tech::PvtCorner& env = c.env;
  const double vnom = system.design().node.vdd_nominal;
  const std::uint64_t window = 4000;
  const std::uint64_t delay = 1500;  // lands mid-window on purpose
  const bool threshold = kind == dvs::ControllerKind::threshold;

  core::LoopConfig loop_cfg;
  loop_cfg.controller.window_cycles = window;
  loop_cfg.regulator_delay_cycles = delay;
  loop_cfg.record_series = threshold;
  loop_cfg.engine = c.engine;
  loop_cfg.timing_jitter_sigma = c.jitter_sigma;
  loop_cfg.drift = c.drift;
  const double floor = system.dvs_floor(env.process);
  loop_cfg.start_supply = c.start_at_floor ? floor : vnom;
  dvs::ProportionalConfig prop_cfg;
  prop_cfg.window_cycles = window;
  if (!threshold) loop_cfg.proportional = prop_cfg;
  const auto source = trace::make_trace_view_source(trace);
  core::StreamConfig stream;
  stream.block_cycles = 2999;
  core::DvsRunReport batched;
  if (c.drift.enabled()) {
    core::ClosedLoop loop({{&system}}, env, loop_cfg);
    batched = loop.run({source.get()}, stream).front();
    batched.series = loop.take_series();
    EXPECT_GT(loop.env_updates(), 0u);
  } else {
    batched = core::run_closed_loop_streamed(system, env, *source, loop_cfg, stream);
  }
  const std::vector<core::WindowSample>& batched_series = batched.series;

  BusSimulator sim = system.make_simulator(env);
  sim.set_engine_mode(EngineMode::reference);
  if (c.jitter_sigma > 0.0) sim.set_timing_jitter(c.jitter_sigma);
  BusSimulator nominal(system.design(), system.table(), env);
  nominal.set_supply(vnom);
  dvs::VoltageRegulator regulator(loop_cfg.start_supply, floor, vnom, delay);
  dvs::ThresholdController controller(loop_cfg.controller);
  dvs::ProportionalController proportional(prop_cfg);
  sim.set_supply(regulator.voltage());

  std::vector<core::WindowSample> series;
  std::uint64_t prev_windows = 0;
  std::uint64_t supply_changes = 0;
  double supply_sum = 0.0;
  std::uint64_t cycle = 0;
  for (const auto word : trace.words) {
    if (c.drift.enabled() && cycle % window == 0) {
      const tech::PvtCorner corner =
          c.drift.corner_at(env, cycle, vnom, system.table().temps());
      sim.set_environment(corner);
      nominal.set_environment(corner);
    }
    sim.set_supply(regulator.advance(cycle));
    const CycleResult r = sim.step(word);
    nominal.step(word);
    supply_sum += sim.supply();
    double delta = 0.0;
    if (threshold) {
      const dvs::VoltageDecision decision = controller.observe_cycle(r.error);
      if (decision == dvs::VoltageDecision::step_down)
        delta = -loop_cfg.controller.voltage_step;
      else if (decision == dvs::VoltageDecision::step_up)
        delta = +loop_cfg.controller.voltage_step;
      if (controller.windows_completed() != prev_windows) {
        prev_windows = controller.windows_completed();
        series.push_back({cycle + 1, sim.supply(), controller.last_window_error_rate()});
      }
    } else {
      delta = proportional.observe_cycle(r.error);
    }
    // razorlint: allow(float-eq): both controllers return literal 0.0 for
    // "no step".
    if (delta != 0.0 && regulator.request_change(delta, cycle)) ++supply_changes;
    ++cycle;
  }

  expect_totals_identical(batched.totals, sim.totals(), "closed loop vs per-cycle");
  EXPECT_EQ(bits_of(batched.baseline_bus_energy), bits_of(nominal.totals().bus_energy))
      << "baseline vs separate nominal simulator";
  // average_supply is accumulated as supply*span_length in the batched
  // driver vs one add per cycle here: same value up to summation order.
  EXPECT_NEAR(batched.average_supply,
              supply_sum / static_cast<double>(trace.words.size()), 1e-9);
  EXPECT_EQ(batched_series.size(), series.size());
  for (std::size_t i = 0; i < std::min(series.size(), batched_series.size()); ++i) {
    EXPECT_EQ(batched_series[i].end_cycle, series[i].end_cycle) << "window " << i;
    EXPECT_EQ(batched_series[i].supply, series[i].supply) << "window " << i;
    EXPECT_EQ(batched_series[i].error_rate, series[i].error_rate) << "window " << i;
  }
  return supply_changes;
}

TEST(EngineParity, ClosedLoopMatchesPerCycleDriver) {
  trace::SyntheticConfig cfg;
  cfg.cycles = 60000;
  cfg.load_rate = 0.5;
  cfg.seed = 9;
  const trace::Trace paper_trace = trace::generate_synthetic(cfg, "closed_loop");
  cfg.n_bits = 12;
  const trace::Trace wide_trace = trace::generate_synthetic(cfg, "closed_loop_wide");

  const tech::PvtCorner typical = tech::typical_corner();
  const tech::PvtCorner slow{tech::ProcessCorner::slow, 100.0, 0.0};
  // 100 C down to 25 C with 30 mV of aging: a new corner every window.
  const drift::Schedule ramp =
      drift::Schedule::linear(cfg.cycles, 100.0, 25.0, 0.0, 0.03);
  const core::DvsBusSystem* paper = &parity_system();
  const core::DvsBusSystem* wide = &wide_group_system();
  const EngineMode fast = EngineMode::bit_parallel;
  const EngineMode ref = EngineMode::reference;
  const std::vector<LoopCase> cases = {
      {"table kernel", paper, typical, fast, 0.0, {}, false},
      {"reference engine", paper, typical, ref, 0.0, {}, false},
      {"jitter kernel", paper, typical, fast, 300e-12, {}, true},
      {"reference + jitter", paper, typical, ref, 300e-12, {}, true},
      {"general kernel", wide, slow, fast, 0.0, {}, false},
      {"general + jitter", wide, slow, fast, 300e-12, {}, true},
      {"drift ramp", paper, typical, fast, 0.0, ramp, false},
      {"drift + reference", paper, typical, ref, 0.0, ramp, false},
  };
  for (const LoopCase& c : cases) {
    for (const auto kind :
         {dvs::ControllerKind::threshold, dvs::ControllerKind::proportional}) {
      SCOPED_TRACE(c.name + " / " + dvs::to_string(kind));
      const trace::Trace& trace = c.system == paper ? paper_trace : wide_trace;
      const std::uint64_t changes = check_closed_loop(c, kind, trace);
      // The supply must actually move mid-run, or the comparison is vacuous.
      EXPECT_GT(changes, 0u);
    }
  }
}

// Each leg of a consecutive run reports the energy of the nominal-supply
// bus over that leg's words alone: a fresh sum whose first cycle compares
// against the zero word, exactly BusSimulator::run_reference over the leg.
// Every leg opens on a word that is neither zero nor the previous leg's
// last word, so a baseline that carried the bus's previous word, or that
// differenced a running sum, would drift off by at least one cycle.
TEST(EngineParity, ConsecutiveLegBaselinesMatchRunReference) {
  const auto& system = parity_system();
  const interconnect::BusDesign& design = system.design();
  const tech::PvtCorner env = tech::typical_corner();
  std::vector<trace::Trace> legs;
  for (std::uint64_t seed : {41u, 42u, 43u, 44u}) {
    trace::SyntheticConfig cfg;
    cfg.cycles = 7000 + 1000 * (seed % 3);
    cfg.load_rate = 0.5;
    cfg.seed = seed;
    legs.push_back(trace::generate_synthetic(cfg, "leg"));
    legs.back().words.front() = static_cast<std::uint32_t>(0x5A5A5A5Au + seed);
  }
  for (std::size_t i = 0; i < legs.size(); ++i) {
    ASSERT_NE(legs[i].words.front(), BusWord());
    if (i > 0) {
      ASSERT_NE(legs[i].words.front(), legs[i - 1].words.back());
    }
  }

  for (const auto engine : {EngineMode::bit_parallel, EngineMode::reference}) {
    SCOPED_TRACE(to_string(engine));
    core::DvsRunConfig cfg;
    cfg.engine = engine;
    cfg.controller.window_cycles = 2000;
    cfg.regulator_delay_cycles = 700;
    const core::ConsecutiveRunReport r = core::run_consecutive_streamed(
        system, env, trace::make_trace_view_sources(legs), cfg);
    ASSERT_EQ(r.per_trace.size(), legs.size());
    for (std::size_t i = 0; i < legs.size(); ++i) {
      const RunningTotals expected =
          BusSimulator::run_reference(design, system.table(), env, legs[i].words);
      const double baseline = r.per_trace[i].baseline_bus_energy;
      EXPECT_EQ(bits_of(baseline), bits_of(expected.bus_energy)) << "leg " << i;
    }
  }
}

// The per-wire fallback kernel of wide_group_system(): parity must hold
// there too, with and without jitter.
TEST(EngineParity, WideShieldGroupFallback) {
  const core::DvsBusSystem& wide_system = wide_group_system();

  const tech::PvtCorner env{tech::ProcessCorner::slow, 100.0, 0.0};
  const auto words = pattern_trace("random", 1500, 61);
  for (const double supply : {1.02, 1.12})
    for (const double sigma : {0.0, 5e-12}) {
      BusSimulator fast = wide_system.make_simulator(env);
      BusSimulator ref = wide_system.make_simulator(env);
      ref.set_engine_mode(EngineMode::reference);
      for (BusSimulator* sim : {&fast, &ref}) {
        sim->set_supply(supply);
        if (sigma > 0.0) sim->set_timing_jitter(sigma, 0x51deu);
      }
      for (std::size_t i = 0; i < words.size(); ++i) {
        const CycleResult f = fast.step(words[i]);
        const CycleResult r = ref.step(words[i]);
        ASSERT_EQ(f.error, r.error) << "cycle " << i;
        ASSERT_EQ(f.shadow_failure, r.shadow_failure) << "cycle " << i;
        ASSERT_EQ(f.bus_energy, r.bus_energy) << "cycle " << i;
        ASSERT_EQ(f.worst_delay, r.worst_delay) << "cycle " << i;
      }
      expect_totals_identical(fast.totals(), ref.totals(), "wide group fallback");
    }
}

// The bit-parallel mask classifier must agree with the per-bit classifier
// for every wire on random transitions (including narrow buses, where the
// unused upper bits must never leak into the masks).
TEST(EngineParity, MaskClassifierMatchesPerBit) {
  for (const int n_bits : {32, 16, 9}) {
    interconnect::BusDesign design = test_support::sized_paper_bus();
    design.n_bits = n_bits;
    const WireClassifier classifier(design);
    Rng rng(41);
    for (int trial = 0; trial < 2000; ++trial) {
      const auto prev = static_cast<std::uint32_t>(rng.next_u64());
      const auto cur = static_cast<std::uint32_t>(rng.next_u64());
      int counts[lut::PatternClass::kCount] = {};
      for (int bit = 0; bit < n_bits; ++bit)
        ++counts[classifier.classify(prev, cur, bit)];

      const ClassMaskSet s = classifier.masks(prev, cur);
      int mask_total = 0;
      for_each_present_class(s, [&](int cls, std::uint32_t mask) {
        int count = 0;
        for (int bit = 0; bit < 32; ++bit)
          if ((mask >> bit) & 1u) {
            ASSERT_LT(bit, n_bits) << "mask leaks past the bus width";
            ASSERT_EQ(classifier.classify(prev, cur, bit), cls)
                << "bit " << bit << " prev=" << prev << " cur=" << cur;
            ++count;
          }
        ASSERT_EQ(count, counts[cls]) << "class " << cls;
        mask_total += count;
      });
      ASSERT_EQ(mask_total, n_bits);
    }
  }
}

}  // namespace
}  // namespace razorbus::bus

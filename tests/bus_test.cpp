#include <gtest/gtest.h>

#include <cmath>

#include "bus/businvert.hpp"
#include "bus/classify.hpp"
#include "bus/simulator.hpp"
#include "test_support.hpp"
#include "trace/synthetic.hpp"
#include "util/units.hpp"

namespace razorbus::bus {
namespace {

using lut::NeighborActivity;
using lut::PatternClass;
using lut::VictimActivity;
using test_support::small_system;

// ---------------------------------------------------------------- classify

TEST(Classify, EdgeWiresSeeShields) {
  const WireClassifier classifier(small_system().design());
  // Bit 0: left is a shield; transition 0 -> 1 with bit 1 falling.
  const std::uint32_t prev = 0b010;
  const std::uint32_t cur = 0b001;
  const int cls = classifier.classify(prev, cur, 0);
  EXPECT_EQ(PatternClass::victim_of(cls), VictimActivity::rise);
  EXPECT_EQ(PatternClass::left_of(cls), NeighborActivity::shield);
  EXPECT_EQ(PatternClass::right_of(cls), NeighborActivity::fall);
}

TEST(Classify, GroupBoundaryShields) {
  const WireClassifier classifier(small_system().design());
  // Bit 3 is the last of its shield group: right neighbor is a shield.
  const int cls = classifier.classify(0x0, 0x8, 3);
  EXPECT_EQ(PatternClass::victim_of(cls), VictimActivity::rise);
  EXPECT_EQ(PatternClass::right_of(cls), NeighborActivity::shield);
  // Bit 4 starts the next group: left neighbor is a shield.
  const int cls4 = classifier.classify(0x0, 0x10, 4);
  EXPECT_EQ(PatternClass::left_of(cls4), NeighborActivity::shield);
}

TEST(Classify, InteriorWireSeesBothNeighbors) {
  const WireClassifier classifier(small_system().design());
  // Bit 1 rises while bit 0 falls and bit 2 rises.
  const std::uint32_t prev = 0b001;
  const std::uint32_t cur = 0b110;
  const int cls = classifier.classify(prev, cur, 1);
  EXPECT_EQ(PatternClass::victim_of(cls), VictimActivity::rise);
  EXPECT_EQ(PatternClass::left_of(cls), NeighborActivity::fall);
  EXPECT_EQ(PatternClass::right_of(cls), NeighborActivity::rise);
}

TEST(Classify, HoldStates) {
  const WireClassifier classifier(small_system().design());
  const int low = classifier.classify(0x0, 0x0, 1);
  EXPECT_EQ(PatternClass::victim_of(low), VictimActivity::hold_low);
  const int high = classifier.classify(0x2, 0x2, 1);
  EXPECT_EQ(PatternClass::victim_of(high), VictimActivity::hold_high);
}

TEST(Classify, ClassifyAllMatchesPerBit) {
  const WireClassifier classifier(small_system().design());
  const std::uint32_t prev = 0xDEADBEEF;
  const std::uint32_t cur = 0x12345678;
  int all[32];
  classifier.classify_all(prev, cur, all);
  for (int bit = 0; bit < 32; ++bit)
    EXPECT_EQ(all[bit], classifier.classify(prev, cur, bit)) << "bit " << bit;
}

// ---------------------------------------------------------------- simulator

class BusSimTest : public ::testing::Test {
 protected:
  // Slow corner at 100C with no IR drop: inside the small LUT's axes.
  tech::PvtCorner env_{tech::ProcessCorner::slow, 100.0, 0.0};
};

TEST_F(BusSimTest, NominalSupplyIsErrorFreeOnWorstCaseData) {
  BusSimulator sim = small_system().make_simulator(env_);
  sim.set_supply(1.2);
  // Alternating checkerboard: every wire switches against both neighbors.
  for (int i = 0; i < 200; ++i) sim.step(i % 2 ? 0x55555555u : 0xAAAAAAAAu);
  EXPECT_EQ(sim.totals().errors, 0u);
  EXPECT_EQ(sim.totals().shadow_failures, 0u);
  EXPECT_EQ(sim.totals().cycles, 200u);
}

TEST_F(BusSimTest, ReducedSupplyProducesErrorsOnWorstCaseData) {
  BusSimulator sim = small_system().make_simulator(env_);
  sim.set_supply(1.06);  // well below the sizing point at the slow corner
  std::uint64_t errors = 0;
  for (int i = 0; i < 200; ++i)
    if (sim.step(i % 2 ? 0x55555555u : 0xAAAAAAAAu).error) ++errors;
  EXPECT_GT(errors, 150u);  // nearly every switching cycle errs
  EXPECT_EQ(sim.totals().shadow_failures, 0u);  // but all are recoverable
}

TEST_F(BusSimTest, IdleBusNeverErrs) {
  BusSimulator sim = small_system().make_simulator(env_);
  sim.set_supply(1.06);
  sim.step(0xFFFFFFFFu);  // first transition at low V may err
  const auto errors_before = sim.totals().errors;
  for (int i = 0; i < 100; ++i) {
    const CycleResult r = sim.step(0xFFFFFFFFu);
    EXPECT_FALSE(r.error);
    EXPECT_DOUBLE_EQ(r.worst_delay, 0.0);
  }
  EXPECT_EQ(sim.totals().errors, errors_before);
}

TEST_F(BusSimTest, IdleCyclesBurnOnlyLeakageAndOverhead) {
  BusSimulator sim = small_system().make_simulator(env_);
  sim.set_supply(1.2);
  sim.step(0);  // no transition from the reset word
  const CycleResult idle = sim.step(0);
  EXPECT_GT(idle.bus_energy, 0.0);
  EXPECT_GE(idle.overhead_energy, 0.0);  // zero with the default (recovery-only) model
  // Leakage only: far below a switching cycle's energy.
  const CycleResult busy = sim.step(0xFFFFFFFFu);
  EXPECT_LT(idle.bus_energy, 0.05 * busy.bus_energy);
}

TEST_F(BusSimTest, SwitchingEnergyScalesWithActivity) {
  BusSimulator sim = small_system().make_simulator(env_);
  sim.set_supply(1.2);
  sim.step(0);
  const double one_bit = sim.step(0x1u).bus_energy;
  sim.reset(0);
  sim.set_supply(1.2);
  const double many_bits = sim.step(0xFFFFu).bus_energy;
  EXPECT_GT(many_bits, 8.0 * one_bit);
}

TEST_F(BusSimTest, EnergyDropsWithSupply) {
  auto energy_at = [&](double v) {
    BusSimulator sim = small_system().make_simulator(env_);
    sim.set_supply(v);
    sim.step(0);
    double total = 0.0;
    for (int i = 1; i < 64; ++i)
      total += sim.step(0x0F0F0F0Fu ^ (i % 2 ? 0u : ~0u)).bus_energy;
    return total;
  };
  const double hi = energy_at(1.20);
  const double lo = energy_at(1.08);
  EXPECT_LT(lo, hi);
  EXPECT_NEAR(lo / hi, (1.08 * 1.08) / (1.2 * 1.2), 0.08);  // ~quadratic
}

TEST_F(BusSimTest, ErrorCycleAddsRecoveryOverhead) {
  BusSimulator sim = small_system().make_simulator(env_);
  sim.set_supply(1.2);
  sim.step(0);
  const double clean_overhead = sim.step(0x55555555u).overhead_energy;

  sim.reset(0);
  sim.set_supply(1.06);
  sim.step(0x55555555u);
  const CycleResult err = sim.step(0xAAAAAAAAu);
  ASSERT_TRUE(err.error);
  EXPECT_GT(err.overhead_energy, clean_overhead);
}

TEST_F(BusSimTest, IrDropSlowsTheBus) {
  // Same supply: a 10% droop at the drivers must push delays up.
  tech::PvtCorner droop = env_;
  droop.ir_drop_fraction = 0.10;
  BusSimulator dry = small_system().make_simulator(env_);
  BusSimulator wet = small_system().make_simulator(droop);
  dry.set_supply(1.2);
  wet.set_supply(1.2);
  dry.step(0);
  wet.step(0);
  const double d_dry = dry.step(0x55555555u).worst_delay;
  const double d_wet = wet.step(0x55555555u).worst_delay;
  EXPECT_GT(d_wet, d_dry * 1.03);
}

TEST_F(BusSimTest, WorstDelayMatchesTableWorstClassPresent) {
  BusSimulator sim = small_system().make_simulator(env_);
  sim.set_supply(1.14);
  sim.step(0);
  const CycleResult r = sim.step(0x55555555u);
  // The cycle's worst delay must equal the max table delay over exactly the
  // classes present on the 32 wires.
  const WireClassifier classifier(small_system().design());
  double expect = 0.0;
  for (int bit = 0; bit < 32; ++bit) {
    const int cls = classifier.classify(0u, 0x55555555u, bit);
    const double d =
        small_system().table().delay(cls, env_.process, env_.temp_c, 1.14);
    if (!std::isnan(d)) expect = std::max(expect, d);
  }
  EXPECT_NEAR(r.worst_delay, expect, 1e-15);
}

TEST_F(BusSimTest, ResetClearsTotalsAndState) {
  BusSimulator sim = small_system().make_simulator(env_);
  sim.set_supply(1.06);
  for (int i = 0; i < 50; ++i) sim.step(i % 2 ? 0x55555555u : 0xAAAAAAAAu);
  EXPECT_GT(sim.totals().cycles, 0u);
  sim.reset(0);
  EXPECT_EQ(sim.totals().cycles, 0u);
  EXPECT_EQ(sim.totals().errors, 0u);
  EXPECT_DOUBLE_EQ(sim.totals().bus_energy, 0.0);
}

TEST_F(BusSimTest, JitterChangesErrorPatternDeterministically) {
  auto run = [&](double sigma, std::uint64_t seed) {
    BusSimulator sim = small_system().make_simulator(env_);
    sim.set_timing_jitter(sigma, seed);
    sim.set_supply(1.10);  // worst-pattern delay sits right at the limit here
    std::uint64_t errors = 0;
    for (int i = 0; i < 2000; ++i)
      if (sim.step(i % 2 ? 0x55555555u : 0xAAAAAAAAu).error) ++errors;
    return errors;
  };
  // Deterministic for a fixed seed.
  EXPECT_EQ(run(5e-12, 1), run(5e-12, 1));
  // At 1.10 V / slow corner the worst pattern is marginal: jitter flips some
  // cycles relative to the jitter-free run.
  EXPECT_NE(run(5e-12, 1), run(0.0, 1));
}

TEST_F(BusSimTest, NegativeJitterSigmaRejected) {
  BusSimulator sim = small_system().make_simulator(env_);
  EXPECT_THROW(sim.set_timing_jitter(-1e-12), std::invalid_argument);
}

TEST_F(BusSimTest, RunReferenceUsesNominalSupply) {
  std::vector<BusWord> words;
  for (int i = 0; i < 100; ++i) words.push_back(i % 2 ? 0x0Fu : 0xF0u);
  const RunningTotals ref = BusSimulator::run_reference(
      small_system().design(), small_system().table(), env_, words);
  EXPECT_EQ(ref.cycles, 100u);
  EXPECT_EQ(ref.errors, 0u);  // nominal supply at a non-worst corner
  EXPECT_GT(ref.bus_energy, 0.0);
}

TEST_F(BusSimTest, SupplyValidation) {
  BusSimulator sim = small_system().make_simulator(env_);
  EXPECT_THROW(sim.set_supply(0.0), std::invalid_argument);
  EXPECT_THROW(sim.set_supply(-1.0), std::invalid_argument);
}

TEST(BusSimConstruction, UnsizedDesignRejected) {
  interconnect::BusDesign unsized = interconnect::BusDesign::paper_bus();
  EXPECT_THROW(
      BusSimulator(unsized, small_system().table(),
                   tech::PvtCorner{tech::ProcessCorner::typical, 100.0, 0.0}),
      std::invalid_argument);
}

// Property sweep: for any random word sequence, totals are consistent and
// no energy is ever negative.
class BusInvariantSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BusInvariantSweep, TotalsConsistentOnRandomTraffic) {
  Rng rng(GetParam());
  BusSimulator sim = small_system().make_simulator(
      tech::PvtCorner{tech::ProcessCorner::slow, 100.0, 0.0});
  sim.set_supply(1.08);
  std::uint64_t errors = 0;
  double bus_energy = 0.0;
  for (int i = 0; i < 500; ++i) {
    const CycleResult r =
        sim.step(rng.bernoulli(0.4) ? static_cast<std::uint32_t>(rng.next_u64()) : 0u);
    EXPECT_GE(r.bus_energy, 0.0);
    EXPECT_GE(r.overhead_energy, 0.0);
    EXPECT_GE(r.worst_delay, 0.0);
    if (r.error) ++errors;
    bus_energy += r.bus_energy;
  }
  EXPECT_EQ(sim.totals().cycles, 500u);
  EXPECT_EQ(sim.totals().errors, errors);
  EXPECT_NEAR(sim.totals().bus_energy, bus_energy, 1e-18);
  EXPECT_EQ(sim.totals().shadow_failures, 0u);  // 1.08 V is shadow-safe here
}

INSTANTIATE_TEST_SUITE_P(Seeds, BusInvariantSweep, ::testing::Values(1, 2, 3, 5, 8, 13));

// ---------------------------------------------------------------- bus-invert

trace::Trace random_trace(std::size_t cycles, std::uint64_t seed) {
  trace::SyntheticConfig cfg;
  cfg.style = trace::SyntheticStyle::uniform;
  cfg.cycles = cycles;
  cfg.load_rate = 1.0;
  cfg.seed = seed;
  return trace::generate_synthetic(cfg, "random");
}

TEST(BusInvert, DecodeInvertsEncode) {
  const trace::Trace raw = random_trace(5000, 3);
  const BusInvertResult enc = bus_invert_encode(raw);
  const trace::Trace decoded = bus_invert_decode(enc.encoded, enc.invert_line);
  EXPECT_EQ(decoded.words, raw.words);
}

TEST(BusInvert, NeverTogglesMoreThanHalfPlusLine) {
  const trace::Trace raw = random_trace(5000, 5);
  const BusInvertResult enc = bus_invert_encode(raw);
  std::uint32_t prev = 0;
  bool prev_line = false;
  for (std::size_t i = 0; i < enc.encoded.words.size(); ++i) {
    const int toggles = __builtin_popcount(prev ^ enc.encoded.words[i]) +
                        (prev_line != static_cast<bool>(enc.invert_line[i]) ? 1 : 0);
    EXPECT_LE(toggles, 17);  // n/2 + 1 for n = 32
    prev = enc.encoded.words[i];
    prev_line = enc.invert_line[i];
  }
}

TEST(BusInvert, ReducesTotalTogglesOnRandomData) {
  const trace::Trace raw = random_trace(20000, 7);
  const BusInvertResult enc = bus_invert_encode(raw);
  const std::uint64_t coded =
      total_toggles(enc.encoded) + invert_line_toggles(enc.invert_line);
  EXPECT_LT(coded, total_toggles(raw));
  EXPECT_GT(enc.inversions, 0u);
}

TEST(BusInvert, QuietTraceNeedsNoInversions) {
  trace::Trace quiet{"quiet", std::vector<BusWord>(1000, BusWord(0x1u))};
  const BusInvertResult enc = bus_invert_encode(quiet);
  EXPECT_EQ(enc.inversions, 0u);
  EXPECT_EQ(enc.encoded.words, quiet.words);
}

TEST(BusInvert, WorstCaseCheckerboardIsNeutralised) {
  trace::Trace hostile{"hostile", {}};
  for (int i = 0; i < 1000; ++i)
    hostile.words.push_back(i % 2 ? 0xFFFFFFFFu : 0x00000000u);  // 32 toggles/cycle
  const BusInvertResult enc = bus_invert_encode(hostile);
  // All-bit flips become invert-line flips only.
  EXPECT_EQ(total_toggles(enc.encoded), 0u);
  EXPECT_GT(enc.inversions, 900u);
}

TEST(BusInvert, EmptyTrace) {
  const BusInvertResult enc = bus_invert_encode(trace::Trace{"e", {}});
  EXPECT_TRUE(enc.encoded.words.empty());
  EXPECT_EQ(enc.inversions, 0u);
}

// ------------------------------------------- bus-invert at non-32 widths

trace::Trace random_wide_trace(int n_bits, std::size_t cycles, std::uint64_t seed) {
  trace::SyntheticConfig cfg;
  cfg.style = trace::SyntheticStyle::uniform;
  cfg.cycles = cycles;
  cfg.load_rate = 1.0;
  cfg.seed = seed;
  cfg.n_bits = n_bits;
  return trace::generate_synthetic(cfg, "random" + std::to_string(n_bits));
}

TEST(BusInvertWidth, RoundTripDecodesAt16And64And128) {
  for (const int width : {16, 64, 128}) {
    const trace::Trace raw = random_wide_trace(width, 4000, 11 + width);
    const BusInvertResult enc = bus_invert_encode(raw);
    EXPECT_EQ(enc.encoded.n_bits, width);
    const trace::Trace decoded = bus_invert_decode(enc.encoded, enc.invert_line);
    EXPECT_EQ(decoded.n_bits, width);
    EXPECT_EQ(decoded.words, raw.words) << "width " << width;
    // Encoded words never exceed the payload width.
    const BusWord mask = BusWord::mask_low(width);
    for (const BusWord& w : enc.encoded.words)
      ASSERT_EQ(w & ~mask, BusWord()) << "width " << width;
  }
}

TEST(BusInvertWidth, InvertDecisionUsesTraceWidth) {
  // A 16-wire bus flipping all 16 wires must invert (16 toggles vs 0+1);
  // the decision threshold is n/2 + 1 at the TRACE width, not at 32.
  trace::Trace hostile{"hostile16", {}, 16};
  for (int i = 0; i < 500; ++i)
    hostile.words.push_back(i % 2 ? 0xFFFFu : 0x0000u);
  const BusInvertResult enc = bus_invert_encode(hostile);
  EXPECT_EQ(total_toggles(enc.encoded), 0u);
  EXPECT_GT(enc.inversions, 450u);

  // Same for 64 wires: toggle bound is n/2 + 1 = 33.
  const trace::Trace raw = random_wide_trace(64, 4000, 21);
  const BusInvertResult enc64 = bus_invert_encode(raw);
  BusWord prev;
  bool prev_line = false;
  for (std::size_t i = 0; i < enc64.encoded.words.size(); ++i) {
    const int toggles = (prev ^ enc64.encoded.words[i]).popcount() +
                        (prev_line != static_cast<bool>(enc64.invert_line[i]) ? 1 : 0);
    ASSERT_LE(toggles, 33) << "cycle " << i;
    prev = enc64.encoded.words[i];
    prev_line = enc64.invert_line[i];
  }
  // And it still pays on random 64-bit data.
  EXPECT_LT(total_toggles(enc64.encoded) + invert_line_toggles(enc64.invert_line),
            total_toggles(raw));
}

// The invert line counts as one toggle: on an odd width, a word whose
// complement ties with it once the line is counted keeps the line low,
// and one more toggle flips it. Stream and materialized encoder agree.
TEST(BusInvertWidth, InvertLineCountsAsAToggle) {
  const trace::Trace raw{"odd15", {0x0000u, 0x00FFu, 0x0100u}, 15};
  const BusInvertResult enc = bus_invert_encode(raw);
  // 0x00FF: 8 toggles direct vs 7 + 1 inverted, a tie, so no inversion.
  // 0x0100: 9 toggles direct vs 6 + 1 inverted, so the line flips.
  EXPECT_EQ(enc.encoded.words, (std::vector<BusWord>{0x0000u, 0x00FFu, 0x7EFFu}));
  EXPECT_EQ(enc.invert_line, (std::vector<bool>{false, false, true}));
  EXPECT_EQ(enc.inversions, 1u);
  const auto source = bus_invert_encode_source(trace::make_trace_source(raw));
  EXPECT_EQ(trace::materialize(*source).words, enc.encoded.words);
}

TEST(BusInvertWidth, WideEncodedTrafficRunsOnWideBus) {
  // The encoded 64-wire stream must drive a 64-wire simulator end to end
  // (composition of coding + DVS is the ablation_encoding scenario).
  const trace::Trace raw = random_wide_trace(64, 2000, 31);
  const BusInvertResult enc = bus_invert_encode(raw);
  interconnect::BusDesign design = interconnect::BusDesign::wide_bus(64);
  design.repeater_size = small_system().design().repeater_size;
  BusSimulator sim(design, small_system().table(),
                   tech::PvtCorner{tech::ProcessCorner::slow, 100.0, 0.0});
  sim.set_supply(1.2);
  const RunningTotals t = sim.run(enc.encoded.words);
  EXPECT_EQ(t.cycles, enc.encoded.words.size());
  EXPECT_EQ(t.shadow_failures, 0u);
}

}  // namespace
}  // namespace razorbus::bus

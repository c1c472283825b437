#include <gtest/gtest.h>

#include "util/bits.hpp"
#include <cmath>
#include <set>

#include "cpu/isa.hpp"
#include "cpu/kernels.hpp"
#include "cpu/machine.hpp"
#include "cpu/program.hpp"
#include "cpu/simpoint.hpp"
#include "trace/synthetic.hpp"
#include "trace/trace.hpp"

namespace razorbus::cpu {
namespace {

// ---------------------------------------------------------------- builder

TEST(ProgramBuilder, ResolvesForwardAndBackwardLabels) {
  ProgramBuilder b("p");
  b.loadi(1, 0)
      .label("top")
      .addi(1, 1, 1)
      .blt(1, 2, "top")  // backward
      .beq(0, 0, "end")  // forward
      .nop()
      .label("end")
      .halt();
  const Program p = b.build();
  EXPECT_EQ(p.code[2].imm, 1);  // "top" -> instruction index 1
  EXPECT_EQ(p.code[3].imm, 5);  // "end" -> index of halt
}

TEST(ProgramBuilder, UndefinedLabelThrows) {
  ProgramBuilder b("p");
  b.jmp("nowhere");
  EXPECT_THROW(b.build(), std::invalid_argument);
}

TEST(ProgramBuilder, DuplicateLabelThrows) {
  ProgramBuilder b("p");
  b.label("x");
  EXPECT_THROW(b.label("x"), std::invalid_argument);
}

TEST(ProgramBuilder, RegisterRangeChecked) {
  ProgramBuilder b("p");
  EXPECT_THROW(b.add(16, 0, 0), std::invalid_argument);
  EXPECT_THROW(b.add(-1, 0, 0), std::invalid_argument);
}

TEST(Disassemble, ProducesReadableText) {
  Instruction add{Opcode::add, 3, 1, 2, 0};
  EXPECT_EQ(disassemble(add), "add r3, r1, r2");
  Instruction ld{Opcode::load, 4, 2, 0, 7};
  EXPECT_EQ(disassemble(ld), "load r4, [r2 + 7]");
  Instruction st{Opcode::store, 0, 2, 5, -3};
  EXPECT_EQ(disassemble(st), "store [r2 + -3], r5");
  Instruction li{Opcode::loadi, 1, 0, 0, 42};
  EXPECT_EQ(disassemble(li), "loadi r1, 42");
}

TEST(Isa, ControlFlowClassification) {
  EXPECT_TRUE(is_control_flow(Opcode::beq));
  EXPECT_TRUE(is_control_flow(Opcode::jmp));
  EXPECT_FALSE(is_control_flow(Opcode::add));
  EXPECT_TRUE(is_load(Opcode::load));
  EXPECT_FALSE(is_load(Opcode::store));
}

// ---------------------------------------------------------------- machine

Machine run_program(ProgramBuilder& b, std::uint64_t max_instr = 1000) {
  Machine m(b.build(), 1u << 12);
  m.run(max_instr);
  return m;
}

TEST(Machine, ArithmeticOps) {
  ProgramBuilder b("arith");
  b.loadi(1, 7).loadi(2, 3);
  b.add(3, 1, 2).sub(4, 1, 2).mul(5, 1, 2).divu(6, 1, 2).halt();
  Machine m = run_program(b);
  EXPECT_EQ(m.reg(3), 10u);
  EXPECT_EQ(m.reg(4), 4u);
  EXPECT_EQ(m.reg(5), 21u);
  EXPECT_EQ(m.reg(6), 2u);
}

TEST(Machine, DivisionByZeroYieldsZero) {
  ProgramBuilder b("div0");
  b.loadi(1, 9).loadi(2, 0).divu(3, 1, 2).halt();
  EXPECT_EQ(run_program(b).reg(3), 0u);
}

TEST(Machine, LogicAndShifts) {
  ProgramBuilder b("logic");
  b.loadi(1, 0xF0F0).loadi(2, 0x0FF0);
  b.and_(3, 1, 2).or_(4, 1, 2).xor_(5, 1, 2);
  b.loadi(6, 4).shl(7, 1, 6).shr(8, 1, 6);
  b.loadi(9, 0x80000000u).loadi(10, 31).sra(11, 9, 10);
  b.halt();
  Machine m = run_program(b);
  EXPECT_EQ(m.reg(3), 0x00F0u);  // 0xF0F0 & 0x0FF0
  EXPECT_EQ(m.reg(4), 0xFFF0u);
  EXPECT_EQ(m.reg(5), 0xFF00u);
  EXPECT_EQ(m.reg(7), 0xF0F00u);
  EXPECT_EQ(m.reg(8), 0x0F0Fu);
  EXPECT_EQ(m.reg(11), 0xFFFFFFFFu);  // arithmetic shift of the sign bit
}

TEST(Machine, ImmediateOps) {
  ProgramBuilder b("imm");
  b.loadi(1, 100);
  b.addi(2, 1, -1).muli(3, 1, 3).andi(4, 1, 0x6).ori(5, 1, 0x1).xori(6, 1, 0xFF);
  b.shli(7, 1, 2).shri(8, 1, 2);
  b.halt();
  Machine m = run_program(b);
  EXPECT_EQ(m.reg(2), 99u);
  EXPECT_EQ(m.reg(3), 300u);
  EXPECT_EQ(m.reg(4), 100u & 0x6u);
  EXPECT_EQ(m.reg(5), 100u | 0x1u);
  EXPECT_EQ(m.reg(6), 100u ^ 0xFFu);
  EXPECT_EQ(m.reg(7), 400u);
  EXPECT_EQ(m.reg(8), 25u);
}

TEST(Machine, PopcountAndMov) {
  ProgramBuilder b("pop");
  b.loadi(1, 0xF00F).popcnt(2, 1).mov(3, 2).halt();
  Machine m = run_program(b);
  EXPECT_EQ(m.reg(2), 8u);
  EXPECT_EQ(m.reg(3), 8u);
}

TEST(Machine, LoadStoreRoundTrip) {
  ProgramBuilder b("mem");
  b.loadi(1, 100).loadi(2, 0xCAFE);
  b.store(1, 5, 2);   // mem[105] = 0xCAFE
  b.load(3, 1, 5);    // r3 = mem[105]
  b.halt();
  Machine m = run_program(b);
  EXPECT_EQ(m.reg(3), 0xCAFEu);
  EXPECT_EQ(m.mem(105), 0xCAFEu);
}

TEST(Machine, MemoryAddressWraps) {
  ProgramBuilder b("wrap");
  b.loadi(1, 0xFFFFFFFFu).loadi(2, 77).store(1, 1, 2).load(3, 1, 1).halt();
  Machine m = run_program(b);  // 4096-word memory: address wraps to 0
  EXPECT_EQ(m.reg(3), 77u);
  EXPECT_EQ(m.mem(0), 77u);
}

TEST(Machine, BranchSemantics) {
  ProgramBuilder b("branch");
  b.loadi(1, 5)
      .loadi(2, 0)
      .label("loop")
      .addi(2, 2, 1)
      .blt(2, 1, "loop")
      .halt();
  Machine m = run_program(b);
  EXPECT_EQ(m.reg(2), 5u);
}

TEST(Machine, SignedVsUnsignedCompare) {
  ProgramBuilder b("cmp");
  b.loadi(1, 0xFFFFFFFFu)  // -1 signed, max unsigned
      .loadi(2, 1)
      .loadi(5, 0)
      .blt(1, 2, "signed_taken")  // -1 < 1 signed: taken
      .halt()
      .label("signed_taken")
      .loadi(5, 1)
      .bltu(1, 2, "unsigned_taken")  // max > 1 unsigned: NOT taken
      .halt()
      .label("unsigned_taken")
      .loadi(5, 2)
      .halt();
  EXPECT_EQ(run_program(b).reg(5), 1u);
}

TEST(Machine, FloatingPointOps) {
  ProgramBuilder b("fp");
  b.loadi(1, razorbus::bit_cast<std::uint32_t>(3.0f));
  b.loadi(2, razorbus::bit_cast<std::uint32_t>(2.0f));
  b.fadd(3, 1, 2).fsub(4, 1, 2).fmul(5, 1, 2).fdiv(6, 1, 2);
  b.halt();
  Machine m = run_program(b);
  EXPECT_FLOAT_EQ(razorbus::bit_cast<float>(m.reg(3)), 5.0f);
  EXPECT_FLOAT_EQ(razorbus::bit_cast<float>(m.reg(4)), 1.0f);
  EXPECT_FLOAT_EQ(razorbus::bit_cast<float>(m.reg(5)), 6.0f);
  EXPECT_FLOAT_EQ(razorbus::bit_cast<float>(m.reg(6)), 1.5f);
}

TEST(Machine, FloatDivByZeroYieldsZero) {
  ProgramBuilder b("fdiv0");
  b.loadi(1, razorbus::bit_cast<std::uint32_t>(3.0f)).loadi(2, 0).fdiv(3, 1, 2).halt();
  EXPECT_FLOAT_EQ(razorbus::bit_cast<float>(run_program(b).reg(3)), 0.0f);
}

TEST(Machine, IntFloatConversions) {
  ProgramBuilder b("cvt");
  b.loadi(1, static_cast<std::uint32_t>(-7)).itof(2, 1).ftoi(3, 2).halt();
  Machine m = run_program(b);
  EXPECT_FLOAT_EQ(razorbus::bit_cast<float>(m.reg(2)), -7.0f);
  EXPECT_EQ(static_cast<std::int32_t>(m.reg(3)), -7);
}

TEST(Machine, HaltStopsExecution) {
  ProgramBuilder b("halt");
  b.loadi(1, 1).halt().loadi(1, 99);
  Machine m = run_program(b);
  EXPECT_TRUE(m.halted());
  EXPECT_EQ(m.reg(1), 1u);
  EXPECT_EQ(m.instructions_executed(), 1u);
}

TEST(Machine, RunStopsAtInstructionBudget) {
  ProgramBuilder b("spin");
  b.label("top").addi(1, 1, 1).jmp("top");
  Machine m(b.build(), 1u << 12);
  EXPECT_EQ(m.run(1000), 1000u);
  EXPECT_FALSE(m.halted());
  EXPECT_EQ(m.reg(1), 500u);  // half the instructions are the addi
}

TEST(Machine, LoadCallbackSeesLoadData) {
  ProgramBuilder b("loads");
  b.loadi(1, 10).loadi(2, 1234).store(1, 0, 2).load(3, 1, 0).load(4, 1, 0).halt();
  Machine m(b.build(), 1u << 12);
  std::vector<std::uint32_t> loads;
  m.run(100, [&loads](std::uint32_t v) { loads.push_back(v); });
  ASSERT_EQ(loads.size(), 2u);
  EXPECT_EQ(loads[0], 1234u);
  EXPECT_EQ(loads[1], 1234u);
}

TEST(Machine, RejectsBadMemorySize) {
  ProgramBuilder b("x");
  b.halt();
  EXPECT_THROW(Machine(b.build(), 1000), std::invalid_argument);  // not a power of two
  EXPECT_THROW(Machine(b.build(), 0), std::invalid_argument);
  EXPECT_THROW(Machine(Program{}, 1024), std::invalid_argument);  // empty program
}

TEST(Machine, PcFallOffEndHalts) {
  ProgramBuilder b("falloff");
  b.nop();
  Machine m(b.build(), 1024);
  m.run(10);
  EXPECT_TRUE(m.halted());
  EXPECT_EQ(m.instructions_executed(), 1u);
}

// ---------------------------------------------------------------- traces

TEST(BusTrace, HoldsBetweenLoads) {
  ProgramBuilder b("t");
  b.loadi(1, 10).loadi(2, 42).store(1, 0, 2).load(3, 1, 0).nop().nop().load(4, 1, 1)
      .nop().halt();
  Machine m(b.build(), 1u << 12);
  const trace::Trace t = capture_bus_trace(m, 100, "t");
  // 8 executed instructions before halt.
  ASSERT_EQ(t.words.size(), 8u);
  EXPECT_EQ(t.words[0], 0u);   // loadi: bus idle
  EXPECT_EQ(t.words[3], 42u);  // the load drives its data
  EXPECT_EQ(t.words[4], 42u);  // nop: bus holds
  EXPECT_EQ(t.words[5], 42u);
  EXPECT_EQ(t.words[6], 0u);   // a load of zero (mem[11]) still drives it
  EXPECT_EQ(t.words[7], 0u);   // and the bus holds the zero
}

// ---------------------------------------------------------------- kernels

TEST(Kernels, SuiteHasPaperOrder) {
  const auto suite = spec2000_suite();
  ASSERT_EQ(suite.size(), 10u);
  const char* expected[] = {"crafty", "vortex", "mgrid", "swim",  "mcf",
                            "mesa",   "vpr",    "applu", "gap", "wupwise"};
  for (std::size_t i = 0; i < suite.size(); ++i) EXPECT_EQ(suite[i].name, expected[i]);
}

TEST(Kernels, LookupByName) {
  EXPECT_EQ(benchmark_by_name("mcf").name, "mcf");
  EXPECT_THROW(benchmark_by_name("gcc"), std::invalid_argument);
}

class KernelSweep : public ::testing::TestWithParam<const char*> {};

TEST_P(KernelSweep, RunsFiftyThousandCyclesWithoutHalting) {
  const Benchmark bench = benchmark_by_name(GetParam());
  Machine m = bench.make_machine();
  const trace::Trace t = capture_bus_trace(m, 50000, bench.name);
  EXPECT_EQ(t.words.size(), 50000u);  // kernels loop forever
  EXPECT_FALSE(m.halted());
}

TEST_P(KernelSweep, ProducesLiveLoadTraffic) {
  const Benchmark bench = benchmark_by_name(GetParam());
  const trace::Trace t = bench.capture(50000);
  const trace::TraceStats stats = trace::compute_stats(t);
  EXPECT_GT(stats.active_cycle_rate, 0.02) << "bus should see fresh data";
  std::set<std::uint32_t> distinct(t.words.begin(), t.words.end());
  EXPECT_GT(distinct.size(), 4u) << "loads should carry varied values";
}

TEST_P(KernelSweep, TraceIsDeterministic) {
  const Benchmark bench = benchmark_by_name(GetParam());
  const trace::Trace a = bench.capture(5000);
  const trace::Trace b = bench.capture(5000);
  EXPECT_EQ(a.words, b.words);
}

INSTANTIATE_TEST_SUITE_P(All, KernelSweep,
                         ::testing::Values("crafty", "vortex", "mgrid", "swim", "mcf",
                                           "mesa", "vpr", "applu", "gap", "wupwise"));

// The suite must span a wide activity range: that diversity is what the
// paper's program-dependent DVS results rest on.
TEST(Kernels, ActivityDiversityAcrossSuite) {
  double min_worst = 1.0;
  double max_worst = 0.0;
  for (const auto& bench : spec2000_suite()) {
    const auto stats = trace::compute_stats(bench.capture(50000));
    min_worst = std::min(min_worst, stats.worst_pattern_rate);
    max_worst = std::max(max_worst, stats.worst_pattern_rate);
  }
  EXPECT_LT(min_worst, 0.01);  // some benchmark is quiet (crafty/mesa-like)
  EXPECT_GT(max_worst, 0.08);  // some benchmark is aggressive (FP stencils)
}

TEST(Kernels, QuietAndNoisyBenchmarksMatchPaperRoles) {
  const auto quiet = trace::compute_stats(benchmark_by_name("crafty").capture(50000));
  const auto noisy = trace::compute_stats(benchmark_by_name("mgrid").capture(50000));
  // Fig. 6: crafty runs at much lower voltage than mgrid -> crafty must see
  // far fewer worst-case coupling patterns.
  EXPECT_LT(quiet.worst_pattern_rate * 5.0, noisy.worst_pattern_rate);
}

// Fuzz: random (but structurally valid) programs must never crash or read
// out of bounds — the machine wraps addresses and treats any register as
// fair game.
class MachineFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MachineFuzz, RandomProgramsExecuteSafely) {
  Rng rng(GetParam());
  Program program;
  program.name = "fuzz";
  const int length = 64;
  for (int i = 0; i < length; ++i) {
    Instruction instr;
    // Draw from the full opcode range except halt (index 0) so programs run.
    instr.op = static_cast<Opcode>(1 + rng.next_below(35));
    instr.rd = static_cast<std::uint8_t>(rng.next_below(kRegisterCount));
    instr.ra = static_cast<std::uint8_t>(rng.next_below(kRegisterCount));
    instr.rb = static_cast<std::uint8_t>(rng.next_below(kRegisterCount));
    instr.imm = is_control_flow(instr.op)
                    ? static_cast<std::int64_t>(rng.next_below(length))
                    : static_cast<std::int64_t>(
                          static_cast<std::int32_t>(rng.next_u64()));
    program.code.push_back(instr);
  }
  Machine machine(std::move(program), 1u << 12);
  const std::uint64_t executed = machine.run(20000);
  EXPECT_LE(executed, 20000u);
  EXPECT_LE(machine.pc(), 64u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MachineFuzz,
                         ::testing::Values(11, 22, 33, 44, 55, 66, 77, 88));

// ---------------------------------------------------------------- simpoint

TEST(SimPoint, WeightsSumToOneAndWindowsValid) {
  const trace::Trace t = benchmark_by_name("vortex").capture(100000);
  SimPointConfig cfg;
  cfg.window_cycles = 5000;
  cfg.clusters = 4;
  const SimPointResult r = select_simpoints(t, cfg);
  ASSERT_FALSE(r.points.empty());
  ASSERT_LE(r.points.size(), 4u);
  double total_weight = 0.0;
  for (const auto& p : r.points) {
    EXPECT_LT(p.window_index, r.total_windows);
    EXPECT_EQ(p.begin_cycle, p.window_index * cfg.window_cycles);
    EXPECT_GT(p.weight, 0.0);
    total_weight += p.weight;
  }
  EXPECT_NEAR(total_weight, 1.0, 1e-9);
  EXPECT_EQ(r.total_windows, 20u);
}

TEST(SimPoint, PhaseChangeDetected) {
  // A trace with two sharply different phases must yield simpoints from
  // both phases.
  trace::SyntheticConfig quiet;
  quiet.style = trace::SyntheticStyle::sparse;
  quiet.cycles = 50000;
  quiet.load_rate = 0.1;
  trace::SyntheticConfig noisy;
  noisy.style = trace::SyntheticStyle::uniform;
  noisy.cycles = 50000;
  noisy.load_rate = 0.8;
  noisy.seed = 9;
  const trace::Trace phased = trace::concatenate(
      {trace::generate_synthetic(quiet, "q"), trace::generate_synthetic(noisy, "n")},
      "phased");

  SimPointConfig cfg;
  cfg.window_cycles = 10000;
  cfg.clusters = 2;
  const SimPointResult r = select_simpoints(phased, cfg);
  ASSERT_EQ(r.points.size(), 2u);
  // One representative from each half.
  EXPECT_LT(r.points.front().window_index, 5u);
  EXPECT_GE(r.points.back().window_index, 5u);
}

TEST(SimPoint, MaterializedTraceApproximatesFullStats) {
  const trace::Trace t = benchmark_by_name("mgrid").capture(200000);
  SimPointConfig cfg;
  cfg.window_cycles = 10000;
  cfg.clusters = 5;
  const SimPointResult r = select_simpoints(t, cfg);
  const trace::Trace reduced = materialize_simpoints(t, r, 10);
  EXPECT_LT(reduced.words.size(), t.words.size());

  const auto full = trace::compute_stats(t);
  const auto approx = trace::compute_stats(reduced);
  EXPECT_NEAR(approx.toggle_rate, full.toggle_rate, 0.25 * full.toggle_rate + 0.01);
  EXPECT_NEAR(approx.worst_pattern_rate, full.worst_pattern_rate,
              0.35 * full.worst_pattern_rate + 0.01);
}

TEST(SimPoint, DeterministicForSeed) {
  const trace::Trace t = benchmark_by_name("vpr").capture(80000);
  SimPointConfig cfg;
  cfg.window_cycles = 8000;
  cfg.clusters = 3;
  const SimPointResult a = select_simpoints(t, cfg);
  const SimPointResult b = select_simpoints(t, cfg);
  ASSERT_EQ(a.points.size(), b.points.size());
  for (std::size_t i = 0; i < a.points.size(); ++i)
    EXPECT_EQ(a.points[i].window_index, b.points[i].window_index);
}

TEST(SimPoint, Validation) {
  const trace::Trace t{"t", std::vector<razorbus::BusWord>(100, razorbus::BusWord(1u))};
  SimPointConfig cfg;
  cfg.window_cycles = 0;
  EXPECT_THROW(select_simpoints(t, cfg), std::invalid_argument);
  cfg = SimPointConfig{};
  cfg.clusters = 0;
  EXPECT_THROW(select_simpoints(t, cfg), std::invalid_argument);
  cfg = SimPointConfig{};
  cfg.window_cycles = 1000;  // longer than the trace
  EXPECT_THROW(select_simpoints(t, cfg), std::invalid_argument);
}

TEST(SimPoint, MoreClustersThanWindowsClamps) {
  const trace::Trace t{"t", std::vector<razorbus::BusWord>(30000, razorbus::BusWord(5u))};
  SimPointConfig cfg;
  cfg.window_cycles = 10000;
  cfg.clusters = 16;
  const SimPointResult r = select_simpoints(t, cfg);
  EXPECT_LE(r.points.size(), 3u);
}

TEST(Kernels, FpBenchmarksCarryFloatBitPatterns) {
  const trace::Trace t = benchmark_by_name("mgrid").capture(20000);
  int fp_like = 0;
  int fresh = 0;
  std::uint32_t prev = ~0u;
  for (const auto& word : t.words) {
    const std::uint32_t w = word.low32();
    if (w == prev) continue;
    prev = w;
    ++fresh;
    const float f = razorbus::bit_cast<float>(w);
    if (std::isfinite(f) && std::abs(f) > 1e-3f && std::abs(f) < 1e3f) ++fp_like;
  }
  ASSERT_GT(fresh, 100);
  EXPECT_GT(static_cast<double>(fp_like) / static_cast<double>(fresh), 0.9);
}

}  // namespace
}  // namespace razorbus::cpu

#include "cpu/kernels.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <stdexcept>

#include "util/bits.hpp"
#include "util/rng.hpp"

namespace razorbus::cpu {

namespace {

std::uint32_t fbits(float f) { return razorbus::bit_cast<std::uint32_t>(f); }

// --- Memory layout bases (word addresses) -------------------------------
constexpr std::uint32_t kTableBase = 0x00000;   // crafty bitboards
constexpr std::uint32_t kRecordBase = 0x10000;  // vortex records
constexpr std::uint32_t kGridBase = 0x20000;    // mgrid source grid
constexpr std::uint32_t kGridOut = 0x30000;     // mgrid destination grid
constexpr std::uint32_t kArcBase = 0x40000;     // mcf arcs
constexpr std::uint32_t kUniformBase = 0x50000; // mesa uniforms
constexpr std::uint32_t kCellBase = 0x60000;    // vpr cells
constexpr std::uint32_t kBlockBase = 0x70000;   // applu blocks
constexpr std::uint32_t kPermBase = 0x80000;    // gap permutations
constexpr std::uint32_t kCplxBase = 0x90000;    // wupwise complex arrays
constexpr std::uint32_t kSwimBase = 0xa0000;    // swim u/v/p arrays

// =========================================================================
// crafty: sparse bitboard tables, AND/OR/popcount evaluation.
// =========================================================================
Benchmark make_crafty() {
  ProgramBuilder b("crafty");
  // r1 = LCG state, r2 = table base, r7 = score accumulator.
  b.label("loop")
      .muli(1, 1, 1664525)
      .addi(1, 1, 1013904223)
      .shri(3, 1, 16)
      .andi(3, 3, 4095)
      .add(3, 3, 2)
      .load(4, 3, 0)        // attack bitboard (sparse)
      .load(5, 3, 1)        // companion board
      .and_(6, 4, 5)
      .popcnt(6, 6)
      .add(7, 7, 6)
      .or_(8, 4, 5)
      .popcnt(8, 8)
      .add(7, 7, 8)
      .jmp("loop");

  Benchmark bench;
  bench.name = "crafty";
  bench.program = b.build();
  bench.initialize = [](Machine& m) {
    Rng rng(0xc4af7u);
    for (std::uint32_t i = 0; i < 4096 + 2; ++i) {
      // 1-4 set bits: sparse occupancy/attack masks.
      std::uint32_t w = 0;
      const int bits = 1 + static_cast<int>(rng.next_below(4));
      for (int k = 0; k < bits; ++k) w |= 1u << rng.next_below(32);
      if (rng.bernoulli(0.15)) w = 0;  // empty boards are common
      m.set_mem(kTableBase + i, w);
    }
    m.set_reg(1, 12345);
    m.set_reg(2, kTableBase);
  };
  return bench;
}

// =========================================================================
// vortex: object database traversal over 8-word records.
// Record: [id, flags, name0, name1, next_ptr, value, balance, checksum]
// =========================================================================
Benchmark make_vortex() {
  ProgramBuilder b("vortex");
  // r1 = current record address, r7/r8 accumulators.
  b.label("loop")
      .load(3, 1, 0)   // id (sequential small int)
      .load(4, 1, 1)   // flags (few low bits)
      .load(5, 1, 2)   // packed ASCII name chars
      .add(7, 7, 3)
      .xor_(8, 8, 5)
      .load(6, 1, 5)   // value (16-bit entropy)
      .add(7, 7, 6)
      .andi(9, 4, 3)
      .bne(9, 0, "skip_audit")
      .load(10, 1, 7)  // checksum (full-entropy word, flag-gated)
      .xor_(8, 8, 10)
      .label("skip_audit")
      .load(1, 1, 4)   // follow next_ptr
      .jmp("loop");

  Benchmark bench;
  bench.name = "vortex";
  bench.program = b.build();
  bench.initialize = [](Machine& m) {
    Rng rng(0x40e7e8u);
    constexpr std::uint32_t kRecords = 1024;
    // Random cyclic permutation for the next pointers.
    std::vector<std::uint32_t> order(kRecords);
    for (std::uint32_t i = 0; i < kRecords; ++i) order[i] = i;
    for (std::uint32_t i = kRecords - 1; i > 0; --i) {
      const auto j = static_cast<std::uint32_t>(rng.next_below(i + 1));
      std::swap(order[i], order[j]);
    }
    for (std::uint32_t i = 0; i < kRecords; ++i) {
      const std::uint32_t addr = kRecordBase + order[i] * 8;
      const std::uint32_t next = kRecordBase + order[(i + 1) % kRecords] * 8;
      auto ascii = [&rng] {
        std::uint32_t w = 0;
        for (int c = 0; c < 4; ++c)
          w |= (0x41u + static_cast<std::uint32_t>(rng.next_below(26))) << (8 * c);
        return w;
      };
      m.set_mem(addr + 0, order[i]);                     // id
      m.set_mem(addr + 1, static_cast<std::uint32_t>(rng.next_below(8)));  // flags
      m.set_mem(addr + 2, ascii());                      // name chars
      m.set_mem(addr + 3, ascii());
      m.set_mem(addr + 4, next);                         // pointer (stable high bits)
      m.set_mem(addr + 5, static_cast<std::uint32_t>(rng.next_below(65536)));
      m.set_mem(addr + 6, static_cast<std::uint32_t>(rng.next_below(10000)));
      m.set_mem(addr + 7, static_cast<std::uint32_t>(rng.next_u64()));
    }
    m.set_reg(1, kRecordBase);
  };
  return bench;
}

// =========================================================================
// mgrid: 7-point stencil over a smooth 32x32x32 FP field.
// =========================================================================
Benchmark make_mgrid() {
  ProgramBuilder b("mgrid");
  // r1 = linear index, r2 = in base, r3 = current address, r9 = out base,
  // r10 = 1/7 weight, r12 = wrap limit, r13 = wrap reset value.
  b.label("loop")
      .add(3, 2, 1)
      .load(4, 3, 0)        // center
      .load(5, 3, 1)        // +x
      .fadd(4, 4, 5)
      .load(5, 3, -1)       // -x
      .fadd(4, 4, 5)
      .load(5, 3, 32)       // +y
      .fadd(4, 4, 5)
      .load(5, 3, -32)      // -y
      .fadd(4, 4, 5)
      .load(5, 3, 1024)     // +z
      .fadd(4, 4, 5)
      .load(5, 3, -1024)    // -z
      .fadd(4, 4, 5)
      .fmul(4, 4, 10)       // * (1/7)
      .add(6, 9, 1)
      .store(6, 0, 4)
      .addi(1, 1, 1)
      .blt(1, 12, "loop")
      .mov(1, 13)           // wrap back to the first interior point
      .jmp("loop");

  Benchmark bench;
  bench.name = "mgrid";
  bench.program = b.build();
  bench.initialize = [](Machine& m) {
    Rng rng(0x316d9du);
    for (std::uint32_t i = 0; i < 32768; ++i) {
      const double x = static_cast<double>(i % 32);
      const double y = static_cast<double>((i / 32) % 32);
      const double z = static_cast<double>(i / 1024);
      const double smooth =
          std::sin(0.21 * x) * std::cos(0.17 * y) + 0.5 * std::sin(0.13 * z);
      const double noise = 0.05 * (rng.next_double() - 0.5);
      m.set_mem(kGridBase + i, fbits(static_cast<float>(1.0 + smooth + noise)));
    }
    m.set_reg(1, 1025);               // first interior point
    m.set_reg(2, kGridBase);
    m.set_reg(9, kGridOut);
    m.set_reg(10, fbits(1.0f / 7.0f));
    m.set_reg(12, 31743);             // last interior point
    m.set_reg(13, 1025);
  };
  return bench;
}

// =========================================================================
// swim: shallow-water style sweeps over u/v/p arrays (128x128 floats).
// =========================================================================
Benchmark make_swim() {
  ProgramBuilder b("swim");
  // r1 = index, r2 = u base, r3 = v base, r4 = p base, r10 = dt coefficient,
  // r12 = limit.
  b.label("loop")
      .add(5, 2, 1)
      .load(6, 5, 0)      // u[i]
      .add(7, 3, 1)
      .load(8, 7, 0)      // v[i]
      .load(9, 7, 1)      // v[i+1]
      .fsub(8, 9, 8)      // dv
      .add(7, 4, 1)
      .load(9, 7, 0)      // p[i]
      .load(11, 7, 128)   // p[i+128]
      .fsub(9, 11, 9)     // dp
      .fadd(8, 8, 9)
      .fmul(8, 8, 10)
      .fadd(6, 6, 8)
      .store(5, 0, 6)     // u[i] updated in place
      .addi(1, 1, 1)
      .blt(1, 12, "loop")
      .loadi(1, 0)
      .jmp("loop");

  Benchmark bench;
  bench.name = "swim";
  bench.program = b.build();
  bench.initialize = [](Machine& m) {
    Rng rng(0x5717u);
    constexpr std::uint32_t kN = 128 * 128;
    for (std::uint32_t i = 0; i < kN; ++i) {
      const double x = static_cast<double>(i % 128);
      const double y = static_cast<double>(i / 128);
      const double wave = std::sin(0.10 * x + 0.07 * y);
      m.set_mem(kSwimBase + i, fbits(static_cast<float>(10.0 + wave)));            // u
      m.set_mem(kSwimBase + kN + i,
                fbits(static_cast<float>(2.0 * std::cos(0.08 * x) +
                                         0.1 * rng.next_double())));               // v
      m.set_mem(kSwimBase + 2 * kN + i,
                fbits(static_cast<float>(100.0 + 5.0 * wave + rng.next_double())));// p
    }
    m.set_reg(1, 0);
    m.set_reg(2, kSwimBase);
    m.set_reg(3, kSwimBase + kN);
    m.set_reg(4, kSwimBase + 2 * kN);
    m.set_reg(10, fbits(0.01f));
    m.set_reg(12, kN - 129);
  };
  return bench;
}

// =========================================================================
// mcf: network-simplex pointer chasing over arc records (small integers).
// Arc: [next_index, cost, flow, capacity]
// =========================================================================
Benchmark make_mcf() {
  ProgramBuilder b("mcf");
  // r1 = arc index, r2 = base, r7 = cost accumulator, r8 = flow accumulator.
  b.label("loop")
      .shli(3, 1, 2)
      .add(3, 3, 2)
      .load(4, 3, 0)   // next index (0..8191)
      .load(5, 3, 1)   // cost (0..1000)
      .add(7, 7, 5)
      .load(6, 3, 2)   // flow (0..100)
      .add(8, 8, 6)
      .mov(1, 4)
      .jmp("loop");

  Benchmark bench;
  bench.name = "mcf";
  bench.program = b.build();
  bench.initialize = [](Machine& m) {
    Rng rng(0x3cfc0u);
    constexpr std::uint32_t kArcs = 8192;
    for (std::uint32_t i = 0; i < kArcs; ++i) {
      const std::uint32_t addr = kArcBase + i * 4;
      // The basis-tree walk sweeps arcs mostly in storage order (index
      // values increment: very low toggle), with occasional rebalancing
      // jumps; costs/flows cluster in a narrow band (residual arcs in mcf
      // largely carry unit costs). The loaded words are low entropy, which
      // is what puts mcf near the top of Table 1.
      const bool jump = (i % 512) == 511;
      const std::uint32_t next =
          jump ? static_cast<std::uint32_t>(rng.next_below(kArcs)) : (i + 1) % kArcs;
      m.set_mem(addr + 0, next);
      m.set_mem(addr + 1, 64 + (i & 3));  // near-constant unit costs
      m.set_mem(addr + 2, i & 1);
      m.set_mem(addr + 3, 96);
    }
    m.set_reg(1, 0);
    m.set_reg(2, kArcBase);
  };
  return bench;
}

// =========================================================================
// mesa: rasteriser inner loop; uniforms reloaded every pixel (the bus
// mostly carries repeated words -> the quietest benchmark).
// =========================================================================
Benchmark make_mesa() {
  ProgramBuilder b("mesa");
  // r1 = pixel x (slowly increasing), r2 = uniform base, r9 = frame buffer.
  b.label("loop")
      .load(3, 2, 0)   // uniform: color scale  (identical every iteration)
      .load(4, 2, 1)   // uniform: z offset
      .load(5, 2, 2)   // uniform: texture base
      .mul(6, 1, 3)
      .add(6, 6, 4)
      .shri(6, 6, 8)
      .andi(7, 1, 255)
      .add(8, 5, 7)
      .load(8, 8, 0)   // texel (slow gradient)
      .add(6, 6, 8)
      .add(10, 9, 7)
      .store(10, 0, 6)
      .addi(1, 1, 1)
      .jmp("loop");

  Benchmark bench;
  bench.name = "mesa";
  bench.program = b.build();
  bench.initialize = [](Machine& m) {
    m.set_mem(kUniformBase + 0, 0x00000100u);  // color scale
    m.set_mem(kUniformBase + 1, 0x00001000u);  // z offset
    m.set_mem(kUniformBase + 2, kUniformBase + 16);
    // Texture: smooth 8-bit gradient (adjacent texels differ slightly).
    for (std::uint32_t i = 0; i < 256; ++i)
      m.set_mem(kUniformBase + 16 + i, 0x80u + ((i * 3) & 0x3fu));
    m.set_reg(1, 0);
    m.set_reg(2, kUniformBase);
    m.set_reg(9, kUniformBase + 0x1000);
  };
  return bench;
}

// =========================================================================
// vpr: simulated-annealing placement swaps over packed 16-bit coordinates.
// =========================================================================
Benchmark make_vpr() {
  ProgramBuilder b("vpr");
  // r1 = LCG state, r2 = cell base, r9 = cost table base, r7 = cost accum.
  b.label("loop")
      .muli(1, 1, 1664525)
      .addi(1, 1, 1013904223)
      .shri(3, 1, 18)
      .andi(3, 3, 4095)
      .add(4, 2, 3)
      .load(5, 4, 0)    // cell A coords (x<<8|y)
      .xori(6, 3, 2047)
      .add(6, 2, 6)
      .load(7, 6, 0)    // cell B coords
      .xor_(8, 5, 7)
      .andi(8, 8, 255)
      .add(10, 9, 8)
      .load(11, 10, 0)  // wiring cost (small int)
      .add(12, 12, 11)
      .bne(11, 0, "no_swap")
      .store(4, 0, 7)   // accept swap
      .store(6, 0, 5)
      .label("no_swap")
      .jmp("loop");

  Benchmark bench;
  bench.name = "vpr";
  bench.program = b.build();
  bench.initialize = [](Machine& m) {
    Rng rng(0x879e6u);
    for (std::uint32_t i = 0; i < 4096; ++i) {
      const std::uint32_t x = static_cast<std::uint32_t>(rng.next_below(64));
      const std::uint32_t y = static_cast<std::uint32_t>(rng.next_below(64));
      m.set_mem(kCellBase + i, (x << 8) | y);
    }
    for (std::uint32_t i = 0; i < 256; ++i)
      m.set_mem(kCellBase + 0x1000 + i, static_cast<std::uint32_t>(rng.next_below(32)));
    m.set_reg(1, 777);
    m.set_reg(2, kCellBase);
    m.set_reg(9, kCellBase + 0x1000);
  };
  return bench;
}

// =========================================================================
// applu: 5x5 block LU-style elimination sweeps over dense FP blocks.
// =========================================================================
Benchmark make_applu() {
  ProgramBuilder b("applu");
  // r1 = element index, r2 = block array base, r10 = relaxation factor,
  // r12 = wrap limit.
  b.label("loop")
      .add(3, 2, 1)
      .load(4, 3, 0)     // a[i]
      .load(5, 3, 5)     // a[i+5] (next block row)
      .load(6, 3, 1)     // a[i+1]
      .fdiv(7, 5, 4)     // multiplier = row2/pivot
      .fmul(7, 7, 6)
      .load(8, 3, 6)     // a[i+6]
      .fsub(8, 8, 7)     // eliminate
      .fmul(8, 8, 10)    // relax
      .store(3, 6, 8)
      .addi(1, 1, 1)
      .blt(1, 12, "loop")
      .loadi(1, 0)
      .jmp("loop");

  Benchmark bench;
  bench.name = "applu";
  bench.program = b.build();
  bench.initialize = [](Machine& m) {
    Rng rng(0xa991au);
    for (std::uint32_t i = 0; i < 512 * 25; ++i)
      m.set_mem(kBlockBase + i,
                fbits(static_cast<float>(1.0 + rng.next_double())));  // [1, 2)
    m.set_reg(1, 0);
    m.set_reg(2, kBlockBase);
    m.set_reg(10, fbits(0.9f));
    m.set_reg(12, 512 * 25 - 7);
  };
  return bench;
}

// =========================================================================
// gap: permutation composition over small-integer arrays, r = q o p.
// =========================================================================
Benchmark make_gap() {
  ProgramBuilder b("gap");
  // r1 = index, r2 = p base, r3 = q base, r9 = r base, r12 = size.
  b.label("loop")
      .add(4, 2, 1)
      .load(5, 4, 0)    // p[i] (0..4095)
      .add(6, 3, 5)
      .load(7, 6, 0)    // q[p[i]]
      .add(8, 9, 1)
      .store(8, 0, 7)
      .add(10, 10, 7)   // order accumulator
      .addi(1, 1, 1)
      .blt(1, 12, "loop")
      .loadi(1, 0)
      .jmp("loop");

  Benchmark bench;
  bench.name = "gap";
  bench.program = b.build();
  bench.initialize = [](Machine& m) {
    Rng rng(0x9a6u);
    constexpr std::uint32_t kN = 4096;
    // Group-theory permutations are highly structured (products of cyclic
    // generators), not uniform shuffles: mostly rotations with sparse local
    // swaps, so the loaded values step smoothly (low bus entropy).
    auto structured_perm_into = [&](std::uint32_t base, std::uint32_t rotation) {
      std::vector<std::uint32_t> v(kN);
      for (std::uint32_t i = 0; i < kN; ++i) v[i] = (i + rotation) % kN;
      for (std::uint32_t s = 0; s < kN / 64; ++s) {
        const auto i = static_cast<std::uint32_t>(rng.next_below(kN - 1));
        std::swap(v[i], v[i + 1]);
      }
      for (std::uint32_t i = 0; i < kN; ++i) m.set_mem(base + i, v[i]);
    };
    structured_perm_into(kPermBase, 17);
    // Second table: cycle-index bookkeeping (value = position within a
    // 64-element orbit). Loading p[i] then q[p[i]] therefore transitions
    // from a counter-like word to its own low bits: the high bits all fall
    // together, which is the benign same-direction switching pattern.
    for (std::uint32_t i = 0; i < kN; ++i) m.set_mem(kPermBase + kN + i, i & 63);
    m.set_reg(1, 0);
    m.set_reg(2, kPermBase);
    m.set_reg(3, kPermBase + kN);
    m.set_reg(9, kPermBase + 2 * kN);
    m.set_reg(12, kN);
  };
  return bench;
}

// =========================================================================
// wupwise: complex matrix-vector inner products (interleaved re/im floats).
// =========================================================================
Benchmark make_wupwise() {
  ProgramBuilder b("wupwise");
  // r1 = index, r2 = matrix base, r3 = vector base, r12 = wrap limit.
  b.label("loop")
      .add(4, 2, 1)
      .load(5, 4, 0)    // a.re
      .load(6, 4, 1)    // a.im
      .andi(7, 1, 510)
      .add(7, 3, 7)
      .load(8, 7, 0)    // x.re
      .load(9, 7, 1)    // x.im
      .fmul(10, 5, 8)   // re*re
      .fmul(11, 6, 9)   // im*im
      .fsub(10, 10, 11) // real part
      .fmul(11, 5, 9)
      .fmul(13, 6, 8)
      .fadd(11, 11, 13) // imag part
      .fadd(14, 14, 10)
      .fadd(15, 15, 11)
      .addi(1, 1, 2)
      .blt(1, 12, "loop")
      .loadi(1, 0)
      .jmp("loop");

  Benchmark bench;
  bench.name = "wupwise";
  bench.program = b.build();
  bench.initialize = [](Machine& m) {
    Rng rng(0x3b93eu);
    for (std::uint32_t i = 0; i < 32768; ++i)
      m.set_mem(kCplxBase + i,
                fbits(static_cast<float>(rng.normal(0.0, 1.0))));
    for (std::uint32_t i = 0; i < 512; ++i)
      m.set_mem(kCplxBase + 0x10000 + i,
                fbits(static_cast<float>(rng.normal(0.0, 1.0))));
    m.set_reg(1, 0);
    m.set_reg(2, kCplxBase);
    m.set_reg(3, kCplxBase + 0x10000);
    m.set_reg(12, 32766);
  };
  return bench;
}

// Executes a benchmark kernel block by block through capture_bus_trace's
// loop (capture_bus_words: a LOAD drives its data word, anything else
// holds, an early halt truncates), with the (machine, held word, cycles
// left) triple carried across blocks. The machine image (4 MiB at the
// default memory size) is built on the first next_block and dropped once
// the stream ends (its cycles are spent or the kernel halted), so a suite
// of queued or cloned sources holds at most the one machine being drained.
// Cloning starts a fresh replay of the identical deterministic instruction
// stream.
class BenchmarkTraceSource final : public trace::TraceSource {
 public:
  BenchmarkTraceSource(Benchmark bench, std::size_t cycles, std::size_t memory_words)
      : bench_(std::move(bench)),
        memory_words_(memory_words),
        cycles_(cycles),
        remaining_(cycles) {}

  std::size_t next_block(BusWord* dst, std::size_t max) override {
    if (remaining_ == 0) return 0;
    if (!machine_) machine_.emplace(bench_.make_machine(memory_words_));
    const std::size_t written =
        capture_bus_words(*machine_, dst, std::min(max, remaining_), bus_word_);
    remaining_ -= written;
    if (machine_->halted()) remaining_ = 0;  // an early halt ends the stream
    if (remaining_ == 0) machine_.reset();
    return written;
  }

  int n_bits() const override { return 32; }
  const std::string& name() const override { return bench_.name; }
  // The cycle budget: an upper bound, as an early halt ends the stream sooner.
  std::optional<std::uint64_t> length() const override { return cycles_; }
  std::unique_ptr<trace::TraceSource> clone() const override {
    return std::make_unique<BenchmarkTraceSource>(bench_, cycles_, memory_words_);
  }

 private:
  Benchmark bench_;
  std::size_t memory_words_;
  std::size_t cycles_;
  std::size_t remaining_;  // 0 once the stream has ended
  std::optional<Machine> machine_;  // live between the first block and the end
  std::uint32_t bus_word_ = 0;
};

}  // namespace

Machine Benchmark::make_machine(std::size_t memory_words) const {
  Machine m(program, memory_words);
  if (initialize) initialize(m);
  return m;
}

trace::Trace Benchmark::capture(std::size_t cycles, std::size_t memory_words) const {
  Machine m = make_machine(memory_words);
  return capture_bus_trace(m, cycles, name);
}

std::unique_ptr<trace::TraceSource> Benchmark::stream(std::size_t cycles,
                                                      std::size_t memory_words) const {
  return std::make_unique<BenchmarkTraceSource>(*this, cycles, memory_words);
}

std::vector<Benchmark> spec2000_suite() {
  std::vector<Benchmark> suite;
  suite.push_back(make_crafty());
  suite.push_back(make_vortex());
  suite.push_back(make_mgrid());
  suite.push_back(make_swim());
  suite.push_back(make_mcf());
  suite.push_back(make_mesa());
  suite.push_back(make_vpr());
  suite.push_back(make_applu());
  suite.push_back(make_gap());
  suite.push_back(make_wupwise());
  return suite;
}

Benchmark benchmark_by_name(const std::string& name) {
  for (auto& bench : spec2000_suite())
    if (bench.name == name) return bench;
  throw std::invalid_argument("unknown benchmark: " + name);
}

}  // namespace razorbus::cpu

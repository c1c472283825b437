#include "cpu/machine.hpp"

#include "util/bits.hpp"
#include <cmath>
#include <stdexcept>

namespace razorbus::cpu {

namespace {

float as_float(std::uint32_t bits) { return razorbus::bit_cast<float>(bits); }
std::uint32_t as_bits(float value) { return razorbus::bit_cast<std::uint32_t>(value); }

}  // namespace

Machine::Machine(Program program, std::size_t memory_words)
    : program_(std::move(program)), memory_(memory_words, 0) {
  if (memory_words == 0 || (memory_words & (memory_words - 1)) != 0)
    throw std::invalid_argument("Machine: memory size must be a power of two");
  if (program_.code.empty()) throw std::invalid_argument("Machine: empty program");
  addr_mask_ = static_cast<std::uint32_t>(memory_words - 1);
}

bool Machine::step(std::uint32_t& load_data) {
  if (halted_) return false;
  if (pc_ >= program_.code.size()) {
    halted_ = true;
    return false;
  }
  const Instruction& in = program_.code[pc_];
  std::uint64_t next_pc = pc_ + 1;
  bool is_load_instr = false;

  const std::uint32_t a = regs_[in.ra];
  const std::uint32_t b = regs_[in.rb];
  auto& d = regs_[in.rd];
  const auto imm32 = static_cast<std::uint32_t>(in.imm);

  switch (in.op) {
    case Opcode::halt: halted_ = true; return false;
    case Opcode::nop: break;
    case Opcode::loadi: d = imm32; break;
    case Opcode::mov: d = a; break;
    case Opcode::add: d = a + b; break;
    case Opcode::sub: d = a - b; break;
    case Opcode::mul: d = a * b; break;
    case Opcode::divu: d = b ? a / b : 0; break;
    case Opcode::and_: d = a & b; break;
    case Opcode::or_: d = a | b; break;
    case Opcode::xor_: d = a ^ b; break;
    case Opcode::shl: d = a << (b & 31u); break;
    case Opcode::shr: d = a >> (b & 31u); break;
    case Opcode::sra: d = static_cast<std::uint32_t>(static_cast<std::int32_t>(a) >>
                                                     (b & 31u)); break;
    case Opcode::addi: d = a + imm32; break;
    case Opcode::muli: d = a * imm32; break;
    case Opcode::andi: d = a & imm32; break;
    case Opcode::ori: d = a | imm32; break;
    case Opcode::xori: d = a ^ imm32; break;
    case Opcode::shli: d = a << (imm32 & 31u); break;
    case Opcode::shri: d = a >> (imm32 & 31u); break;
    case Opcode::popcnt: d = static_cast<std::uint32_t>(razorbus::popcount32(a)); break;
    case Opcode::load: {
      const std::uint32_t addr = (a + imm32) & addr_mask_;
      d = memory_[addr];
      load_data = d;
      is_load_instr = true;
      break;
    }
    case Opcode::store: {
      const std::uint32_t addr = (a + imm32) & addr_mask_;
      memory_[addr] = b;
      break;
    }
    case Opcode::beq: if (a == b) next_pc = static_cast<std::uint64_t>(in.imm); break;
    case Opcode::bne: if (a != b) next_pc = static_cast<std::uint64_t>(in.imm); break;
    case Opcode::blt:
      if (static_cast<std::int32_t>(a) < static_cast<std::int32_t>(b))
        next_pc = static_cast<std::uint64_t>(in.imm);
      break;
    case Opcode::bge:
      if (static_cast<std::int32_t>(a) >= static_cast<std::int32_t>(b))
        next_pc = static_cast<std::uint64_t>(in.imm);
      break;
    case Opcode::bltu: if (a < b) next_pc = static_cast<std::uint64_t>(in.imm); break;
    case Opcode::jmp: next_pc = static_cast<std::uint64_t>(in.imm); break;
    case Opcode::fadd: d = as_bits(as_float(a) + as_float(b)); break;
    case Opcode::fsub: d = as_bits(as_float(a) - as_float(b)); break;
    case Opcode::fmul: d = as_bits(as_float(a) * as_float(b)); break;
    case Opcode::fdiv: {
      const float fb = as_float(b);
      // razorlint: allow(float-eq): architectural divide-by-zero guard — the
      // ISA defines x/±0.0 as exactly 0.0, so the test must be exact IEEE.
      d = as_bits(fb == 0.0f ? 0.0f : as_float(a) / fb);
      break;
    }
    case Opcode::itof:
      d = as_bits(static_cast<float>(static_cast<std::int32_t>(a)));
      break;
    case Opcode::ftoi: {
      const float f = as_float(a);
      d = std::isfinite(f) ? static_cast<std::uint32_t>(static_cast<std::int32_t>(f)) : 0;
      break;
    }
  }

  pc_ = next_pc;
  ++executed_;
  return is_load_instr;
}

std::uint64_t Machine::run(std::uint64_t max_instructions,
                           const std::function<void(std::uint32_t)>& on_load) {
  std::uint64_t count = 0;
  std::uint32_t data = 0;
  while (count < max_instructions && !halted_) {
    const std::uint64_t before = executed_;
    const bool loaded = step(data);
    if (executed_ == before) break;  // halted without executing
    ++count;
    if (loaded && on_load) on_load(data);
  }
  return count;
}

trace::Trace capture_bus_trace(Machine& machine, std::size_t cycles,
                               const std::string& trace_name) {
  trace::Trace out;
  out.name = trace_name;
  out.words.resize(cycles);
  std::uint32_t bus_word = 0;
  out.words.resize(capture_bus_words(machine, out.words.data(), cycles, bus_word));
  return out;
}

std::size_t capture_bus_words(Machine& machine, BusWord* dst, std::size_t cycles,
                              std::uint32_t& bus_word) {
  std::size_t written = 0;
  std::uint32_t data = 0;
  while (written < cycles && !machine.halted()) {
    const std::uint64_t before = machine.instructions_executed();
    const bool loaded = machine.step(data);
    if (machine.instructions_executed() == before) break;  // halted on entry
    if (loaded) bus_word = data;
    dst[written++] = BusWord(bus_word);
  }
  return written;
}

}  // namespace razorbus::cpu

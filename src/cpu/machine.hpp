// Functional simulator (the sim-safe substitute).
//
// Executes one instruction per call; every LOAD reports its data word —
// that word is what travels over the memory read bus to the execution
// core. Memory is word-addressed and wraps at its (power-of-two) size, so
// benchmark kernels cannot fault.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <vector>

#include "cpu/program.hpp"
#include "trace/trace.hpp"

namespace razorbus::cpu {

class Machine {
 public:
  // `memory_words` must be a power of two (default 1 Mi words = 4 MiB).
  explicit Machine(Program program, std::size_t memory_words = 1u << 20);

  // State accessors.
  std::uint32_t reg(int index) const { return regs_.at(static_cast<std::size_t>(index)); }
  void set_reg(int index, std::uint32_t value) {
    regs_.at(static_cast<std::size_t>(index)) = value;
  }
  std::uint32_t mem(std::uint32_t addr) const { return memory_[addr & addr_mask_]; }
  void set_mem(std::uint32_t addr, std::uint32_t value) {
    memory_[addr & addr_mask_] = value;
  }
  std::size_t memory_words() const { return memory_.size(); }
  std::uint64_t pc() const { return pc_; }
  bool halted() const { return halted_; }
  std::uint64_t instructions_executed() const { return executed_; }
  const Program& program() const { return program_; }

  // Execute one instruction. Returns true and sets `load_data` when the
  // instruction was a LOAD (false otherwise). No-op once halted.
  bool step(std::uint32_t& load_data);

  // Run up to `max_instructions` (or until HALT); calls `on_load` for each
  // load's data word. Returns the number of instructions executed.
  std::uint64_t run(std::uint64_t max_instructions,
                    const std::function<void(std::uint32_t)>& on_load = {});

 private:
  Program program_;
  std::vector<std::uint32_t> memory_;
  std::uint32_t addr_mask_;
  std::array<std::uint32_t, kRegisterCount> regs_{};
  std::uint64_t pc_ = 0;
  std::uint64_t executed_ = 0;
  bool halted_ = false;
};

// Run `program` for `cycles` instructions and capture the per-cycle memory
// read bus trace: a LOAD drives its data word, any other instruction leaves
// the bus holding the previous word (IPC = 1). If the program halts early
// the trace is truncated to the executed length.
trace::Trace capture_bus_trace(Machine& machine, std::size_t cycles,
                               const std::string& trace_name);

// The one capture loop, behind capture_bus_trace and Benchmark::stream:
// writes up to `cycles` bus words into `dst` under the rules above and
// returns how many it wrote (fewer only when the machine halts).
// `bus_word` is the held word, carried in and out so a caller can capture
// block by block.
std::size_t capture_bus_words(Machine& machine, BusWord* dst, std::size_t cycles,
                              std::uint32_t& bus_word);

}  // namespace razorbus::cpu

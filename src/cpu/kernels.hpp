// Benchmark kernels: SPEC2000 substitutes.
//
// The paper traces the memory read bus for 10 SPEC2000 benchmarks. We
// provide 10 kernels for the mini-ISA whose LOAD data streams mimic each
// benchmark's character on the bus:
//
//   crafty   - chess bitboards: sparse mask words, popcounts       (low activity)
//   vortex   - OO database: records with mixed-entropy fields      (medium)
//   mgrid    - 3D multigrid stencil: smooth FP field               (high, FP)
//   swim     - shallow-water 2D sweeps over FP arrays              (high, FP)
//   mcf      - network simplex: pointer/index chasing, small ints  (low)
//   mesa     - rasteriser inner loop: uniform constants reloaded   (lowest)
//   vpr      - placement swaps: packed 16-bit coordinates          (medium-low)
//   applu    - dense 5x5 block LU sweeps: dense FP                 (high, FP)
//   gap      - permutation group composition: small ints           (low-medium)
//   wupwise  - complex matrix-vector products: dense FP pairs      (high, FP)
//
// What matters for the experiments is the per-program DIVERSITY of
// switching activity and worst-pattern frequency, which is exactly what
// distinguishes the paper's benchmarks (Fig. 6: crafty runs at 900 mV
// where mgrid cannot drop below 980 mV).
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "cpu/machine.hpp"
#include "cpu/program.hpp"
#include "trace/source.hpp"
#include "trace/trace.hpp"

namespace razorbus::cpu {

struct Benchmark {
  std::string name;
  Program program;
  // Fills memory and seeds registers before execution.
  std::function<void(Machine&)> initialize;

  // Fresh machine ready to run.
  Machine make_machine(std::size_t memory_words = 1u << 20) const;
  // Convenience: run and capture `cycles` of memory-read-bus trace.
  trace::Trace capture(std::size_t cycles, std::size_t memory_words = 1u << 20) const;
  // Streaming capture (DESIGN.md §12): executes the kernel ON DEMAND, one
  // block of bus cycles at a time, instead of materializing the trace —
  // the word sequence is identical to capture(cycles) (same hold-last-word
  // semantics, same early-halt truncation), but the resident memory is the
  // machine image plus the consumer's block buffer, independent of
  // `cycles`. `length()` reports `cycles`, an upper bound (a kernel may
  // halt early); `clone()` restarts execution from a fresh machine.
  std::unique_ptr<trace::TraceSource> stream(
      std::size_t cycles, std::size_t memory_words = 1u << 20) const;
};

// All 10 benchmarks in the paper's Table 1 order:
// crafty, vortex, mgrid, swim, mcf, mesa, vpr, applu, gap, wupwise.
std::vector<Benchmark> spec2000_suite();

// Lookup a single benchmark by name; throws std::invalid_argument.
Benchmark benchmark_by_name(const std::string& name);

}  // namespace razorbus::cpu

// Fused row kernels for the multi-operating-point engine.
//
// The multi-point hot loop (bus::MultiPointEngine, DESIGN.md §13) keeps its
// per-point accumulators and combo-table rows structure-of-arrays: one slot
// per operating point, rows padded to a multiple of 4 points. Its whole
// per-cycle work is one of two shapes, and each is one kernel call here:
//
//   * table_cycle: a non-idle cycle on which every point takes the
//     zero-jitter table path. It reduces the cycle's G combo rows (one per
//     shield group) and folds the result into the accumulator rows.
//   * idle_cycles: a run of k words equal to the previous one. Nothing
//     switches, so each point accrues leakage and the flop overhead k times.
//
// Both kernels walk the rows 4 points at a time and keep a chunk's sums and
// mask bytes in registers across all groups (or all k cycles).
//
//   * Compile-time gate: configure with -DRAZORBUS_SIMD=OFF (the CMake
//     option defines RAZORBUS_SIMD_DISABLED) and the build has no
//     intrinsics at all: every host runs the portable body.
//   * Runtime dispatch: with the gate on, the backend is chosen once per
//     process: AVX2 on x86-64 when the CPU reports it (compiled with a
//     function-level target attribute, so the baseline build stays
//     generic), the portable body otherwise (aarch64 included).
//
// Bit-identity contract: per point, every backend performs exactly the
// IEEE-754 double sequence of the single-point engine (BusSimulator::run):
// the dynamic energy `0.0 + e_g0 + e_g1 + ...` in group order, one
// `bus_energy += dynamic + leak`, and one `overhead += cycle overhead` (the
// error variant when some group errs). An idle run is k sequential adds of
// `leak` and of the cycle overhead, never `k * leak`. No FMA, no
// reassociation, no horizontal reduction, so switching backends never
// changes a result bit, and the multi-point parity suite can demand exact
// equality against the per-point engine on any host.
#pragma once

#include <cstddef>
#include <cstdint>

namespace razorbus::simd {

// Points per kernel chunk: row strides must be a multiple of this.
inline constexpr std::size_t kChunk = 4;

// The engine's rows as the kernels see them. Every row holds `stride`
// slots; the combo rows hold one `stride`-wide row per (group table
// offset, prev, cur) combination (bus::detail::PointTables).
struct Rows {
  std::size_t stride = 0;  // a multiple of kChunk
  // Accumulators, [stride] each.
  double* bus_energy = nullptr;
  double* overhead_energy = nullptr;
  std::uint64_t* errors = nullptr;
  std::uint64_t* shadow_failures = nullptr;
  // Operating tables.
  const double* leak = nullptr;                // [stride]
  const double* combo_energy = nullptr;        // [combo][stride]
  const std::uint8_t* combo_error = nullptr;   // [combo][stride]
  const std::uint8_t* combo_shadow = nullptr;  // [combo][stride]
  double cycle_overhead = 0.0;
  double cycle_error_overhead = 0.0;  // cycle + error overhead, pre-added
};

// Name of the active backend: "avx2" or "portable".
const char* backend_name();

// One all-points table cycle. `offsets[g]` is group g's combo row times
// the stride, for g < n_groups. Per point: dynamic = 0.0 + energy[g0] +
// energy[g1] + ...; bus_energy += dynamic + leak; an error (shadow) count
// when any group's error (shadow) byte is nonzero; overhead_energy +=
// cycle_error_overhead on an error, cycle_overhead otherwise.
void table_cycle(const Rows& rows, const std::size_t* offsets, std::size_t n_groups);

// `k` idle cycles: per point, k times in order, bus_energy += leak and
// overhead_energy += cycle_overhead.
void idle_cycles(const Rows& rows, std::uint64_t k);

}  // namespace razorbus::simd

#include "util/simd.hpp"

#include <cstring>

// Backend selection (see simd.hpp). The AVX2 bodies live behind
// function-level target attributes so the translation unit compiles with
// the project's generic flags; the dispatcher picks a table of function
// pointers once, at first use.

#if !defined(RAZORBUS_SIMD_DISABLED) && defined(__x86_64__) && \
    (defined(__GNUC__) || defined(__clang__))
#define RAZORBUS_SIMD_X86 1
#include <immintrin.h>
#endif

namespace razorbus::simd {

namespace {

// ----------------------------------------------------------- portable

void portable_table_cycle(const Rows& r, const std::size_t* offsets,
                          std::size_t n_groups) {
  for (std::size_t i = 0; i < r.stride; i += kChunk) {
    double dyn[kChunk] = {0.0, 0.0, 0.0, 0.0};
    std::uint8_t err[kChunk] = {};
    std::uint8_t shadow[kChunk] = {};
    for (std::size_t g = 0; g < n_groups; ++g) {
      const std::size_t at = offsets[g] + i;
      for (std::size_t l = 0; l < kChunk; ++l) {
        dyn[l] += r.combo_energy[at + l];
        err[l] |= r.combo_error[at + l];
        shadow[l] |= r.combo_shadow[at + l];
      }
    }
    for (std::size_t l = 0; l < kChunk; ++l) {
      const std::size_t p = i + l;
      r.bus_energy[p] += dyn[l] + r.leak[p];
      r.errors[p] += err[l] != 0 ? 1u : 0u;
      r.shadow_failures[p] += shadow[l] != 0 ? 1u : 0u;
      r.overhead_energy[p] += err[l] != 0 ? r.cycle_error_overhead : r.cycle_overhead;
    }
  }
}

void portable_idle_cycles(const Rows& r, std::uint64_t k) {
  for (std::size_t i = 0; i < r.stride; i += kChunk) {
    double bus[kChunk];
    double ovh[kChunk];
    for (std::size_t l = 0; l < kChunk; ++l) {
      bus[l] = r.bus_energy[i + l];
      ovh[l] = r.overhead_energy[i + l];
    }
    for (std::uint64_t c = 0; c < k; ++c) {
      for (std::size_t l = 0; l < kChunk; ++l) {
        bus[l] += r.leak[i + l];
        ovh[l] += r.cycle_overhead;
      }
    }
    for (std::size_t l = 0; l < kChunk; ++l) {
      r.bus_energy[i + l] = bus[l];
      r.overhead_energy[i + l] = ovh[l];
    }
  }
}

// --------------------------------------------------------------- AVX2

#if defined(RAZORBUS_SIMD_X86)

// The four mask bytes of one chunk as one word (little-endian lanes).
inline std::uint32_t chunk_bytes(const std::uint8_t* p) {
  std::uint32_t v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

// All-ones in each 64-bit lane whose byte of `bytes` is nonzero.
__attribute__((target("avx2"))) inline __m256i nonzero_lanes(std::uint32_t bytes) {
  const __m256i wide = _mm256_cvtepu8_epi64(_mm_cvtsi32_si128(static_cast<int>(bytes)));
  return _mm256_cmpgt_epi64(wide, _mm256_setzero_si256());
}

__attribute__((target("avx2"))) void avx2_table_cycle(const Rows& r,
                                                      const std::size_t* offsets,
                                                      std::size_t n_groups) {
  const __m256d cycle = _mm256_set1_pd(r.cycle_overhead);
  const __m256d cycle_error = _mm256_set1_pd(r.cycle_error_overhead);
  for (std::size_t i = 0; i < r.stride; i += kChunk) {
    __m256d dyn = _mm256_setzero_pd();
    std::uint32_t err = 0;
    std::uint32_t shadow = 0;
    for (std::size_t g = 0; g < n_groups; ++g) {
      const std::size_t at = offsets[g] + i;
      dyn = _mm256_add_pd(dyn, _mm256_loadu_pd(r.combo_energy + at));
      err |= chunk_bytes(r.combo_error + at);
      shadow |= chunk_bytes(r.combo_shadow + at);
    }
    const __m256i err_lanes = nonzero_lanes(err);
    double* bus = r.bus_energy + i;
    _mm256_storeu_pd(bus, _mm256_add_pd(_mm256_loadu_pd(bus),
                                        _mm256_add_pd(dyn, _mm256_loadu_pd(r.leak + i))));
    // A set lane is -1: subtracting it counts one.
    auto* errors = reinterpret_cast<__m256i*>(r.errors + i);
    _mm256_storeu_si256(errors, _mm256_sub_epi64(_mm256_loadu_si256(errors), err_lanes));
    auto* shadows = reinterpret_cast<__m256i*>(r.shadow_failures + i);
    const __m256i shadow_lanes = nonzero_lanes(shadow);
    _mm256_storeu_si256(shadows,
                        _mm256_sub_epi64(_mm256_loadu_si256(shadows), shadow_lanes));
    double* ovh = r.overhead_energy + i;
    const __m256d add =
        _mm256_blendv_pd(cycle, cycle_error, _mm256_castsi256_pd(err_lanes));
    _mm256_storeu_pd(ovh, _mm256_add_pd(_mm256_loadu_pd(ovh), add));
  }
}

// `kChunks` chunks from point `i` held in registers for all k cycles, so
// the per-chunk add chains interleave.
template <std::size_t kChunks>
__attribute__((target("avx2"))) inline void avx2_idle_block(const Rows& r, std::size_t i,
                                                            std::uint64_t k) {
  const __m256d cycle = _mm256_set1_pd(r.cycle_overhead);
  __m256d bus[kChunks];
  __m256d ovh[kChunks];
  __m256d leak[kChunks];
  for (std::size_t c = 0; c < kChunks; ++c) {
    bus[c] = _mm256_loadu_pd(r.bus_energy + i + c * kChunk);
    ovh[c] = _mm256_loadu_pd(r.overhead_energy + i + c * kChunk);
    leak[c] = _mm256_loadu_pd(r.leak + i + c * kChunk);
  }
  for (std::uint64_t n = 0; n < k; ++n) {
    for (std::size_t c = 0; c < kChunks; ++c) {
      bus[c] = _mm256_add_pd(bus[c], leak[c]);
      ovh[c] = _mm256_add_pd(ovh[c], cycle);
    }
  }
  for (std::size_t c = 0; c < kChunks; ++c) {
    _mm256_storeu_pd(r.bus_energy + i + c * kChunk, bus[c]);
    _mm256_storeu_pd(r.overhead_energy + i + c * kChunk, ovh[c]);
  }
}

__attribute__((target("avx2"))) void avx2_idle_cycles(const Rows& r, std::uint64_t k) {
  std::size_t i = 0;
  for (; i + 4 * kChunk <= r.stride; i += 4 * kChunk) avx2_idle_block<4>(r, i, k);
  switch ((r.stride - i) / kChunk) {
    case 3:
      avx2_idle_block<3>(r, i, k);
      break;
    case 2:
      avx2_idle_block<2>(r, i, k);
      break;
    case 1:
      avx2_idle_block<1>(r, i, k);
      break;
    default:
      break;
  }
}

#endif  // RAZORBUS_SIMD_X86

// ----------------------------------------------------------- dispatch

struct Backend {
  const char* name;
  void (*table_cycle)(const Rows&, const std::size_t*, std::size_t);
  void (*idle_cycles)(const Rows&, std::uint64_t);
};

Backend select_backend() {
#if defined(RAZORBUS_SIMD_X86)
  if (__builtin_cpu_supports("avx2"))
    return Backend{"avx2", avx2_table_cycle, avx2_idle_cycles};
#endif
  return Backend{"portable", portable_table_cycle, portable_idle_cycles};
}

const Backend& backend() {
  static const Backend selected = select_backend();
  return selected;
}

}  // namespace

const char* backend_name() { return backend().name; }

void table_cycle(const Rows& rows, const std::size_t* offsets, std::size_t n_groups) {
  backend().table_cycle(rows, offsets, n_groups);
}

void idle_cycles(const Rows& rows, std::uint64_t k) { backend().idle_cycles(rows, k); }

}  // namespace razorbus::simd

// Streaming trace pipeline (DESIGN.md §12).
//
// A `Trace` materializes every cycle in RAM (16 bytes per cycle), which
// caps campaign length by memory: a 10^9-cycle consecutive-benchmark run
// would need ~16 GB before the first simulated cycle. `TraceSource` is the
// bounded-memory alternative: a pull-based block iterator over the same
// per-cycle word sequence. Consumers drain it through a fixed-size buffer
// (`kDefaultBlockCycles` words by default), so the resident trace memory of
// a streamed experiment is O(block), independent of campaign length.
//
// Contracts every source maintains:
//
//   * Word semantics are identical to `Trace`: one word per cycle, and a
//     cycle without a new load REPEATS the previous word (the bus holds).
//     Hold cycles are materialized in the stream — consumers never have to
//     ask "was this a hold?"; `word == prev` is the hold test, exactly as
//     on the vector path.
//   * `next_block` may return FEWER than `max` words even before the end
//     (producers flush at internal boundaries, e.g. between concatenated
//     parts); only a return of 0 means the stream is exhausted, and every
//     call after that returns 0.
//   * `n_bits` is fixed for the lifetime of the stream and every word has
//     bits at or above it cleared by the producer that introduced them
//     (mirror of the width rules in trace.hpp).
//   * `clone()` yields an INDEPENDENT stream positioned at the first word
//     producing the identical word sequence — this is what lets sharded
//     drivers (one supply / trace / Monte-Carlo sample per shard,
//     DESIGN.md §9) stream the same input concurrently.
//
// Every producer, adaptor and reader has exactly one implementation, and
// it is the stream: the `Trace` forms are `materialize()` of it (or, where
// the length is unknown up front, callers of its one loop). Producers live
// next to what they stream: synthetic streams in synthetic.hpp
// (`make_synthetic_source`; `generate_synthetic` fills through it),
// mini-CPU benchmark execution in cpu/kernels.hpp (`Benchmark::stream`;
// `Benchmark::capture` runs the same capture loop), RBTRACE1/2 file
// readers in io.hpp (`open_trace_stream`; `load_binary` shares its header
// parser and payload decoder), bus-invert re-coding in bus/businvert.hpp
// (one coder behind the stream and `bus_invert_encode`). This header holds
// the interface plus the generic adaptors, whose `trace::concatenate` and
// `trace::widen` forms materialize them over view sources.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "trace/trace.hpp"

namespace razorbus::trace {

class TraceSource {
 public:
  virtual ~TraceSource() = default;

  // Write up to `max` consecutive words into `dst` and return how many
  // were written. Short (but non-zero) returns are legal mid-stream; 0
  // means exhausted, permanently. `max` must be at least 1.
  virtual std::size_t next_block(BusWord* dst, std::size_t max) = 0;

  // Wire count of every word in the stream (1..BusWord::kMaxBits).
  virtual int n_bits() const = 0;

  // Trace name, used for report keys exactly like Trace::name.
  virtual const std::string& name() const = 0;

  // Total words this stream will produce, when known up front (synthetic
  // budgets, file word counts). Unknown for e.g. halt-dependent CPU
  // streams; consumers must treat it as a hint, never a promise.
  virtual std::optional<std::uint64_t> length() const { return std::nullopt; }

  // Fresh, independent stream over the same word sequence, positioned at
  // the first word. Cloning never disturbs this stream's position.
  virtual std::unique_ptr<TraceSource> clone() const = 0;
};

// Default consumer block size: 64 Ki words = 1 MiB of BusWord buffer. Big
// enough that the per-block bookkeeping vanishes against the cycle kernel,
// small enough that dozens of concurrent shards stay cache- and RAM-cheap.
inline constexpr std::size_t kDefaultBlockCycles = std::size_t{1} << 16;

// Stream over a materialized trace (the golden-reference bridge: parity
// tests stream the exact vector the legacy path indexes). The owning
// factory keeps the trace alive via shared ownership, so clones are
// cheap; the view factory does NOT copy or own — the caller guarantees
// `trace` outlives the source and every clone.
std::unique_ptr<TraceSource> make_trace_source(Trace trace);
std::unique_ptr<TraceSource> make_trace_view_source(const Trace& trace);
// One view source per trace, in order (the Trace-vector driver forwards).
std::vector<std::unique_ptr<TraceSource>> make_trace_view_sources(
    const std::vector<Trace>& traces);

// Back-to-back concatenation (the Fig. 8 consecutive-benchmark stream;
// trace::concatenate materializes it). All parts must share one width —
// mixed widths throw std::invalid_argument. An empty part list yields an
// empty 32-wire stream.
std::unique_ptr<TraceSource> concatenate_sources(
    std::vector<std::unique_ptr<TraceSource>> parts, const std::string& name);

// Packs `factor` consecutive narrow words into one wide word (earliest
// word in the lowest bits), zero-padding the final word when the narrow
// stream ends mid-pack; trace::widen materializes it. Requires
// narrow->n_bits() * factor <= BusWord::kMaxBits.
std::unique_ptr<TraceSource> widen_source(std::unique_ptr<TraceSource> narrow,
                                          int factor);

// Drain a source into a materialized Trace (tests, small captures). This
// re-introduces the O(length) memory cost streaming exists to avoid — use
// it only when the result is known to fit.
Trace materialize(TraceSource& source,
                  std::size_t block_cycles = kDefaultBlockCycles);

}  // namespace razorbus::trace

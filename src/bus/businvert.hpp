// Bus-invert low-power coding (Stan & Burleson), the classic encoding
// baseline the paper cites as orthogonal related work [5].
//
// Each cycle, if transmitting the raw word would toggle more than half the
// wires, the complemented word is sent instead and a dedicated invert line
// is flipped. This bounds the worst-case transition count at n/2 + 1 and
// reduces average switching for random data — at the cost of one extra wire
// and the decode inverters. Implementing it lets the repository quantify
// the paper's orthogonality claim: coding reduces activity (energy at any
// fixed voltage), DVS reduces voltage, and the two compose.
//
// Width-generic: the payload width is the trace's n_bits (16-wire
// peripheral buses through 128-wire flits); the invert decision compares
// against n/2 + 1 at that width and the complement is masked to it.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "trace/source.hpp"
#include "trace/trace.hpp"

namespace razorbus::bus {

struct BusInvertResult {
  // The words physically driven on the payload wires.
  trace::Trace encoded;
  // Per-cycle state of the invert line (decode: payload ^ (invert ? ~0 : 0)).
  std::vector<bool> invert_line;
  // How many cycles chose inversion.
  std::uint64_t inversions = 0;
};

// Encode a trace with bus-invert coding. The first cycle starts from an
// all-zero bus with the invert line low.
BusInvertResult bus_invert_encode(const trace::Trace& raw);

// Streaming re-coder (DESIGN.md §12): wraps a raw word stream and emits
// the words bus_invert_encode drives — both run the one per-word coder,
// with the same "<name>+businvert" naming — one block at a time, carrying
// the (bus state, invert line) pair across blocks. The per-cycle
// invert-line states are not retained (that sidecar accounting stays with
// the materialized encoder and ablation_encoding).
std::unique_ptr<trace::TraceSource> bus_invert_encode_source(
    std::unique_ptr<trace::TraceSource> raw);

// Decode (for verification): reconstructs the original words.
trace::Trace bus_invert_decode(const trace::Trace& encoded,
                               const std::vector<bool>& invert_line);

// Transition-count bookkeeping used by tests and the ablation bench.
std::uint64_t total_toggles(const trace::Trace& trace);
// Toggles of the invert line itself.
std::uint64_t invert_line_toggles(const std::vector<bool>& invert_line);

}  // namespace razorbus::bus

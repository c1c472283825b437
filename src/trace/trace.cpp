#include "trace/trace.hpp"

#include "trace/source.hpp"

namespace razorbus::trace {

TraceStats compute_stats(const Trace& trace) {
  TraceStats stats;
  stats.cycles = trace.cycles();
  if (trace.words.size() < 2) return stats;
  const int n = trace.n_bits;

  std::array<std::uint64_t, BusWord::kMaxBits> bit_toggles{};
  std::uint64_t toggles = 0;
  std::uint64_t active_cycles = 0;
  std::uint64_t worst_pattern_cycles = 0;

  for (std::size_t i = 1; i < trace.words.size(); ++i) {
    const BusWord& prev = trace.words[i - 1];
    const BusWord& cur = trace.words[i];
    const BusWord diff = prev ^ cur;
    if (diff.any()) ++active_cycles;
    toggles += static_cast<std::uint64_t>(diff.popcount());
    for (int b = 0; b < n; ++b)
      if (diff.test(b)) ++bit_toggles[static_cast<std::size_t>(b)];

    // Worst-case pattern: an interior victim rising while both neighbors
    // fall, or vice versa.
    const BusWord rise = ~prev & cur;
    const BusWord fall = prev & ~cur;
    bool worst = false;
    for (int b = 1; b + 1 < n && !worst; ++b) {
      const bool vr = rise.test(b);
      const bool vf = fall.test(b);
      const bool lf = fall.test(b - 1);
      const bool rf = fall.test(b + 1);
      const bool lr = rise.test(b - 1);
      const bool rr = rise.test(b + 1);
      worst = (vr && lf && rf) || (vf && lr && rr);
    }
    if (worst) ++worst_pattern_cycles;
  }

  const auto transitions = static_cast<double>(trace.words.size() - 1);
  stats.toggle_rate =
      static_cast<double>(toggles) / (transitions * static_cast<double>(n));
  stats.active_cycle_rate = static_cast<double>(active_cycles) / transitions;
  stats.worst_pattern_rate = static_cast<double>(worst_pattern_cycles) / transitions;
  for (int b = 0; b < n; ++b)
    stats.per_bit_toggle[static_cast<std::size_t>(b)] =
        static_cast<double>(bit_toggles[static_cast<std::size_t>(b)]) / transitions;
  return stats;
}

// Both forms are materialize() of their streaming adaptors (source.cpp),
// which own the width checks and the word loops.
Trace concatenate(const std::vector<Trace>& traces, const std::string& name) {
  return materialize(*concatenate_sources(make_trace_view_sources(traces), name));
}

Trace widen(const Trace& trace, int factor) {
  return materialize(*widen_source(make_trace_view_source(trace), factor));
}

}  // namespace razorbus::trace

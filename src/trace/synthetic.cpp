#include "trace/synthetic.hpp"

#include <algorithm>
#include <stdexcept>

namespace razorbus::trace {

namespace {

// What every draw of one stream shares, fixed per source.
struct WordShape {
  int n_bits = 0;
  double activity = 0.0;
  BusWord mask;  // BusWord::mask_low(n_bits)
};

// The checkerboard pair, truncated to the bus width.
BusWord checker_word(const WordShape& shape, bool odd) {
  const BusWord pattern =
      BusWord::from_lanes(0x5555555555555555ull, 0x5555555555555555ull);
  return (odd ? pattern << 1 : pattern) & shape.mask;
}

// The next loaded word of style kStyle. Uniform words of n_bits <= 64 are a
// single next_u64 draw (so the 32-bit stream keeps its historical draw
// order); wider words draw the low lane first.
template <SyntheticStyle kStyle>
BusWord next_word(const BusWord& prev, const WordShape& shape, Rng& rng) {
  const int n_bits = shape.n_bits;
  const double activity = shape.activity;
  if constexpr (kStyle == SyntheticStyle::uniform) {
    const std::uint64_t lo = rng.next_u64();
    const std::uint64_t hi = n_bits > 64 ? rng.next_u64() : 0;
    return BusWord::from_lanes(lo, hi) & shape.mask;
  } else if constexpr (kStyle == SyntheticStyle::random_walk) {
    // Flip a binomial number of random bit positions.
    BusWord word = prev;
    const int max_flips = std::max(1, static_cast<int>(n_bits * activity));
    const auto flips = static_cast<int>(
        rng.next_below(static_cast<std::uint64_t>(max_flips)) + 1);
    for (int i = 0; i < flips; ++i)
      word ^= BusWord(1)
              << static_cast<int>(rng.next_below(static_cast<std::uint64_t>(n_bits)));
    return word;
  } else if constexpr (kStyle == SyntheticStyle::fp_like) {
    // IEEE-754 single per 32-bit sub-word: keep sign+exponent in a narrow
    // band, randomize the mantissa (high `activity` = more mantissa
    // entropy). Wider buses tile independent fp words, each drawing its
    // exponent then its mantissa — chunk 0 is the historical 32-bit
    // stream.
    const auto mantissa_bits = static_cast<std::uint32_t>(23.0 * activity);
    const std::uint32_t mantissa_mask = mantissa_bits >= 23 ? 0x7fffffu
                                        : ((1u << mantissa_bits) - 1u);
    BusWord word;
    for (int base = 0; base < n_bits; base += 32) {
      const std::uint32_t exponent =
          0x3f000000u + (static_cast<std::uint32_t>(rng.next_below(8)) << 23);
      const std::uint32_t sub =
          exponent | (static_cast<std::uint32_t>(rng.next_u64()) & mantissa_mask);
      word |= BusWord(sub) << base;
    }
    return word & shape.mask;
  } else if constexpr (kStyle == SyntheticStyle::pointer_like) {
    // 1 MiB heap at a fixed base; word-aligned addresses with locality.
    // On buses wider than 32 the pointer stays in the low 32 bits and a
    // constant "upper address" bit marks the high half (constant bits
    // never toggle, so the switching statistics are width-honest).
    const std::uint32_t base = 0x40000000u;
    const auto span = static_cast<std::uint32_t>(256.0 + activity * (1u << 18));
    const std::uint32_t offset = static_cast<std::uint32_t>(rng.next_below(span)) << 2;
    BusWord word(base + offset);
    if (n_bits > 32) word.set(n_bits - 2);
    // Narrow buses keep only the in-width address bits (the heap-base
    // bit sits above wire 15 on a 16-wire bus).
    return word & shape.mask;
  } else if constexpr (kStyle == SyntheticStyle::sparse) {
    BusWord word;
    const auto set_bits = static_cast<int>(
        1 + rng.next_below(static_cast<std::uint64_t>(std::max(1.0, activity * 6.0))));
    for (int i = 0; i < set_bits; ++i)
      word |= BusWord(1)
              << static_cast<int>(rng.next_below(static_cast<std::uint64_t>(n_bits)));
    return word;
  } else {
    static_assert(kStyle == SyntheticStyle::worst_case);
    return prev == checker_word(shape, false) ? checker_word(shape, true)
                                              : checker_word(shape, false);
  }
}

void check_synthetic_config(const SyntheticConfig& config) {
  // Written as !(in range) so that NaN fails too.
  if (!(config.load_rate >= 0.0 && config.load_rate <= 1.0))
    throw std::invalid_argument("generate_synthetic: load_rate must be in [0,1]");
  if (!(config.activity >= 0.0 && config.activity <= 1.0))
    throw std::invalid_argument("generate_synthetic: activity must be in [0,1]");
  if (config.n_bits <= 0 || config.n_bits > BusWord::kMaxBits)
    throw std::invalid_argument("generate_synthetic: n_bits must be in 1..128");
}

// Streams the generate_synthetic sequence without materializing it: the
// (Rng, previous word) pair IS the whole generator state, so each block is
// the exact continuation of the last (the parity suite diffs streamed
// blocks against the materialized vector word for word).
class SyntheticSource final : public TraceSource {
 public:
  SyntheticSource(const SyntheticConfig& config, std::string name)
      : config_(config), name_(std::move(name)), rng_(config.seed) {
    check_synthetic_config(config_);
    shape_.n_bits = config_.n_bits;
    shape_.activity = config_.activity;
    shape_.mask = BusWord::mask_low(config_.n_bits);
  }

  std::size_t next_block(BusWord* dst, std::size_t max) override {
    const std::size_t n =
        static_cast<std::size_t>(std::min<std::uint64_t>(max, remaining()));
    switch (config_.style) {
      case SyntheticStyle::uniform: fill<SyntheticStyle::uniform>(dst, n); break;
      case SyntheticStyle::random_walk: fill<SyntheticStyle::random_walk>(dst, n); break;
      case SyntheticStyle::fp_like: fill<SyntheticStyle::fp_like>(dst, n); break;
      case SyntheticStyle::pointer_like: fill<SyntheticStyle::pointer_like>(dst, n); break;
      case SyntheticStyle::sparse: fill<SyntheticStyle::sparse>(dst, n); break;
      case SyntheticStyle::worst_case: fill<SyntheticStyle::worst_case>(dst, n); break;
      default: throw std::invalid_argument("generate_synthetic: unknown style");
    }
    produced_ += n;
    return n;
  }

  int n_bits() const override { return config_.n_bits; }
  const std::string& name() const override { return name_; }
  std::optional<std::uint64_t> length() const override { return config_.cycles; }
  std::unique_ptr<TraceSource> clone() const override {
    return std::make_unique<SyntheticSource>(config_, name_);
  }

 private:
  std::uint64_t remaining() const { return config_.cycles - produced_; }

  // One block of one style: the style is picked once per block, not per word.
  template <SyntheticStyle kStyle>
  void fill(BusWord* dst, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      if (rng_.bernoulli(config_.load_rate)) word_ = next_word<kStyle>(word_, shape_, rng_);
      dst[i] = word_;
    }
  }

  SyntheticConfig config_;
  std::string name_;
  Rng rng_;
  WordShape shape_;
  BusWord word_;
  std::uint64_t produced_ = 0;
};

}  // namespace

Trace generate_synthetic(const SyntheticConfig& config, const std::string& name) {
  SyntheticSource source(config, name);
  Trace out;
  out.name = name;
  out.n_bits = config.n_bits;
  out.words.resize(config.cycles);
  source.next_block(out.words.data(), out.words.size());
  return out;
}

std::unique_ptr<TraceSource> make_synthetic_source(const SyntheticConfig& config,
                                                   const std::string& name) {
  return std::make_unique<SyntheticSource>(config, name);
}

std::string to_string(SyntheticStyle style) {
  switch (style) {
    case SyntheticStyle::uniform: return "uniform";
    case SyntheticStyle::random_walk: return "random_walk";
    case SyntheticStyle::fp_like: return "fp_like";
    case SyntheticStyle::pointer_like: return "pointer_like";
    case SyntheticStyle::sparse: return "sparse";
    case SyntheticStyle::worst_case: return "worst_case";
  }
  throw std::invalid_argument("to_string: unknown SyntheticStyle");
}

SyntheticStyle synthetic_style_from_string(const std::string& name) {
  for (const SyntheticStyle style :
       {SyntheticStyle::uniform, SyntheticStyle::random_walk, SyntheticStyle::fp_like,
        SyntheticStyle::pointer_like, SyntheticStyle::sparse, SyntheticStyle::worst_case})
    if (to_string(style) == name) return style;
  throw std::invalid_argument("unknown synthetic trace style '" + name +
                              "' (expected uniform, random_walk, fp_like, pointer_like, "
                              "sparse or worst_case)");
}

}  // namespace razorbus::trace

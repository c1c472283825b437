#include "bus/businvert.hpp"

#include <stdexcept>
#include <utility>

namespace razorbus::bus {

namespace {

// The per-word bus-invert decision, written once for the stream and the
// materialized encoder: carries the (bus state, invert line) pair from one
// word to the next, starting from an all-zero bus with the line low.
struct BusInvertCoder {
  explicit BusInvertCoder(int n_bits) : mask(BusWord::mask_low(n_bits)) {}

  BusWord mask;
  BusWord bus;          // the word physically driven
  bool invert = false;  // the invert line's state

  // Drives `word` and returns true when that flipped the invert line.
  bool drive(const BusWord& word) {
    const BusWord direct = (invert ? ~word : word) & mask;  // keep line unchanged
    const BusWord flipped = ~direct & mask;
    const int toggles_direct = (bus ^ direct).popcount();
    // Flipping the invert line transmits the complement (+1 for the line).
    const int toggles_flipped = (bus ^ flipped).popcount() + 1;
    if (toggles_flipped < toggles_direct) {
      invert = !invert;
      bus = flipped;
      return true;
    }
    bus = direct;
    return false;
  }
};

// In-place block re-coder: pulls raw words and replaces each with the word
// the coder drives.
class BusInvertSource final : public trace::TraceSource {
 public:
  explicit BusInvertSource(std::unique_ptr<trace::TraceSource> raw)
      : raw_(std::move(raw)),
        coder_(raw_->n_bits()),
        name_(raw_->name() + "+businvert") {}

  std::size_t next_block(BusWord* dst, std::size_t max) override {
    const std::size_t n = raw_->next_block(dst, max);
    for (std::size_t i = 0; i < n; ++i) {
      coder_.drive(dst[i]);
      dst[i] = coder_.bus;
    }
    return n;
  }

  int n_bits() const override { return raw_->n_bits(); }
  const std::string& name() const override { return name_; }
  std::optional<std::uint64_t> length() const override { return raw_->length(); }
  std::unique_ptr<trace::TraceSource> clone() const override {
    return std::make_unique<BusInvertSource>(raw_->clone());
  }

 private:
  std::unique_ptr<trace::TraceSource> raw_;
  BusInvertCoder coder_;
  std::string name_;
};

}  // namespace

std::unique_ptr<trace::TraceSource> bus_invert_encode_source(
    std::unique_ptr<trace::TraceSource> raw) {
  if (!raw) throw std::invalid_argument("bus_invert_encode_source: null source");
  return std::make_unique<BusInvertSource>(std::move(raw));
}

BusInvertResult bus_invert_encode(const trace::Trace& raw) {
  BusInvertResult result;
  result.encoded.name = raw.name + "+businvert";
  result.encoded.n_bits = raw.n_bits;
  result.encoded.words.reserve(raw.words.size());
  result.invert_line.reserve(raw.words.size());
  BusInvertCoder coder(raw.n_bits);
  for (const BusWord& word : raw.words) {
    if (coder.drive(word)) ++result.inversions;
    result.encoded.words.push_back(coder.bus);
    result.invert_line.push_back(coder.invert);
  }
  return result;
}

trace::Trace bus_invert_decode(const trace::Trace& encoded,
                               const std::vector<bool>& invert_line) {
  trace::Trace out;
  out.name = encoded.name + "+decoded";
  out.n_bits = encoded.n_bits;
  out.words.reserve(encoded.words.size());
  const BusWord mask = BusWord::mask_low(encoded.n_bits);
  for (std::size_t i = 0; i < encoded.words.size(); ++i) {
    const bool invert = i < invert_line.size() && invert_line[i];
    out.words.push_back(invert ? ~encoded.words[i] & mask : encoded.words[i]);
  }
  return out;
}

std::uint64_t total_toggles(const trace::Trace& trace) {
  std::uint64_t toggles = 0;
  BusWord prev;
  for (const BusWord& w : trace.words) {
    toggles += static_cast<std::uint64_t>((prev ^ w).popcount());
    prev = w;
  }
  return toggles;
}

std::uint64_t invert_line_toggles(const std::vector<bool>& invert_line) {
  std::uint64_t toggles = 0;
  bool prev = false;
  for (const bool b : invert_line) {
    if (b != prev) ++toggles;
    prev = b;
  }
  return toggles;
}

}  // namespace razorbus::bus

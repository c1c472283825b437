#include "trace/source.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace razorbus::trace {

namespace {

// Serves a materialized word vector block by block. Shared ownership keeps
// clone() allocation-free beyond the source object itself; the view
// factory passes a non-owning aliasing pointer instead.
class MaterializedSource final : public TraceSource {
 public:
  explicit MaterializedSource(std::shared_ptr<const Trace> trace)
      : trace_(std::move(trace)) {}

  std::size_t next_block(BusWord* dst, std::size_t max) override {
    const std::size_t n = std::min(max, trace_->words.size() - pos_);
    std::copy_n(trace_->words.data() + pos_, n, dst);
    pos_ += n;
    return n;
  }

  int n_bits() const override { return trace_->n_bits; }
  const std::string& name() const override { return trace_->name; }
  std::optional<std::uint64_t> length() const override {
    return trace_->words.size();
  }
  std::unique_ptr<TraceSource> clone() const override {
    return std::make_unique<MaterializedSource>(trace_);
  }

 private:
  std::shared_ptr<const Trace> trace_;
  std::size_t pos_ = 0;
};

class ConcatenatedSource final : public TraceSource {
 public:
  ConcatenatedSource(std::vector<std::unique_ptr<TraceSource>> parts,
                     std::string name)
      : parts_(std::move(parts)), name_(std::move(name)) {
    n_bits_ = parts_.empty() ? 32 : parts_.front()->n_bits();
    for (const auto& part : parts_) {
      if (!part)
        throw std::invalid_argument("concatenate_sources: null part (" + name_ + ")");
      if (part->n_bits() != n_bits_)
        throw std::invalid_argument("concatenate: mixed trace widths (" + name_ + ")");
    }
  }

  std::size_t next_block(BusWord* dst, std::size_t max) override {
    // Serve from the current part only; a short return at a part boundary
    // is legal by the next_block contract and keeps parts' own block
    // shapes intact.
    while (current_ < parts_.size()) {
      const std::size_t n = parts_[current_]->next_block(dst, max);
      if (n > 0) return n;
      ++current_;
    }
    return 0;
  }

  int n_bits() const override { return n_bits_; }
  const std::string& name() const override { return name_; }

  std::optional<std::uint64_t> length() const override {
    std::uint64_t total = 0;
    for (const auto& part : parts_) {
      const auto n = part->length();
      if (!n) return std::nullopt;
      total += *n;
    }
    return total;
  }

  std::unique_ptr<TraceSource> clone() const override {
    std::vector<std::unique_ptr<TraceSource>> parts;
    parts.reserve(parts_.size());
    for (const auto& part : parts_) parts.push_back(part->clone());
    return std::make_unique<ConcatenatedSource>(std::move(parts), name_);
  }

 private:
  std::vector<std::unique_ptr<TraceSource>> parts_;
  std::string name_;
  int n_bits_ = 32;
  std::size_t current_ = 0;
};

class WidenedSource final : public TraceSource {
 public:
  WidenedSource(std::unique_ptr<TraceSource> narrow, int factor)
      : narrow_(std::move(narrow)), factor_(factor) {
    if (!narrow_) throw std::invalid_argument("widen_source: null source");
    if (factor_ <= 0) throw std::invalid_argument("widen: factor must be positive");
    if (narrow_->n_bits() * factor_ > BusWord::kMaxBits)
      throw std::invalid_argument("widen: result exceeds BusWord capacity");
    narrow_bits_ = narrow_->n_bits();
    in_mask_ = BusWord::mask_low(narrow_bits_);
  }

  std::size_t next_block(BusWord* dst, std::size_t max) override {
    std::size_t written = 0;
    while (written < max) {
      if (chunk_pos_ == chunk_len_) {
        if (eof_) break;
        chunk_len_ = narrow_->next_block(chunk_, kChunkWords);
        chunk_pos_ = 0;
        if (chunk_len_ == 0) {
          eof_ = true;
          break;
        }
      }
      while (chunk_pos_ < chunk_len_ && written < max) {
        wide_ |= (chunk_[chunk_pos_++] & in_mask_) << (packed_ * narrow_bits_);
        if (++packed_ == factor_) {
          dst[written++] = wide_;
          wide_ = BusWord();
          packed_ = 0;
        }
      }
    }
    // The narrow stream ended mid-pack: flush the zero-padded tail word.
    if (eof_ && packed_ > 0 && written < max) {
      dst[written++] = wide_;
      wide_ = BusWord();
      packed_ = 0;
    }
    return written;
  }

  int n_bits() const override { return narrow_bits_ * factor_; }
  const std::string& name() const override { return narrow_->name(); }

  std::optional<std::uint64_t> length() const override {
    const auto n = narrow_->length();
    if (!n) return std::nullopt;
    return (*n + static_cast<std::uint64_t>(factor_) - 1) /
           static_cast<std::uint64_t>(factor_);
  }

  std::unique_ptr<TraceSource> clone() const override {
    return std::make_unique<WidenedSource>(narrow_->clone(), factor_);
  }

 private:
  // Staging buffer for narrow pulls; a fixed few KiB keeps the adaptor's
  // footprint bounded regardless of the consumer's block size.
  static constexpr std::size_t kChunkWords = 1024;

  std::unique_ptr<TraceSource> narrow_;
  int factor_;
  int narrow_bits_;
  BusWord in_mask_;
  BusWord chunk_[kChunkWords];
  std::size_t chunk_pos_ = 0;
  std::size_t chunk_len_ = 0;
  BusWord wide_;
  int packed_ = 0;
  bool eof_ = false;
};

}  // namespace

std::unique_ptr<TraceSource> make_trace_source(Trace trace) {
  return std::make_unique<MaterializedSource>(
      std::make_shared<const Trace>(std::move(trace)));
}

std::unique_ptr<TraceSource> make_trace_view_source(const Trace& trace) {
  // Aliasing shared_ptr with an empty control block: no ownership, no
  // copy; the caller keeps `trace` alive (see source.hpp).
  return std::make_unique<MaterializedSource>(
      std::shared_ptr<const Trace>(std::shared_ptr<const Trace>(), &trace));
}

std::vector<std::unique_ptr<TraceSource>> make_trace_view_sources(
    const std::vector<Trace>& traces) {
  std::vector<std::unique_ptr<TraceSource>> sources;
  sources.reserve(traces.size());
  for (const Trace& trace : traces) sources.push_back(make_trace_view_source(trace));
  return sources;
}

std::unique_ptr<TraceSource> concatenate_sources(
    std::vector<std::unique_ptr<TraceSource>> parts, const std::string& name) {
  return std::make_unique<ConcatenatedSource>(std::move(parts), name);
}

std::unique_ptr<TraceSource> widen_source(std::unique_ptr<TraceSource> narrow,
                                          int factor) {
  return std::make_unique<WidenedSource>(std::move(narrow), factor);
}

Trace materialize(TraceSource& source, std::size_t block_cycles) {
  if (block_cycles == 0)
    throw std::invalid_argument("materialize: block_cycles must be > 0");
  Trace out;
  out.name = source.name();
  out.n_bits = source.n_bits();
  if (const auto n = source.length())
    out.words.reserve(static_cast<std::size_t>(*n));
  std::vector<BusWord> block(block_cycles);
  for (;;) {
    const std::size_t n = source.next_block(block.data(), block.size());
    if (n == 0) break;
    out.words.insert(out.words.end(), block.data(), block.data() + n);
  }
  return out;
}

}  // namespace razorbus::trace

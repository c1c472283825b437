#include "trace/io.hpp"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <istream>
#include <ostream>
#include <stdexcept>

#include "util/binary_io.hpp"

namespace razorbus::trace {

namespace {
// Version 1: the legacy fixed-32-wire format (magic + name + uint32
// words). Still written for 32-wire traces so archives produced before the
// width-generic datapath stay byte-identical, and always readable.
constexpr char kMagicV1[8] = {'R', 'B', 'T', 'R', 'A', 'C', 'E', '1'};
// Version 2: width-tagged. Layout after the magic: uint32 n_bits, uint64
// name length, name bytes, uint64 word count, then per word
// ceil(n_bits / 64) little-endian uint64 lanes (low lane first).
constexpr char kMagicV2[8] = {'R', 'B', 'T', 'R', 'A', 'C', 'E', '2'};

int lanes_per_word(int n_bits) { return (n_bits + 63) / 64; }

// Payloads are staged through a chunk buffer of this many words, so a
// multi-million-cycle trace costs a handful of stream reads or writes and
// a bounded scratch buffer.
constexpr std::size_t kChunkWords = std::size_t{1} << 16;

// Why a trace stream was rejected: a bad magic or header, or a payload
// shorter than the header's word count.
enum class Fault { none, not_a_trace, truncated };

std::runtime_error fault_error(const char* reader, Fault fault, const std::string& path) {
  return std::runtime_error(std::string(reader) +
                            (fault == Fault::truncated ? ": truncated trace file: "
                                                       : ": not a trace file: ") +
                            path);
}

// Everything an RBTRACE1/2 file says before its payload.
struct Header {
  bool v1 = false;
  int n_bits = 32;
  std::string name;
  std::uint64_t words = 0;

  std::size_t word_bytes() const {
    return v1 ? sizeof(std::uint32_t)
              : static_cast<std::size_t>(lanes_per_word(n_bits)) * sizeof(std::uint64_t);
  }
};

template <typename T>
bool read_pod(std::istream& is, T& value) {
  return static_cast<bool>(is.read(reinterpret_cast<char*>(&value), sizeof(value)));
}

template <typename T>
void write_pod(std::ostream& os, T value) {
  os.write(reinterpret_cast<const char*>(&value), sizeof(value));
}

// The one header parser behind load_binary and open_trace_stream. The
// claimed word count is checked against the bytes left in the stream, so a
// corrupt header cannot commit a giant allocation for a read that is bound
// to fail.
Fault read_header(std::istream& is, Header& header) {
  char magic[sizeof(kMagicV1)];
  if (!is.read(magic, sizeof(magic))) return Fault::not_a_trace;
  header.v1 = std::memcmp(magic, kMagicV1, sizeof(magic)) == 0;
  if (!header.v1) {
    std::uint32_t n_bits = 0;
    if (std::memcmp(magic, kMagicV2, sizeof(magic)) != 0 || !read_pod(is, n_bits) ||
        n_bits == 0 || n_bits > static_cast<std::uint32_t>(BusWord::kMaxBits))
      return Fault::not_a_trace;
    header.n_bits = static_cast<int>(n_bits);
  }
  std::uint64_t name_len = 0;
  if (!read_pod(is, name_len) || name_len > 4096) return Fault::not_a_trace;
  header.name.resize(name_len);
  if (!is.read(header.name.data(), static_cast<std::streamsize>(name_len)) ||
      !read_pod(is, header.words) || header.words > (1ull << 33))
    return Fault::not_a_trace;
  if (!util::claim_fits_stream(is, header.words, header.word_bytes()))
    return Fault::truncated;
  return Fault::none;
}

// The one payload decoder: reads exactly `n` words into `dst`, staging the
// raw bytes through `scratch` in bounded chunks. False when the stream
// ends first.
bool read_payload(std::istream& is, const Header& header, BusWord* dst, std::size_t n,
                  std::vector<char>& scratch) {
  const std::size_t word_bytes = header.word_bytes();
  while (n > 0) {
    const std::size_t batch = std::min(n, kChunkWords);
    scratch.resize(batch * word_bytes);
    if (!is.read(scratch.data(), static_cast<std::streamsize>(scratch.size())))
      return false;
    const char* raw = scratch.data();
    for (std::size_t w = 0; w < batch; ++w, raw += word_bytes) {
      if (header.v1) {
        std::uint32_t word = 0;
        std::memcpy(&word, raw, sizeof(word));
        *dst++ = BusWord(word);
      } else {
        std::uint64_t lanes[2] = {0, 0};
        std::memcpy(lanes, raw, word_bytes);
        *dst++ = BusWord::from_lanes(lanes[0], lanes[1]);
      }
    }
    n -= batch;
  }
  return true;
}

// A whole trace, allocated once from the header's count; on failure
// `fault` says why.
std::optional<Trace> read_trace(std::istream& is, Fault& fault) {
  Header header;
  fault = read_header(is, header);
  if (fault != Fault::none) return std::nullopt;
  Trace trace;
  trace.name = std::move(header.name);
  trace.n_bits = header.n_bits;
  trace.words.resize(static_cast<std::size_t>(header.words));
  std::vector<char> scratch;
  if (!read_payload(is, header, trace.words.data(), trace.words.size(), scratch)) {
    fault = Fault::truncated;
    return std::nullopt;
  }
  return trace;
}

// Incremental reader behind open_trace_stream: the header is parsed once
// at construction, after which each next_block decodes at most `max`
// words of payload.
class FileTraceSource final : public TraceSource {
 public:
  explicit FileTraceSource(std::string path) : path_(std::move(path)) {
    is_.open(path_, std::ios::binary);
    if (!is_) throw std::runtime_error("open_trace_stream: cannot open " + path_);
    const Fault fault = read_header(is_, header_);
    if (fault != Fault::none) throw fault_error("open_trace_stream", fault, path_);
    remaining_ = header_.words;
  }

  std::size_t next_block(BusWord* dst, std::size_t max) override {
    const std::size_t n =
        static_cast<std::size_t>(std::min<std::uint64_t>(max, remaining_));
    if (n == 0) return 0;
    if (!read_payload(is_, header_, dst, n, scratch_))
      throw fault_error("open_trace_stream", Fault::truncated, path_);
    remaining_ -= n;
    return n;
  }

  int n_bits() const override { return header_.n_bits; }
  const std::string& name() const override { return header_.name; }
  std::optional<std::uint64_t> length() const override { return header_.words; }
  std::unique_ptr<TraceSource> clone() const override {
    return std::make_unique<FileTraceSource>(path_);
  }

 private:
  std::string path_;
  std::ifstream is_;
  Header header_;
  std::uint64_t remaining_ = 0;
  std::vector<char> scratch_;
};

}  // namespace

std::unique_ptr<TraceSource> open_trace_stream(const std::string& path) {
  return std::make_unique<FileTraceSource>(path);
}

void save_binary(const Trace& trace, std::ostream& os) {
  Header header;
  header.v1 = trace.n_bits == 32;
  header.n_bits = trace.n_bits;
  os.write(header.v1 ? kMagicV1 : kMagicV2, sizeof(kMagicV1));
  if (!header.v1) write_pod(os, static_cast<std::uint32_t>(trace.n_bits));
  write_pod(os, static_cast<std::uint64_t>(trace.name.size()));
  os.write(trace.name.data(), static_cast<std::streamsize>(trace.name.size()));
  write_pod(os, static_cast<std::uint64_t>(trace.words.size()));
  // The payload, chunk by chunk: the mirror image of read_payload.
  const std::size_t word_bytes = header.word_bytes();
  std::vector<char> chunk;
  for (std::size_t first = 0; first < trace.words.size(); first += kChunkWords) {
    const std::size_t batch = std::min(kChunkWords, trace.words.size() - first);
    chunk.resize(batch * word_bytes);
    char* raw = chunk.data();
    for (std::size_t w = first; w < first + batch; ++w, raw += word_bytes) {
      const BusWord& word = trace.words[w];
      if (header.v1) {
        const std::uint32_t low = word.low32();
        std::memcpy(raw, &low, sizeof(low));
      } else {
        const std::uint64_t lanes[2] = {word.lane(0), word.lane(1)};
        std::memcpy(raw, lanes, word_bytes);
      }
    }
    os.write(chunk.data(), static_cast<std::streamsize>(chunk.size()));
  }
}

std::optional<Trace> load_binary(std::istream& is) {
  Fault fault = Fault::none;
  return read_trace(is, fault);
}

void save_trace_file(const Trace& trace, const std::string& path) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  if (!os) throw std::runtime_error("save_trace_file: cannot open " + path);
  save_binary(trace, os);
  if (!os) throw std::runtime_error("save_trace_file: write failed for " + path);
}

Trace load_trace_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) throw std::runtime_error("load_trace_file: cannot open " + path);
  Fault fault = Fault::none;
  auto trace = read_trace(is, fault);
  if (!trace) throw fault_error("load_trace_file", fault, path);
  return *std::move(trace);
}

void export_csv(const Trace& trace, std::ostream& os) {
  os << "cycle,word_hex\n";
  const int digits = (trace.n_bits + 3) / 4;
  char buffer[64];
  for (std::size_t i = 0; i < trace.words.size(); ++i) {
    const BusWord& w = trace.words[i];
    if (digits <= 16) {
      std::snprintf(buffer, sizeof(buffer), "%zu,%0*llx\n", i, digits,
                    static_cast<unsigned long long>(w.low64()));
    } else {
      std::snprintf(buffer, sizeof(buffer), "%zu,%0*llx%016llx\n", i, digits - 16,
                    static_cast<unsigned long long>(w.lane(1)),
                    static_cast<unsigned long long>(w.lane(0)));
    }
    os << buffer;
  }
}

}  // namespace razorbus::trace

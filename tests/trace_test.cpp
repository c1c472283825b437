#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "trace/io.hpp"
#include "trace/synthetic.hpp"
#include "trace/trace.hpp"

namespace razorbus::trace {
namespace {

// ---------------------------------------------------------------- stats

TEST(Stats, EmptyAndSingleWordTraces) {
  // No transition exists in either trace, so EVERY statistic must be its
  // zero default — in particular no division by the zero transition count.
  Trace empty{"e", {}};
  const TraceStats s0 = compute_stats(empty);
  EXPECT_EQ(s0.cycles, 0u);
  EXPECT_DOUBLE_EQ(s0.toggle_rate, 0.0);
  EXPECT_DOUBLE_EQ(s0.active_cycle_rate, 0.0);
  EXPECT_DOUBLE_EQ(s0.worst_pattern_rate, 0.0);
  for (const double p : s0.per_bit_toggle) EXPECT_DOUBLE_EQ(p, 0.0);

  Trace one{"o", {42}};
  const TraceStats s1 = compute_stats(one);
  EXPECT_EQ(s1.cycles, 1u);
  EXPECT_DOUBLE_EQ(s1.toggle_rate, 0.0);
  EXPECT_DOUBLE_EQ(s1.active_cycle_rate, 0.0);
  EXPECT_DOUBLE_EQ(s1.worst_pattern_rate, 0.0);
  for (const double p : s1.per_bit_toggle) EXPECT_DOUBLE_EQ(p, 0.0);
}

TEST(Stats, ConstantTraceHasNoActivity) {
  Trace t{"c", std::vector<BusWord>(100, BusWord(0xDEADBEEFu))};
  const TraceStats s = compute_stats(t);
  EXPECT_DOUBLE_EQ(s.toggle_rate, 0.0);
  EXPECT_DOUBLE_EQ(s.active_cycle_rate, 0.0);
  EXPECT_DOUBLE_EQ(s.worst_pattern_rate, 0.0);
}

TEST(Stats, CheckerboardIsMaximallyHostile) {
  Trace t{"x", {}};
  for (int i = 0; i < 100; ++i) t.words.push_back(i % 2 ? 0x55555555u : 0xAAAAAAAAu);
  const TraceStats s = compute_stats(t);
  EXPECT_DOUBLE_EQ(s.toggle_rate, 1.0);         // every bit toggles every cycle
  EXPECT_DOUBLE_EQ(s.active_cycle_rate, 1.0);
  EXPECT_DOUBLE_EQ(s.worst_pattern_rate, 1.0);  // opposing neighbors everywhere
}

TEST(Stats, SingleBitToggleCounted) {
  Trace t{"s", {0, 1, 0, 1, 0}};
  const TraceStats s = compute_stats(t);
  EXPECT_NEAR(s.toggle_rate, 1.0 / 32.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.active_cycle_rate, 1.0);
  EXPECT_DOUBLE_EQ(s.per_bit_toggle[0], 1.0);
  EXPECT_DOUBLE_EQ(s.per_bit_toggle[1], 0.0);
  EXPECT_DOUBLE_EQ(s.worst_pattern_rate, 0.0);  // no interior victim pattern
}

TEST(Stats, WorstPatternDetectsOpposingTriple) {
  // Bit 2 rises while bits 1 and 3 fall: pattern I on an interior wire.
  Trace t{"w", {0b01010, 0b00100}};
  const TraceStats s = compute_stats(t);
  EXPECT_DOUBLE_EQ(s.worst_pattern_rate, 1.0);
  // The mirrored case: victim falls while neighbors rise.
  Trace u{"w2", {0b00100, 0b01010}};
  EXPECT_DOUBLE_EQ(compute_stats(u).worst_pattern_rate, 1.0);
}

TEST(Stats, PerBitTogglesSumToToggleRate) {
  Trace t{"r", {}};
  Rng rng(5);
  for (int i = 0; i < 500; ++i)
    t.words.push_back(static_cast<std::uint32_t>(rng.next_u64()));
  const TraceStats s = compute_stats(t);
  double sum = 0.0;
  for (const double p : s.per_bit_toggle) sum += p;
  EXPECT_NEAR(sum / 32.0, s.toggle_rate, 1e-12);
  EXPECT_NEAR(s.toggle_rate, 0.5, 0.02);  // uniform random words
}

TEST(Concatenate, PreservesOrderAndLength) {
  Trace a{"a", {1, 2}};
  Trace b{"b", {3}};
  const Trace c = concatenate({a, b}, "ab");
  EXPECT_EQ(c.name, "ab");
  ASSERT_EQ(c.words.size(), 3u);
  EXPECT_EQ(c.words[0], 1u);
  EXPECT_EQ(c.words[2], 3u);
}

TEST(Concatenate, RejectsMixedWidths) {
  // Regression: concatenate used to adopt the first trace's width and
  // silently mislabel (or effectively truncate) wider inputs; mixed widths
  // must throw instead, whichever order they arrive in.
  Trace narrow{"n", {1, 2}};
  Trace wide{"w", {3}};
  wide.n_bits = 64;
  EXPECT_THROW(concatenate({narrow, wide}, "nw"), std::invalid_argument);
  EXPECT_THROW(concatenate({wide, narrow}, "wn"), std::invalid_argument);
  // Same-width inputs keep working and keep their width.
  Trace wide2{"w2", {4, 5}};
  wide2.n_bits = 64;
  const Trace c = concatenate({wide, wide2}, "ww");
  EXPECT_EQ(c.n_bits, 64);
  EXPECT_EQ(c.words.size(), 3u);
}

// ---------------------------------------------------------------- widen

TEST(Widen, PacksEarliestWordLowest) {
  Trace t{"t", {0x11111111u, 0x22222222u, 0x33333333u, 0x44444444u}};
  const Trace wide = widen(t, 2);
  EXPECT_EQ(wide.n_bits, 64);
  ASSERT_EQ(wide.words.size(), 2u);
  EXPECT_EQ(wide.words[0].low64(), 0x2222222211111111ull);
  EXPECT_EQ(wide.words[1].low64(), 0x4444444433333333ull);
}

TEST(Widen, ZeroPadsTheTail) {
  // 5 words at factor 4: the second flit packs one word and must leave
  // the remaining 96 bits zero.
  Trace t{"t", {1, 2, 3, 4, 0xABCDu}};
  const Trace wide = widen(t, 4);
  EXPECT_EQ(wide.n_bits, 128);
  ASSERT_EQ(wide.words.size(), 2u);
  EXPECT_EQ(wide.words[1].lane(0), 0xABCDull);
  EXPECT_EQ(wide.words[1].lane(1), 0ull);
  // Tail padding also masks garbage above the input width.
  Trace small{"s", {0xFFu, 0xFFu, 0xFFu}};
  small.n_bits = 4;
  const Trace packed = widen(small, 2);
  EXPECT_EQ(packed.n_bits, 8);
  ASSERT_EQ(packed.words.size(), 2u);
  EXPECT_EQ(packed.words[0].low64(), 0xFFull);  // two 4-bit 0xF fields
  EXPECT_EQ(packed.words[1].low64(), 0x0Full);  // zero-padded high half
}

TEST(Widen, ValidatesFactorAndCapacity) {
  Trace t{"t", {1, 2}};
  EXPECT_THROW(widen(t, 0), std::invalid_argument);
  EXPECT_THROW(widen(t, -1), std::invalid_argument);
  EXPECT_THROW(widen(t, 5), std::invalid_argument);  // 160 bits > kMaxBits
  EXPECT_EQ(widen(t, 4).n_bits, 128);
}

// ---------------------------------------------------------------- synthetic

TEST(Synthetic, RespectsCycleCount) {
  SyntheticConfig cfg;
  cfg.cycles = 1234;
  EXPECT_EQ(generate_synthetic(cfg, "t").words.size(), 1234u);
}

TEST(Synthetic, DeterministicPerSeed) {
  SyntheticConfig cfg;
  cfg.cycles = 1000;
  cfg.seed = 99;
  const Trace a = generate_synthetic(cfg, "a");
  const Trace b = generate_synthetic(cfg, "b");
  EXPECT_EQ(a.words, b.words);
  cfg.seed = 100;
  EXPECT_NE(generate_synthetic(cfg, "c").words, a.words);
}

TEST(Synthetic, LoadRateControlsHolds) {
  SyntheticConfig cfg;
  cfg.cycles = 20000;
  cfg.load_rate = 0.1;
  const TraceStats s = compute_stats(generate_synthetic(cfg, "t"));
  EXPECT_NEAR(s.active_cycle_rate, 0.1, 0.02);

  cfg.load_rate = 0.0;
  const TraceStats idle = compute_stats(generate_synthetic(cfg, "idle"));
  EXPECT_DOUBLE_EQ(idle.active_cycle_rate, 0.0);
}

TEST(Synthetic, LoadRateValidated) {
  SyntheticConfig cfg;
  cfg.load_rate = 1.5;
  EXPECT_THROW(generate_synthetic(cfg, "t"), std::invalid_argument);
}

TEST(Synthetic, ActivityValidated) {
  // Out-of-range or NaN knobs are rejected up front, by the materialized
  // generator and the streamed source alike, for every style (a negative
  // activity would otherwise reach an unsigned cast in fp_like and
  // pointer_like).
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const auto style : {SyntheticStyle::uniform, SyntheticStyle::fp_like,
                           SyntheticStyle::pointer_like, SyntheticStyle::sparse}) {
    for (const double activity : {-0.1, 1.5, nan}) {
      SyntheticConfig cfg;
      cfg.style = style;
      cfg.activity = activity;
      EXPECT_THROW(generate_synthetic(cfg, "t"), std::invalid_argument);
      EXPECT_THROW(make_synthetic_source(cfg, "t"), std::invalid_argument);
    }
  }
  SyntheticConfig cfg;
  cfg.load_rate = nan;
  EXPECT_THROW(generate_synthetic(cfg, "t"), std::invalid_argument);
  EXPECT_THROW(make_synthetic_source(cfg, "t"), std::invalid_argument);

  // The range ends stay legal.
  cfg.cycles = 64;
  cfg.load_rate = 1.0;
  for (const double activity : {0.0, 1.0}) {
    cfg.activity = activity;
    EXPECT_EQ(generate_synthetic(cfg, "t").words.size(), 64u);
  }
}

TEST(Synthetic, StyleActivityOrdering) {
  auto worst_rate = [](SyntheticStyle style, double activity) {
    SyntheticConfig cfg;
    cfg.style = style;
    cfg.cycles = 30000;
    cfg.load_rate = 0.5;
    cfg.activity = activity;
    return compute_stats(generate_synthetic(cfg, "t")).worst_pattern_rate;
  };
  const double sparse = worst_rate(SyntheticStyle::sparse, 0.3);
  const double uniform = worst_rate(SyntheticStyle::uniform, 0.5);
  const double worst = worst_rate(SyntheticStyle::worst_case, 1.0);
  EXPECT_LT(sparse, uniform);
  EXPECT_LT(uniform, worst);
  EXPECT_GT(worst, 0.45);  // alternating checkerboard whenever active
}

TEST(Synthetic, FpLikeKeepsExponentBand) {
  SyntheticConfig cfg;
  cfg.style = SyntheticStyle::fp_like;
  cfg.cycles = 5000;
  cfg.load_rate = 1.0;
  cfg.activity = 0.8;
  const Trace t = generate_synthetic(cfg, "fp");
  const TraceStats s = compute_stats(t);
  // Sign bit never toggles; low mantissa bits toggle heavily.
  EXPECT_DOUBLE_EQ(s.per_bit_toggle[31], 0.0);
  EXPECT_GT(s.per_bit_toggle[2], 0.3);
}

TEST(Synthetic, PointerLikeKeepsHighBitsStable) {
  SyntheticConfig cfg;
  cfg.style = SyntheticStyle::pointer_like;
  cfg.cycles = 5000;
  cfg.load_rate = 1.0;
  const TraceStats s = compute_stats(generate_synthetic(cfg, "ptr"));
  EXPECT_DOUBLE_EQ(s.per_bit_toggle[30], 0.0);  // heap base bits
  EXPECT_DOUBLE_EQ(s.per_bit_toggle[0], 0.0);   // word alignment
  EXPECT_GT(s.per_bit_toggle[4], 0.1);          // offset bits move
}

TEST(Synthetic, SparseWordsHaveFewBits) {
  SyntheticConfig cfg;
  cfg.style = SyntheticStyle::sparse;
  cfg.cycles = 2000;
  cfg.load_rate = 1.0;
  cfg.activity = 0.5;
  const Trace t = generate_synthetic(cfg, "sparse");
  for (const auto& w : t.words) EXPECT_LE(w.popcount(), 6);
}

// ------------------------------------------------- synthetic seed stability
//
// The generated 32-bit streams are pinned: hashes below were captured from
// the pre-width-generic generators, and the width-generic rewrite (or any
// future change) must reproduce them bit for bit. Experiments cite trace
// seeds in reports; silently shifting the streams would silently shift
// every derived result.

std::uint64_t fnv1a_words(const std::vector<BusWord>& words) {
  std::uint64_t h = 1469598103934665603ull;
  for (const BusWord& word : words) {
    const std::uint32_t w = word.low32();
    for (int b = 0; b < 4; ++b) {
      h ^= (w >> (8 * b)) & 0xffu;
      h *= 1099511628211ull;
    }
  }
  return h;
}

struct SyntheticGolden {
  SyntheticStyle style;
  std::uint64_t hash;
  std::uint32_t spot[4];  // words 0, 100, 1000, 4095
};

TEST(SyntheticStability, PinnedStreamsNeverShift) {
  // Goldens generated at cycles=4096, load_rate=0.7, activity=0.5,
  // seed=12345 against the pre-refactor std::uint32_t generators.
  const SyntheticGolden goldens[] = {
      {SyntheticStyle::uniform, 0x2d9197f0aff70dd9ull,
       {0x00000000u, 0xe13d6eb2u, 0xf6f265f6u, 0x39e731c8u}},
      {SyntheticStyle::random_walk, 0xe28f8d865fb940faull,
       {0x00000000u, 0x8cc99184u, 0xeab7a9c8u, 0xe0ecde9bu}},
      {SyntheticStyle::fp_like, 0x65e2686a2a24a4fdull,
       {0x00000000u, 0x41000498u, 0x4080066cu, 0x3f8000e4u}},
      {SyntheticStyle::pointer_like, 0x79b4f6be47f6b4c5ull,
       {0x00000000u, 0x40004ac8u, 0x400733d8u, 0x40005f20u}},
      {SyntheticStyle::sparse, 0xb20a269de957307cull,
       {0x00000000u, 0x20200800u, 0x02000002u, 0x00000001u}},
      {SyntheticStyle::worst_case, 0x6b0b2dfe4a14ab17ull,
       {0x00000000u, 0x55555555u, 0xaaaaaaaau, 0x55555555u}},
  };
  for (const auto& golden : goldens) {
    SyntheticConfig cfg;
    cfg.style = golden.style;
    cfg.cycles = 4096;
    cfg.load_rate = 0.7;
    cfg.activity = 0.5;
    cfg.seed = 12345;
    const Trace t = generate_synthetic(cfg, "pinned");
    ASSERT_EQ(t.words.size(), 4096u);
    EXPECT_EQ(fnv1a_words(t.words), golden.hash)
        << "style " << static_cast<int>(golden.style);
    const std::size_t spots[4] = {0, 100, 1000, 4095};
    for (int i = 0; i < 4; ++i)
      EXPECT_EQ(t.words[spots[i]].low32(), golden.spot[i])
          << "style " << static_cast<int>(golden.style) << " word " << spots[i];
    // High lanes must stay empty at the default 32-bit width.
    for (const BusWord& w : t.words) ASSERT_EQ(w.lane(1), 0u);
  }
}

TEST(SyntheticStability, WideGeneratorsKeepLowLaneSemantics) {
  // Wide words must populate bits past 32 (uniform/random_walk/sparse
  // spread across the whole word) without disturbing the pinned styles'
  // structural invariants.
  for (const auto style : {SyntheticStyle::uniform, SyntheticStyle::random_walk,
                           SyntheticStyle::sparse, SyntheticStyle::worst_case}) {
    SyntheticConfig cfg;
    cfg.style = style;
    cfg.cycles = 4000;
    cfg.load_rate = 1.0;
    cfg.seed = 5;
    cfg.n_bits = 128;
    const Trace t = generate_synthetic(cfg, "wide");
    EXPECT_EQ(t.n_bits, 128);
    bool high_active = false;
    for (const BusWord& w : t.words)
      if (w.lane(1) != 0) high_active = true;
    EXPECT_TRUE(high_active) << "style " << static_cast<int>(style);
  }
  SyntheticConfig cfg;
  cfg.n_bits = 0;
  EXPECT_THROW(generate_synthetic(cfg, "bad"), std::invalid_argument);
  cfg.n_bits = 129;
  EXPECT_THROW(generate_synthetic(cfg, "bad"), std::invalid_argument);
}

TEST(Synthetic, RandomWalkTogglesFewBitsPerStep) {
  SyntheticConfig cfg;
  cfg.style = SyntheticStyle::random_walk;
  cfg.cycles = 5000;
  cfg.load_rate = 1.0;
  cfg.activity = 0.1;  // at most ~3 flips per step
  const TraceStats s = compute_stats(generate_synthetic(cfg, "walk"));
  EXPECT_LT(s.toggle_rate, 0.12);
  EXPECT_GT(s.toggle_rate, 0.0);
}

// ---------------------------------------------------------------- io

// Writes `bytes` to a file and requires both file readers to reject it
// with a std::runtime_error that names `fault` and the path.
void expect_file_rejected(const std::string& bytes, const std::string& fault) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "trace_io_rejected.rbtrace").string();
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << bytes;
  }
  const auto expect_message = [&](const auto& read, const char* reader) {
    SCOPED_TRACE(reader);
    try {
      read();
      ADD_FAILURE() << "accepted a bad trace file";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(fault + ": " + path), std::string::npos)
          << e.what();
    }
  };
  expect_message([&] { load_trace_file(path); }, "load_trace_file");
  expect_message([&] { open_trace_stream(path); }, "open_trace_stream");
  std::filesystem::remove(path);
}

TEST(TraceIo, BinaryRoundTripInMemory) {
  SyntheticConfig cfg;
  cfg.cycles = 3000;
  cfg.seed = 42;
  const Trace original = generate_synthetic(cfg, "roundtrip");
  std::stringstream buffer;
  save_binary(original, buffer);
  const auto loaded = load_binary(buffer);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->name, original.name);
  EXPECT_EQ(loaded->words, original.words);
}

TEST(TraceIo, RejectsGarbageAndTruncation) {
  std::stringstream garbage("this is not a trace");
  EXPECT_FALSE(load_binary(garbage).has_value());
  expect_file_rejected(garbage.str(), "not a trace file");

  const Trace t{"x", {1, 2, 3, 4, 5}};
  std::stringstream buffer;
  save_binary(t, buffer);
  std::string data = buffer.str();
  data.resize(data.size() - 6);
  std::stringstream truncated(data);
  EXPECT_FALSE(load_binary(truncated).has_value());
  expect_file_rejected(data, "truncated trace file");
}

TEST(TraceIo, CorruptWordCountRejectedWithoutGiantAllocation) {
  // Regression: a corrupt header could claim up to 2^33 words and trigger a
  // 32 GiB resize before the read failed. The claim is now bounded by the
  // bytes actually remaining in the stream, so this returns nullopt fast
  // instead of dying in the allocator.
  const Trace t{"victim", {1, 2, 3, 4, 5, 6, 7, 8}};
  std::stringstream buffer;
  save_binary(t, buffer);
  std::string data = buffer.str();

  // The word count is the 8 bytes right before the payload.
  const std::size_t count_offset =
      data.size() - t.words.size() * sizeof(std::uint32_t) - 8;
  const std::uint64_t huge = (1ull << 33) - 1;
  std::memcpy(&data[count_offset], &huge, sizeof(huge));

  std::stringstream corrupt(data);
  EXPECT_FALSE(load_binary(corrupt).has_value());
  expect_file_rejected(data, "truncated trace file");

  // A merely-too-large claim (payload shorter than the count says) is
  // rejected the same way.
  const std::uint64_t plausible = t.words.size() + 1;
  std::memcpy(&data[count_offset], &plausible, sizeof(plausible));
  std::stringstream short_payload(data);
  EXPECT_FALSE(load_binary(short_payload).has_value());
  expect_file_rejected(data, "truncated trace file");

  // A count past the format's limit is a bad header, not a short payload.
  const std::uint64_t beyond = (1ull << 33) + 1;
  std::memcpy(&data[count_offset], &beyond, sizeof(beyond));
  std::stringstream bad_header(data);
  EXPECT_FALSE(load_binary(bad_header).has_value());
  expect_file_rejected(data, "not a trace file");
}

TEST(TraceIo, FileRoundTrip) {
  const std::string path = "./trace_io_test.rbtrace";
  const Trace t{"filetrip", {0xDEADBEEFu, 0, 42}};
  save_trace_file(t, path);
  const Trace loaded = load_trace_file(path);
  EXPECT_EQ(loaded.name, "filetrip");
  EXPECT_EQ(loaded.words, t.words);
  std::filesystem::remove(path);
  EXPECT_THROW(load_trace_file(path), std::runtime_error);
}

TEST(TraceIo, CsvExportFormat) {
  const Trace t{"csv", {0x0000001u, 0xFFFFFFFFu}};
  std::ostringstream os;
  export_csv(t, os);
  EXPECT_EQ(os.str(), "cycle,word_hex\n0,00000001\n1,ffffffff\n");
}

TEST(TraceIo, EmptyTraceRoundTrips) {
  const Trace t{"empty", {}};
  std::stringstream buffer;
  save_binary(t, buffer);
  const auto loaded = load_binary(buffer);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_TRUE(loaded->words.empty());
  EXPECT_EQ(loaded->name, "empty");
}

}  // namespace
}  // namespace razorbus::trace

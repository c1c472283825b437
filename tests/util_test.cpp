#include <gtest/gtest.h>

#include <limits>

#include <cmath>
#include <set>
#include <sstream>

#include "util/cli.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

namespace razorbus {
namespace {

// ---------------------------------------------------------------- units

TEST(Units, LiteralSuffixesScaleCorrectly) {
  EXPECT_DOUBLE_EQ(600.0_ps, 600e-12);
  EXPECT_DOUBLE_EQ(1.5_ns, 1.5e-9);
  EXPECT_DOUBLE_EQ(2.0_us, 2e-6);
  EXPECT_DOUBLE_EQ(1.2_V, 1.2);
  EXPECT_DOUBLE_EQ(20.0_mV, 0.020);
  EXPECT_DOUBLE_EQ(6.0_mm, 6e-3);
  EXPECT_DOUBLE_EQ(0.8_um, 0.8e-6);
  EXPECT_DOUBLE_EQ(1.5_GHz, 1.5e9);
  EXPECT_DOUBLE_EQ(92.0_ohm, 92.0);
  EXPECT_DOUBLE_EQ(12.0_kohm, 12000.0);
  EXPECT_DOUBLE_EQ(1.0_fF, 1e-15);
  EXPECT_DOUBLE_EQ(1.0_pJ, 1e-12);
}

TEST(Units, ConversionHelpersRoundTrip) {
  EXPECT_NEAR(to_ps(600.0_ps), 600.0, 1e-9);
  EXPECT_NEAR(to_mV(1.08_V), 1080.0, 1e-9);
  EXPECT_NEAR(to_fF(0.5_pF), 500.0, 1e-9);
  EXPECT_NEAR(to_um(6.0_mm), 6000.0, 1e-9);
  EXPECT_NEAR(to_fJ(2.0_pJ), 2000.0, 1e-9);
}

TEST(Units, ThermalVoltage) {
  EXPECT_NEAR(thermal_voltage(25.0), 0.0257, 5e-4);
  EXPECT_NEAR(thermal_voltage(100.0), 0.0322, 5e-4);
  EXPECT_GT(thermal_voltage(100.0), thermal_voltage(25.0));
}

// ---------------------------------------------------------------- rng

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a.next_u64() == b.next_u64()) ++same;
  EXPECT_LT(same, 2);
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.next_double();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Rng, NextBelowRespectsBound) {
  Rng rng(9);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.next_below(17);
    EXPECT_LT(v, 17u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 17u);  // all residues hit
}

TEST(Rng, NextBelowZeroAndOne) {
  Rng rng(3);
  EXPECT_EQ(rng.next_below(0), 0u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.next_below(1), 0u);
}

TEST(Rng, BernoulliExtremes) {
  Rng rng(11);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(13);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i)
    if (rng.bernoulli(0.3)) ++hits;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, NormalMomentsApproximatelyCorrect) {
  Rng rng(17);
  RunningStats stats;
  for (int i = 0; i < 50000; ++i) stats.add(rng.normal(5.0, 2.0));
  EXPECT_NEAR(stats.mean(), 5.0, 0.05);
  EXPECT_NEAR(stats.stddev(), 2.0, 0.05);
}

TEST(Rng, UniformRange) {
  Rng rng(19);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform(-2.0, 3.0);
    EXPECT_GE(x, -2.0);
    EXPECT_LT(x, 3.0);
  }
}

TEST(Rng, RandomWordBitDensity) {
  Rng rng(23);
  std::uint64_t ones = 0;
  for (int i = 0; i < 10000; ++i) ones += __builtin_popcount(rng.random_word(0.25));
  EXPECT_NEAR(static_cast<double>(ones) / (10000.0 * 32.0), 0.25, 0.01);
}

// ---------------------------------------------------------------- stats

TEST(RunningStats, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 0.0);
  EXPECT_DOUBLE_EQ(s.max(), 0.0);
}

TEST(RunningStats, KnownSequence) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.variance(), 4.0);  // population variance
  EXPECT_DOUBLE_EQ(s.stddev(), 2.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStats, MergeMatchesCombinedStream) {
  Rng rng(31);
  RunningStats all, a, b;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.normal();
    all.add(x);
    (i % 3 == 0 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-12);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-10);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(RunningStats, MergeWithEmpty) {
  RunningStats a, b;
  a.add(1.0);
  a.add(3.0);
  a.merge(b);  // no-op
  EXPECT_EQ(a.count(), 2u);
  b.merge(a);  // copies
  EXPECT_EQ(b.count(), 2u);
  EXPECT_DOUBLE_EQ(b.mean(), 2.0);
}

TEST(RunningStats, ResetClears) {
  RunningStats s;
  s.add(5.0);
  s.reset();
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.sum(), 0.0);
}

TEST(Histogram, BinningAndTotals) {
  Histogram h(0.0, 10.0, 10);
  h.add(0.5);
  h.add(1.5);
  h.add(1.6);
  h.add(9.9);
  EXPECT_DOUBLE_EQ(h.total(), 4.0);
  EXPECT_DOUBLE_EQ(h.count(0), 1.0);
  EXPECT_DOUBLE_EQ(h.count(1), 2.0);
  EXPECT_DOUBLE_EQ(h.count(9), 1.0);
  EXPECT_DOUBLE_EQ(h.fraction(1), 0.5);
}

TEST(Histogram, NanSamplesAreDroppedNotBinned) {
  // Regression: bin_index used to cast NaN to std::size_t (undefined
  // behavior — both range guards compare false for NaN).
  const double nan = std::numeric_limits<double>::quiet_NaN();
  Histogram h(0.0, 1.0, 4);
  EXPECT_EQ(h.bin_index(nan), h.bins());  // defined one-past-the-end flag
  h.add(nan);
  h.add(nan, 2.5);
  EXPECT_DOUBLE_EQ(h.total(), 0.0);
  EXPECT_DOUBLE_EQ(h.dropped(), 3.5);
  for (std::size_t i = 0; i < h.bins(); ++i) EXPECT_DOUBLE_EQ(h.count(i), 0.0);

  h.add(0.5);
  EXPECT_DOUBLE_EQ(h.total(), 1.0);  // real samples still bin normally
  EXPECT_DOUBLE_EQ(h.fraction(2), 1.0);
}

TEST(DiscreteHistogram, NanKeysAreDropped) {
  DiscreteHistogram h;
  h.add(std::numeric_limits<double>::quiet_NaN());
  h.add(1.0);
  EXPECT_DOUBLE_EQ(h.total(), 1.0);
  EXPECT_DOUBLE_EQ(h.dropped(), 1.0);
  ASSERT_EQ(h.fractions().size(), 1u);
  EXPECT_DOUBLE_EQ(h.fractions()[0].second, 1.0);
}

TEST(Histogram, OutOfRangeClampsToEdges) {
  Histogram h(0.0, 1.0, 4);
  h.add(-5.0);
  h.add(99.0);
  EXPECT_DOUBLE_EQ(h.count(0), 1.0);
  EXPECT_DOUBLE_EQ(h.count(3), 1.0);
  EXPECT_DOUBLE_EQ(h.total(), 2.0);
}

TEST(Histogram, WeightsAccumulate) {
  Histogram h(0.0, 1.0, 2);
  h.add(0.1, 2.5);
  h.add(0.9, 1.5);
  EXPECT_DOUBLE_EQ(h.total(), 4.0);
  EXPECT_DOUBLE_EQ(h.fraction(0), 2.5 / 4.0);
}

TEST(Histogram, BinEdges) {
  Histogram h(1.0, 3.0, 4);
  EXPECT_DOUBLE_EQ(h.bin_lo(0), 1.0);
  EXPECT_DOUBLE_EQ(h.bin_hi(0), 1.5);
  EXPECT_DOUBLE_EQ(h.bin_lo(3), 2.5);
  EXPECT_DOUBLE_EQ(h.bin_hi(3), 3.0);
}

TEST(Histogram, RejectsBadConstruction) {
  EXPECT_THROW(Histogram(0.0, 1.0, 0), std::invalid_argument);
  EXPECT_THROW(Histogram(1.0, 1.0, 4), std::invalid_argument);
  EXPECT_THROW(Histogram(2.0, 1.0, 4), std::invalid_argument);
}

TEST(DiscreteHistogram, FractionsSortedByKey) {
  DiscreteHistogram h;
  h.add(1.00, 3.0);
  h.add(0.98, 1.0);
  h.add(1.00, 1.0);
  const auto f = h.fractions();
  ASSERT_EQ(f.size(), 2u);
  EXPECT_DOUBLE_EQ(f[0].first, 0.98);
  EXPECT_DOUBLE_EQ(f[0].second, 0.2);
  EXPECT_DOUBLE_EQ(f[1].first, 1.00);
  EXPECT_DOUBLE_EQ(f[1].second, 0.8);
}

TEST(Percentile, KnownValues) {
  std::vector<double> v{1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  EXPECT_DOUBLE_EQ(percentile(v, 0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100), 10.0);
  EXPECT_DOUBLE_EQ(percentile(v, 50), 5.5);
  EXPECT_DOUBLE_EQ(percentile({}, 50), 0.0);
  EXPECT_DOUBLE_EQ(percentile({3.0}, 75), 3.0);
}

// ---------------------------------------------------------------- table

TEST(Table, AlignedOutputContainsCells) {
  Table t({"name", "value"});
  t.row().add("alpha").add(1.25, 2);
  t.row().add("b").add(42LL);
  std::ostringstream os;
  t.print(os);
  const std::string s = os.str();
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_NE(s.find("1.25"), std::string::npos);
  EXPECT_NE(s.find("42"), std::string::npos);
}

TEST(Table, CsvOutput) {
  Table t({"a", "b"});
  t.row().add("x").add(3LL);
  std::ostringstream os;
  t.print_csv(os);
  EXPECT_EQ(os.str(), "a,b\nx,3\n");
}

TEST(Table, AddBeforeRowThrows) {
  Table t({"a"});
  EXPECT_THROW(t.add("oops"), std::logic_error);
}

TEST(Table, EmptyHeaderThrows) { EXPECT_THROW(Table({}), std::invalid_argument); }

TEST(Table, FormatFixed) {
  EXPECT_EQ(format_fixed(3.14159, 2), "3.14");
  EXPECT_EQ(format_fixed(-0.5, 1), "-0.5");
  EXPECT_EQ(format_fixed(2.0, 0), "2");
}

// ---------------------------------------------------------------- cli

std::vector<const char*> argv_of(std::initializer_list<const char*> args) {
  std::vector<const char*> v{"prog"};
  v.insert(v.end(), args.begin(), args.end());
  return v;
}

TEST(CliFlags, ParsesValuesAndBooleans) {
  auto args = argv_of({"--cycles=5000", "--verbose", "--name=fig4"});
  CliFlags flags(static_cast<int>(args.size()), args.data());
  EXPECT_EQ(flags.get_int("cycles", 0), 5000);
  EXPECT_TRUE(flags.get_bool("verbose", false));
  EXPECT_EQ(flags.get("name", ""), "fig4");
}

TEST(CliFlags, FallbacksWhenAbsent) {
  auto args = argv_of({});
  CliFlags flags(static_cast<int>(args.size()), args.data());
  EXPECT_EQ(flags.get_int("cycles", 123), 123);
  EXPECT_DOUBLE_EQ(flags.get_double("x", 2.5), 2.5);
  EXPECT_FALSE(flags.get_bool("verbose", false));
  EXPECT_FALSE(flags.has("anything"));
}

TEST(CliFlags, PositionalArguments) {
  auto args = argv_of({"input.txt", "--k=1", "more"});
  CliFlags flags(static_cast<int>(args.size()), args.data());
  ASSERT_EQ(flags.positional().size(), 2u);
  EXPECT_EQ(flags.positional()[0], "input.txt");
  EXPECT_EQ(flags.get_int("k", 0), 1);
}

TEST(CliFlags, RejectUnusedFlagsTypoDetection) {
  auto args = argv_of({"--cycels=10"});
  CliFlags flags(static_cast<int>(args.size()), args.data());
  flags.get_int("cycles", 0);  // the real flag name
  EXPECT_THROW(flags.reject_unused(), std::invalid_argument);
}

TEST(CliFlags, RejectUnusedPassesWhenAllQueried) {
  auto args = argv_of({"--cycles=10"});
  CliFlags flags(static_cast<int>(args.size()), args.data());
  flags.get_int("cycles", 0);
  EXPECT_NO_THROW(flags.reject_unused());
}

// A misspelled boolean must fail loudly: `--force=ture` reading as false
// would silently run without the requested behaviour.
TEST(CliFlags, GetBoolIsStrict) {
  auto args = argv_of({"--a=yes", "--b=1", "--c=no", "--d=0", "--e=false",
                       "--force=ture", "--f="});
  CliFlags flags(static_cast<int>(args.size()), args.data());
  EXPECT_TRUE(flags.get_bool("a", false));
  EXPECT_TRUE(flags.get_bool("b", false));
  EXPECT_FALSE(flags.get_bool("c", true));
  EXPECT_FALSE(flags.get_bool("d", true));
  EXPECT_FALSE(flags.get_bool("e", true));
  try {
    flags.get_bool("force", false);
    ADD_FAILURE() << "--force=ture was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "flag --force expects true or false, got 'ture'");
  }
  EXPECT_THROW(flags.get_bool("f", false), std::invalid_argument);
}

TEST(CliFlags, GetDoubleParses) {
  auto args = argv_of({"--jitter=4e-12"});
  CliFlags flags(static_cast<int>(args.size()), args.data());
  EXPECT_DOUBLE_EQ(flags.get_double("jitter", 0.0), 4e-12);
}


// ---------------------------------------------------------------- json

TEST(Json, ScalarsAndShortestRoundTrip) {
  Json j = Json::object();
  j.set("int", 42)
      .set("neg", -7)
      .set("flag", true)
      .set("ratio", 0.1)
      .set("name", "razor\"bus\"");
  const std::string out = j.dump(0);
  EXPECT_EQ(out,
            "{\"int\":42,\"neg\":-7,\"flag\":true,\"ratio\":0.1,"
            "\"name\":\"razor\\\"bus\\\"\"}");
}

TEST(Json, NestedArraysAndObjects) {
  Json j = Json::object();
  Json rows = Json::array();
  rows.push(Json::array().push(1).push(2.5));
  j.set("rows", std::move(rows));
  EXPECT_EQ(j.dump(0), "{\"rows\":[[1,2.5]]}");
}

TEST(Json, OverwriteKeepsInsertionOrder) {
  Json j = Json::object();
  j.set("a", 1).set("b", 2).set("a", 3);
  EXPECT_EQ(j.dump(0), "{\"a\":3,\"b\":2}");
}

TEST(Json, NonFiniteNumbersBecomeNull) {
  Json j = Json::object();
  j.set("inf", std::numeric_limits<double>::infinity());
  EXPECT_EQ(j.dump(0), "{\"inf\":null}");
}

TEST(Json, TypeMisuseThrows) {
  Json arr = Json::array();
  EXPECT_THROW(arr.set("x", 1), std::logic_error);
  Json obj = Json::object();
  EXPECT_THROW(obj.push(1), std::logic_error);
}

// ------------------------------------------------- json parser / round-trip

TEST(JsonParse, ScalarsAndContainers) {
  const Json j = Json::parse(
      R"({"int": -42, "num": 2.5, "flag": true, "off": false, "nil": null,)"
      R"( "arr": [1, [2]], "obj": {"k": "v"}})");
  ASSERT_TRUE(j.is_object());
  EXPECT_EQ(j.at("int").as_int(), -42);
  EXPECT_DOUBLE_EQ(j.at("num").as_double(), 2.5);
  EXPECT_TRUE(j.at("flag").as_bool());
  EXPECT_FALSE(j.at("off").as_bool());
  EXPECT_TRUE(j.at("nil").is_null());
  ASSERT_EQ(j.at("arr").size(), 2u);
  EXPECT_EQ(j.at("arr").at(0).as_int(), 1);
  EXPECT_EQ(j.at("arr").at(1).at(0).as_int(), 2);
  EXPECT_EQ(j.at("obj").at("k").as_string(), "v");
  EXPECT_EQ(j.find("missing"), nullptr);
  EXPECT_THROW(j.at("missing"), std::out_of_range);
}

TEST(JsonParse, IntegerAndDoubleStayDistinct) {
  EXPECT_TRUE(Json::parse("7").is_integer());
  EXPECT_FALSE(Json::parse("7.0").is_integer());
  EXPECT_TRUE(Json::parse("7.0").is_number());
  EXPECT_TRUE(Json::parse("1e3").is_number());
  EXPECT_FALSE(Json::parse("1e3").is_integer());
  // Integers past the long long range degrade to double rather than failing.
  EXPECT_TRUE(Json::parse("123456789012345678901234567890").is_number());
}

// parse(dump(x)) must reproduce x exactly: the ScenarioSpec loader and the
// bench-regression gate both read numbers the emitter wrote.
TEST(JsonParse, DumpParseRoundTripIsExact) {
  Json j = Json::object();
  j.set("third", 1.0 / 3.0)
      .set("tiny", 5e-324)
      .set("huge", 1.7976931348623157e308)
      .set("neg_zero", -0.0)
      .set("pi", 3.141592653589793)
      .set("max_ll", 9223372036854775807LL)
      .set("min_ll", -9223372036854775807LL - 1)
      .set("ratio", 0.1);
  for (int indent : {0, 2}) {
    const Json back = Json::parse(j.dump(indent));
    EXPECT_DOUBLE_EQ(back.at("third").as_double(), 1.0 / 3.0);
    EXPECT_DOUBLE_EQ(back.at("tiny").as_double(), 5e-324);
    EXPECT_DOUBLE_EQ(back.at("huge").as_double(), 1.7976931348623157e308);
    EXPECT_EQ(back.at("neg_zero").as_double(), 0.0);
    EXPECT_DOUBLE_EQ(back.at("pi").as_double(), 3.141592653589793);
    EXPECT_EQ(back.at("max_ll").as_int(), 9223372036854775807LL);
    EXPECT_EQ(back.at("min_ll").as_int(), -9223372036854775807LL - 1);
    EXPECT_DOUBLE_EQ(back.at("ratio").as_double(), 0.1);
    // Second round trip is byte-stable.
    EXPECT_EQ(back.dump(indent), j.dump(indent));
  }
}

TEST(JsonParse, EscapesAndUtf8RoundTrip) {
  Json j = Json::object();
  j.set("quotes", "a\"b\\c");
  j.set("control", std::string("line\nreturn\rtab\tbell\x07"));
  j.set("utf8", "caf\xc3\xa9 \xe6\xbc\xa2\xe5\xad\x97");  // café 漢字 as raw UTF-8
  const Json back = Json::parse(j.dump(0));
  EXPECT_EQ(back.at("quotes").as_string(), "a\"b\\c");
  EXPECT_EQ(back.at("control").as_string(), "line\nreturn\rtab\tbell\x07");
  EXPECT_EQ(back.at("utf8").as_string(), "caf\xc3\xa9 \xe6\xbc\xa2\xe5\xad\x97");
  EXPECT_EQ(Json::parse(back.dump(2)).dump(0), back.dump(0));
}

TEST(JsonParse, UnicodeEscapesDecodeToUtf8) {
  EXPECT_EQ(Json::parse(R"("\u0041\u00e9\u6f22")").as_string(),
            "A\xc3\xa9\xe6\xbc\xa2");
  // Surrogate pair: U+1F600.
  EXPECT_EQ(Json::parse(R"("\ud83d\ude00")").as_string(), "\xf0\x9f\x98\x80");
  EXPECT_EQ(Json::parse(R"("\b\f\/")").as_string(), "\b\f/");
}

TEST(JsonParse, MalformedInputsThrowWithPosition) {
  for (const char* bad :
       {"", "{", "[1,", "{\"a\":}", "tru", "nul", "01", "1.", "1e", "-",
        "\"unterminated", "\"bad\\q\"", "\"\\ud800\"", "\"\\ud800\\u0041\"",
        "{\"a\":1,}", "[1 2]", "{\"a\" 1}", "{1: 2}", "1 2", "\"tab\there\""}) {
    EXPECT_THROW(Json::parse(bad), JsonParseError) << "input: " << bad;
  }
  try {
    Json::parse("{\"a\": 1, }");
    FAIL() << "expected JsonParseError";
  } catch (const JsonParseError& e) {
    EXPECT_GT(e.offset(), 0u);
    EXPECT_NE(std::string(e.what()).find("offset"), std::string::npos);
  }
}

TEST(JsonParse, WhitespaceAndDuplicateKeys) {
  const Json j = Json::parse("  \r\n\t{ \"a\" : 1 , \"a\" : 2 }  ");
  EXPECT_EQ(j.size(), 1u);  // duplicate keys: last wins
  EXPECT_EQ(j.at("a").as_int(), 2);
}

TEST(JsonParse, DeepNestingIsRejectedNotACrash) {
  std::string deep(5000, '[');
  deep += std::string(5000, ']');
  EXPECT_THROW(Json::parse(deep), JsonParseError);
}

TEST(Json, EraseRemovesMember) {
  Json j = Json::object();
  j.set("keep", 1).set("drop", 2);
  EXPECT_TRUE(j.erase("drop"));
  EXPECT_FALSE(j.erase("drop"));
  EXPECT_EQ(j.dump(0), "{\"keep\":1}");
}

// ----------------------------------------------------------------- simd

// The default build must run the AVX2 kernels on an AVX2 host. Without this
// check a dispatch slip would leave every parity suite green while testing
// only the portable body.
TEST(Simd, Avx2HostSelectsAvx2Backend) {
#if !defined(RAZORBUS_SIMD_DISABLED) && defined(__x86_64__) && \
    (defined(__GNUC__) || defined(__clang__))
  const bool avx2 = __builtin_cpu_supports("avx2");
#else
  const bool avx2 = false;
#endif
  EXPECT_STREQ(simd::backend_name(), avx2 ? "avx2" : "portable");
}

}  // namespace
}  // namespace razorbus

// Width-generic datapath: 16-, 64- and 128-wire buses run end to end —
// characterise (shared width-independent tables), static sweep, closed-loop
// DVS — and the bit-parallel engine must match EngineMode::reference bit
// for bit at every width, exactly as the 32-wire parity suite demands
// (DESIGN.md §5/§10).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bus/businvert.hpp"
#include "bus/simulator.hpp"
#include "core/experiments.hpp"
#include "core/system.hpp"
#include "dvs/oracle.hpp"
#include "test_support.hpp"
#include "trace/io.hpp"
#include "trace/synthetic.hpp"

namespace razorbus {
namespace {

// One characterised system per width. The delay/energy tables depend only
// on the per-wire electrical design, so all widths share one cached build
// (the table hash excludes n_bits/shield_group).
const core::DvsBusSystem& system_at(int width) {
  static std::vector<std::unique_ptr<core::DvsBusSystem>> systems;
  static std::vector<int> widths;
  for (std::size_t i = 0; i < widths.size(); ++i)
    if (widths[i] == width) return *systems[i];
  interconnect::BusDesign design = interconnect::BusDesign::wide_bus(width);
  design.repeater_size = test_support::sized_paper_bus().repeater_size;
  core::SystemOptions options;
  options.lut_config = test_support::small_lut_config();
  systems.push_back(std::make_unique<core::DvsBusSystem>(design, options));
  widths.push_back(width);
  return *systems.back();
}

trace::Trace wide_trace(int width, std::size_t cycles, std::uint64_t seed,
                        trace::SyntheticStyle style = trace::SyntheticStyle::uniform) {
  trace::SyntheticConfig cfg;
  cfg.style = style;
  cfg.cycles = cycles;
  cfg.load_rate = 0.5;
  cfg.seed = seed;
  cfg.n_bits = width;
  return trace::generate_synthetic(cfg, "w" + std::to_string(width));
}

constexpr int kWidths[] = {16, 64, 128};

void expect_totals_identical(const bus::RunningTotals& a, const bus::RunningTotals& b,
                             const std::string& what) {
  EXPECT_EQ(a.cycles, b.cycles) << what;
  EXPECT_EQ(a.errors, b.errors) << what;
  EXPECT_EQ(a.shadow_failures, b.shadow_failures) << what;
  EXPECT_EQ(a.bus_energy, b.bus_energy) << what;
  EXPECT_EQ(a.overhead_energy, b.overhead_energy) << what;
}

TEST(Width, DesignAndClassifierAcceptWideBuses) {
  for (const int width : kWidths) {
    const interconnect::BusDesign design = interconnect::BusDesign::wide_bus(width);
    EXPECT_EQ(design.n_bits, width);
    EXPECT_NO_THROW(design.validate());
    const bus::WireClassifier classifier(design);
    EXPECT_EQ(classifier.n_bits(), width);
    EXPECT_EQ(classifier.bits_mask().popcount(), width);
  }
  EXPECT_THROW(interconnect::BusDesign::wide_bus(129), std::invalid_argument);
}

// The mask classifier must agree with the per-bit classifier on every wire
// at every width, including lane-boundary-straddling shield groups.
TEST(Width, MaskClassifierMatchesPerBitAtWideWidths) {
  for (const int width : kWidths) {
    interconnect::BusDesign design = interconnect::BusDesign::wide_bus(width);
    design.shield_group = 6;  // groups straddle the 64-bit lane boundary
    const bus::WireClassifier classifier(design);
    Rng rng(17);
    for (int trial = 0; trial < 500; ++trial) {
      const BusWord prev = BusWord::from_lanes(rng.next_u64(), rng.next_u64()) &
                           BusWord::mask_low(width);
      const BusWord cur = BusWord::from_lanes(rng.next_u64(), rng.next_u64()) &
                          BusWord::mask_low(width);
      const bus::ClassMaskSet s = classifier.masks(prev, cur);
      int mask_total = 0;
      bus::for_each_present_class(s, [&](int cls, const BusWord& mask) {
        for (int bit = 0; bit < BusWord::kMaxBits; ++bit)
          if (mask.test(bit)) {
            ASSERT_LT(bit, width) << "mask leaks past the bus width";
            ASSERT_EQ(classifier.classify(prev, cur, bit), cls) << "bit " << bit;
            ++mask_total;
          }
      });
      ASSERT_EQ(mask_total, width);
    }
  }
}

// Engine cross-check per width: bit-parallel (stepped AND batched) must be
// bit-identical to the reference engine, with and without jitter.
TEST(Width, EngineParityAtEveryWidth) {
  for (const int width : kWidths) {
    const auto& system = system_at(width);
    const tech::PvtCorner env{tech::ProcessCorner::slow, 100.0, 0.0};
    const trace::Trace trace = wide_trace(width, 1500, 0x5eedu + width);
    for (const double supply : {1.08, 1.14, 1.20}) {
      for (const double sigma : {0.0, 5e-12}) {
        bus::BusSimulator fast = system.make_simulator(env);
        bus::BusSimulator ref = system.make_simulator(env);
        bus::BusSimulator batched = system.make_simulator(env);
        ref.set_engine_mode(bus::EngineMode::reference);
        for (bus::BusSimulator* sim : {&fast, &ref, &batched}) {
          sim->set_supply(supply);
          if (sigma > 0.0) sim->set_timing_jitter(sigma, 0xabcdu);
        }
        for (std::size_t i = 0; i < trace.words.size(); ++i) {
          const bus::CycleResult f = fast.step(trace.words[i]);
          const bus::CycleResult r = ref.step(trace.words[i]);
          ASSERT_EQ(f.error, r.error) << width << " cycle " << i;
          ASSERT_EQ(f.shadow_failure, r.shadow_failure) << width << " cycle " << i;
          ASSERT_EQ(f.bus_energy, r.bus_energy) << width << " cycle " << i;
          ASSERT_EQ(f.worst_delay, r.worst_delay) << width << " cycle " << i;
        }
        Rng chunk(3);
        std::size_t i = 0;
        while (i < trace.words.size()) {
          const std::size_t n =
              std::min<std::size_t>(trace.words.size() - i, 1 + chunk.next_below(97));
          batched.run(trace.words.data() + i, n);
          i += n;
        }
        const std::string what =
            "width " + std::to_string(width) + " @" + std::to_string(supply);
        expect_totals_identical(fast.totals(), ref.totals(), what);
        expect_totals_identical(batched.totals(), ref.totals(), what + " [batched]");
      }
    }
  }
}

// A 128-wire bus in 6-wire shield groups has a tabulatable group across
// the 64-bit lane boundary, the one group whose combo row takes the
// two-lane extract. Stepped and chunked runs must match the reference
// engine bit for bit on and off the table path.
TEST(Width, BatchedRunOnLaneStraddlingGroups) {
  interconnect::BusDesign design = interconnect::BusDesign::wide_bus(128);
  design.shield_group = 6;
  design.repeater_size = test_support::sized_paper_bus().repeater_size;
  const bus::detail::GroupLayout layout = bus::detail::GroupLayout::build(design);
  ASSERT_TRUE(layout.tabulatable);
  ASSERT_TRUE(std::any_of(layout.groups.begin(), layout.groups.end(),
                          [](const bus::detail::WireGroup& g) {
                            return g.straddles && g.start < 64 && g.start + g.width > 64;
                          }));
  core::SystemOptions options;
  options.lut_config = test_support::small_lut_config();
  const core::DvsBusSystem system(design, options);

  const tech::PvtCorner env{tech::ProcessCorner::slow, 100.0, 0.0};
  const trace::Trace trace = wide_trace(128, 1500, 0x57add1eu);
  for (const double supply : {1.08, 1.20}) {
    for (const double sigma : {0.0, 5e-12}) {
      bus::BusSimulator stepped = system.make_simulator(env);
      bus::BusSimulator ref = system.make_simulator(env);
      bus::BusSimulator batched = system.make_simulator(env);
      ref.set_engine_mode(bus::EngineMode::reference);
      for (bus::BusSimulator* sim : {&stepped, &ref, &batched}) {
        sim->set_supply(supply);
        if (sigma > 0.0) sim->set_timing_jitter(sigma, 0x6a6au);
      }
      for (std::size_t i = 0; i < trace.words.size(); ++i) {
        const bus::CycleResult f = stepped.step(trace.words[i]);
        const bus::CycleResult r = ref.step(trace.words[i]);
        ASSERT_EQ(f.error, r.error) << "cycle " << i;
        ASSERT_EQ(f.shadow_failure, r.shadow_failure) << "cycle " << i;
        ASSERT_EQ(f.bus_energy, r.bus_energy) << "cycle " << i;
        ASSERT_EQ(f.worst_delay, r.worst_delay) << "cycle " << i;
      }
      Rng chunk(5);
      std::size_t i = 0;
      while (i < trace.words.size()) {
        const std::size_t n =
            std::min<std::size_t>(trace.words.size() - i, 1 + chunk.next_below(97));
        batched.run(trace.words.data() + i, n);
        i += n;
      }
      const std::string what = "straddling @" + std::to_string(supply) + " sigma " +
                               std::to_string(sigma * 1e12) + " ps";
      expect_totals_identical(stepped.totals(), ref.totals(), what);
      expect_totals_identical(batched.totals(), ref.totals(), what + " [batched]");
    }
  }
}

// At the marginal supply, a wide bus's error rate tracks the 32-wire bus's
// per-wire behaviour: the same shield-group structure just repeats. Sanity
// check: errors occur at low supply and vanish at nominal, at every width.
TEST(Width, ErrorOnsetBehavesAcrossWidths) {
  const tech::PvtCorner env{tech::ProcessCorner::slow, 100.0, 0.0};
  for (const int width : kWidths) {
    const auto& system = system_at(width);
    const trace::Trace trace = wide_trace(width, 2000, 7,
                                          trace::SyntheticStyle::worst_case);
    bus::BusSimulator low = system.make_simulator(env);
    low.set_supply(1.06);
    low.run(trace.words);
    EXPECT_GT(low.totals().errors, 0u) << "width " << width;
    bus::BusSimulator nom = system.make_simulator(env);
    nom.set_supply(1.20);
    nom.run(trace.words);
    EXPECT_EQ(nom.totals().errors, 0u) << "width " << width;
  }
}

// End to end: characterise -> static sweep -> closed-loop DVS at each
// width. The sweep's error rate must fall monotonically with supply and
// the closed loop must scale below nominal with bounded errors.
TEST(Width, EndToEndSweepAndClosedLoop) {
  const tech::PvtCorner env{tech::ProcessCorner::typical, 100.0, 0.0};
  for (const int width : kWidths) {
    const auto& system = system_at(width);
    const trace::Trace trace = wide_trace(width, 30000, 0xc0ffee + width);

    const core::StaticSweepResult sweep =
        core::static_voltage_sweep(system, env, {trace});
    ASSERT_GT(sweep.points.size(), 1u) << "width " << width;
    for (std::size_t i = 1; i < sweep.points.size(); ++i) {
      EXPECT_LE(sweep.points[i].error_rate, sweep.points[i - 1].error_rate + 1e-12)
          << "width " << width << " point " << i;
      EXPECT_GT(sweep.points[i].bus_energy, sweep.points[i - 1].bus_energy)
          << "width " << width << " point " << i;
    }
    EXPECT_EQ(sweep.points.back().error_rate, 0.0) << "nominal must be clean";

    core::DvsRunConfig cfg;
    cfg.controller.window_cycles = 2000;
    cfg.regulator_delay_cycles = 500;
    const core::DvsRunReport report = core::run_closed_loop(system, env, trace, cfg);
    EXPECT_EQ(report.totals.cycles, trace.words.size()) << "width " << width;
    EXPECT_EQ(report.totals.shadow_failures, 0u) << "width " << width;
    EXPECT_LT(report.average_supply, system.design().node.vdd_nominal)
        << "width " << width;
    EXPECT_GE(report.average_supply, report.floor_supply - 1e-9) << "width " << width;
    EXPECT_GT(report.energy_gain(), 0.0) << "width " << width;
    EXPECT_LT(report.error_rate(), 0.05) << "width " << width;
  }
}

// The oracle selector classifies wide transitions bit-parallel; its
// critical index must equal the max over per-wire classes.
TEST(Width, OracleCriticalIndexMatchesPerWire) {
  for (const int width : kWidths) {
    const auto& system = system_at(width);
    const tech::PvtCorner env{tech::ProcessCorner::typical, 100.0, 0.0};
    const dvs::OracleSelector oracle(system.design(), system.table(), env);
    const bus::WireClassifier classifier(system.design());
    Rng rng(29);
    for (int trial = 0; trial < 200; ++trial) {
      const BusWord prev = BusWord::from_lanes(rng.next_u64(), rng.next_u64()) &
                           BusWord::mask_low(width);
      const BusWord cur = BusWord::from_lanes(rng.next_u64(), rng.next_u64()) &
                          BusWord::mask_low(width);
      std::size_t expect = 0;
      for (int bit = 0; bit < width; ++bit)
        expect = std::max(expect,
                          oracle.class_critical_index()[static_cast<std::size_t>(
                              classifier.classify(prev, cur, bit))]);
      EXPECT_EQ(oracle.critical_grid_index(prev, cur), expect);
    }
  }
}

// A 32-bit CPU trace widened 2x/4x drives the 64-/128-wire buses end to
// end, and the trace file format round-trips the wide words (format v2).
TEST(Width, WidenedTracesRoundTripAndRun) {
  trace::SyntheticConfig cfg;
  cfg.cycles = 8000;
  cfg.load_rate = 0.8;
  cfg.seed = 77;
  const trace::Trace narrow = trace::generate_synthetic(cfg, "narrow");

  for (const int factor : {2, 4}) {
    const trace::Trace wide = trace::widen(narrow, factor);
    EXPECT_EQ(wide.n_bits, 32 * factor);
    EXPECT_EQ(wide.words.size(), narrow.words.size() / static_cast<std::size_t>(factor));
    // Lane content: word k of the packed trace carries words k*factor...
    for (int k : {0, 5, 100}) {
      for (int j = 0; j < factor; ++j) {
        const BusWord part =
            (wide.words[static_cast<std::size_t>(k)] >> (32 * j)) & 0xffffffffull;
        EXPECT_EQ(part,
                  narrow.words[static_cast<std::size_t>(k * factor + j)]);
      }
    }

    std::stringstream buffer;
    trace::save_binary(wide, buffer);
    const auto loaded = trace::load_binary(buffer);
    ASSERT_TRUE(loaded.has_value());
    EXPECT_EQ(loaded->n_bits, wide.n_bits);
    EXPECT_EQ(loaded->words, wide.words);

    const auto& system = system_at(32 * factor);
    const core::DvsRunReport report = core::run_closed_loop(
        system, tech::PvtCorner{tech::ProcessCorner::typical, 100.0, 0.0}, wide);
    EXPECT_EQ(report.totals.cycles, wide.words.size());
  }
}

// Traces wider than the bus must be rejected loudly, not truncated.
TEST(Width, OverwideTraceRejected) {
  const trace::Trace wide = wide_trace(64, 100, 3);
  EXPECT_THROW(core::run_closed_loop(system_at(16), tech::typical_corner(), wide),
               std::invalid_argument);
}

}  // namespace
}  // namespace razorbus

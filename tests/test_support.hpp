// Shared fixtures for the test suites.
//
// Characterising the full paper bus costs thousands of transient runs, so
// tests share two lazily-built singletons:
//   * small_system(): a narrow supply grid / reduced corner set — cheap to
//     build (seconds), good enough for API-level behaviour tests;
//   * paper_system(): the full default characterization, shared with the
//     benches via the on-disk cache — used by end-to-end result tests.
// It also holds the file and subprocess helpers of the suites that spawn
// the `campaign` binary and compare reports.
#pragma once

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "core/system.hpp"
#include "interconnect/bus_design.hpp"
#include "lut/cache.hpp"
#include "lut/table.hpp"
#include "tech/device.hpp"
#include "util/json.hpp"

namespace razorbus::test_support {

inline lut::LutConfig small_lut_config() {
  lut::LutConfig config;
  config.vmin = 1.06;
  config.vmax = 1.20;
  config.temps = {100.0};
  config.corners = {tech::ProcessCorner::slow, tech::ProcessCorner::typical};
  return config;
}

// Paper bus with repeaters sized at the worst-case corner (from the point
// store of the cache directory current at the first call).
inline const interconnect::BusDesign& sized_paper_bus() {
  static const interconnect::BusDesign bus = [] {
    interconnect::BusDesign b = interconnect::BusDesign::paper_bus();
    const tech::DriverModel driver(b.node);
    lut::size_repeaters_from_store(b, driver, tech::worst_case_corner());
    return b;
  }();
  return bus;
}

inline const core::DvsBusSystem& small_system() {
  static const core::DvsBusSystem system = [] {
    core::SystemOptions options;
    options.lut_config = small_lut_config();
    return core::DvsBusSystem(sized_paper_bus(), options);
  }();
  return system;
}

inline const core::DvsBusSystem& paper_system() {
  static const core::DvsBusSystem system = [] {
    const core::SystemOptions options;
    return core::DvsBusSystem(interconnect::BusDesign::paper_bus(), options);
  }();
  return system;
}

// The bytes of `path`; a file that cannot be opened fails the test.
inline std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(static_cast<bool>(in)) << "missing " << path;
  std::ostringstream bytes;
  bytes << in.rdbuf();
  return bytes.str();
}

// Runs `cmd` under /bin/sh; std::system's status (0 = exit code 0).
inline int run_cmd(const std::string& cmd) { return std::system(cmd.c_str()); }

// A BENCH_*.json report without its wall-clock time and the host's hardware
// thread count, the only fields that move between runs and machines
// (results are bit-identical at any thread count). Written next to the
// report as <report>.golden, the form tests/golden/ stores.
inline std::string normalized_report(const std::string& path) {
  Json report = Json::parse(slurp(path));
  report.erase("wall_seconds");
  report.erase("threads_resolved");
  const std::string text = report.dump(2) + "\n";
  std::ofstream(path + ".golden", std::ios::binary) << text;
  return text;
}

}  // namespace razorbus::test_support

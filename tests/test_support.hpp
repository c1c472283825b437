// Shared fixtures for the test suites.
//
// Characterising the full paper bus costs thousands of transient runs, so
// tests share two lazily-built singletons:
//   * small_system(): a narrow supply grid / reduced corner set — cheap to
//     build (seconds), good enough for API-level behaviour tests;
//   * paper_system(): the full default characterization, shared with the
//     benches via the on-disk cache — used by end-to-end result tests.
#pragma once

#include "core/system.hpp"
#include "interconnect/bus_design.hpp"
#include "lut/cache.hpp"
#include "lut/table.hpp"
#include "tech/device.hpp"

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

}  // namespace razorbus::test_support

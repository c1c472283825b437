// Disk cache for characterised lookup tables.
//
// Building a table costs thousands of transient simulations (tens of
// seconds); every bench and example would otherwise pay that. The cache
// stores tables keyed by a hash of everything they depend on, so a change
// to any design or model parameter transparently re-characterises. The
// repeater sizing every system starts from is served from the same
// directory's point store.
#pragma once

#include <functional>
#include <string>

#include "lut/table.hpp"

namespace razorbus::lut {

// Returns the cache directory, creating it if needed. Honours the
// RAZORBUS_CACHE_DIR environment variable; defaults to ".razorbus_cache"
// in the current working directory.
std::string cache_directory();

// Loads the table for (design, config) from the cache, or builds and stores
// it. `progress` forwards to DelayEnergyTable::build on a cache miss.
//
// Builds consult the design's incremental point store (point_store.hpp) in
// the same cache directory, so only points no table has ever simulated cost
// transient runs; tables with a positive tolerance additionally get the
// lazy refiner attached for lookups below their characterised range. `stats` (optional)
// receives the build's cost counters — all zero on a memo or disk hit.
DelayEnergyTable build_or_load(const interconnect::BusDesign& design,
                               const tech::DriverModel& driver, const LutConfig& config,
                               const std::function<void(int, int)>& progress = {},
                               BuildStats* stats = nullptr);

// interconnect::size_repeaters with each candidate answered from the point
// store of the unsized design (`repeater_size = 0`) in cache_directory(),
// keyed by the candidate's content hash, the sizing conditions and the
// worst-case pattern class. Stored values are the simulator's raw doubles,
// so the chosen size is bit-identical to the direct bisection; a warm store
// runs no transient simulation at all. Concurrent sizings of one design
// serialise on a file lock, so only the first process simulates.
double size_repeaters_from_store(interconnect::BusDesign& design,
                                 const tech::DriverModel& driver,
                                 const tech::PvtCorner& sizing_corner);

}  // namespace razorbus::lut

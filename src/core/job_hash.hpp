// Content-addressed identity of a campaign job (docs/campaign-service.md).
//
// A campaign job is a pure function of its resolved spec, the bytes of any
// trace file it reads, and the simulation code version: results are
// bit-identical across thread counts, hosts and reruns (DESIGN.md §9), so
// two jobs with equal identity produce byte-identical BENCH reports. The
// job hash therefore keys the campaign result cache — a completed job
// with the same hash is replayed from the cache verbatim instead of
// simulated — and the CI `campaign-cache` leg keys its cache restore on
// the scheme version below.
#pragma once

#include <cstdint>
#include <string>

#include "core/scenario_spec.hpp"

namespace razorbus::core {

// Version of the HASH SCHEME itself: bump when the identity string's
// layout changes, or when report bytes can change for a reason the inputs
// below cannot see (a bench harness reformats its report, a controller
// default moves). Simulator-value changes are already covered by
// lut::kSimulatorVersion, which is mixed in. CI keys the campaign result
// cache as `campaign-cache-v<N>` on this constant — keep them in sync
// (.github/workflows/ci.yml).
constexpr std::uint32_t kJobHashSchemeVersion = 2;

// The canonical identity string: newline-separated scheme version,
// simulator version, job name, the compact canonical JSON of the resolved
// spec (field order is fixed by ScenarioSpec::to_json), and — for file
// traces — a content hash of the trace file bytes (an unreadable file
// contributes a marker, so hashing never fails before the job itself
// would). Exposed for tests; `campaign list <campaign.json>` prints the
// resulting hash of every job.
std::string job_identity(const ScenarioJob& job);

// FNV-1a of job_identity(): the result-cache key. Any field change in the
// resolved spec — cycles, seed, width, controller tuning, engine, stream
// mode, lut_tolerance, ... — yields a new hash.
std::uint64_t job_content_hash(const ScenarioJob& job);

// 16-digit lowercase hex of job_content_hash(); used for cache entry and
// status file names.
std::string job_hash_hex(const ScenarioJob& job);

}  // namespace razorbus::core

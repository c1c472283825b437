// Filesystem primitives shared by the campaign service (docs/campaign-service.md).
//
// Everything the service persists — queue records, claims, done records,
// cache entries, status snapshots, replayed reports — goes through
// write_file_atomic: a private temp file renamed over the final path, by
// the same util::publish_atomic helper the LUT table cache and point
// store publish through (util/atomic_file.hpp).
// A reader therefore sees either the previous complete file or the new
// complete file, never a torn one; torn files can only be left by a crash
// BEFORE the rename, and every service reader tolerates those by
// treating an unparseable file as absent.
#pragma once

#include <string>

namespace razorbus::svc {

// Reads a whole file; throws std::runtime_error when it cannot be opened.
std::string read_file(const std::string& path);

// Writes `content` to a sibling temp file and renames it over `path`.
// Throws std::runtime_error when the write or rename fails.
void write_file_atomic(const std::string& path, const std::string& content);

// Publishes `content` at `path` only if nothing is there yet: the complete
// temp file is link(2)ed to `path`, so the file appears with its whole
// body or not at all. Returns false when `path` already exists; throws
// std::runtime_error on any other failure.
bool create_file_exclusive(const std::string& path, const std::string& content);

// POSIX-shell single-quoting: inhibits every expansion, survives spaces,
// '$', backticks and double quotes in operator-supplied paths.
std::string shell_quote(const std::string& s);

}  // namespace razorbus::svc

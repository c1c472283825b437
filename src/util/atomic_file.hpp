// Atomic file publication: the one writer behind the LUT table cache, the
// point store and every file the campaign service persists.
//
// A file is published by streaming its bytes into a private sibling temp
// file and renaming that over the final path. A crash mid-write or a
// concurrent second writer can then never leave a torn file: readers see
// the previous complete file, the new complete file, or no file. The bytes
// go straight from the caller's writer to the temp file, with no second
// in-memory copy. Each caller keeps its own error policy: the helpers
// report what failed and never throw for it.
#pragma once

#include <functional>
#include <iosfwd>
#include <string>
#include <system_error>

namespace razorbus::util {

// A fresh sibling name `<path>.<tag>.<token>.<serial>`, unique across
// threads (a process-local serial) and processes (a random per-process
// token); used for temp files and tombstones.
std::string unique_sibling(const std::string& path, const std::string& tag);

using FileWriter = std::function<void(std::ostream&)>;

struct Published {
  enum class Status { ok, open_failed, write_failed, rename_failed };
  Status status = Status::ok;
  std::string tmp_path;   // the sibling temp file the bytes went to
  std::error_code error;  // why the rename failed

  bool ok() const { return status == Status::ok; }
};

// Streams `write` into a fresh sibling temp file of `path`; on success the
// file is left at `tmp_path` for the caller to publish. A failed open or
// write removes the temp file.
Published write_temp_file(const std::string& path, const FileWriter& write);

// write_temp_file, then rename over `path`. A failed rename removes the
// temp file.
Published publish_atomic(const std::string& path, const FileWriter& write);

}  // namespace razorbus::util

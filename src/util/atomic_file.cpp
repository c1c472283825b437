#include "util/atomic_file.hpp"

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>

namespace razorbus::util {

namespace {

// Random per-process token for temp-file names. Entropy is exactly what
// cross-process uniqueness needs here, and the token never reaches
// simulation state — results are identical whatever it draws.
std::uint64_t process_token() {
  // razorlint: allow(no-raw-random): naming entropy, not a simulation draw.
  std::random_device rd;
  return (static_cast<std::uint64_t>(rd()) << 32) ^ rd();
}

}  // namespace

std::string unique_sibling(const std::string& path, const std::string& tag) {
  static const std::uint64_t token = process_token();
  // razorlint: allow(no-mutable-static): atomic counter for temp-file name
  // uniqueness within the process; file contents are identical regardless.
  static std::atomic<unsigned> serial{0};
  std::ostringstream name;
  name << path << "." << tag << "." << std::hex << token << "." << serial++;
  return name.str();
}

Published write_temp_file(const std::string& path, const FileWriter& write) {
  Published result;
  result.tmp_path = unique_sibling(path, "tmp");
  std::ofstream out(result.tmp_path, std::ios::binary | std::ios::trunc);
  if (!out) {
    result.status = Published::Status::open_failed;
    return result;
  }
  write(out);
  out.flush();
  if (!out) {
    out.close();
    std::error_code ignore;
    std::filesystem::remove(result.tmp_path, ignore);
    result.status = Published::Status::write_failed;
  }
  return result;
}

Published publish_atomic(const std::string& path, const FileWriter& write) {
  Published result = write_temp_file(path, write);
  if (!result.ok()) return result;
  std::filesystem::rename(result.tmp_path, path, result.error);
  if (result.error) {
    std::error_code ignore;
    std::filesystem::remove(result.tmp_path, ignore);
    result.status = Published::Status::rename_failed;
  }
  return result;
}

}  // namespace razorbus::util

#include "svc/fsio.hpp"

#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>
#include <stdexcept>
#include <system_error>

namespace razorbus::svc {

namespace {

// Random per-process token for temp-file names — same idiom and rationale
// as the point store and table cache writers: entropy is exactly what
// cross-process uniqueness needs, and the token never reaches simulation
// state.
std::uint64_t process_token() {
  // razorlint: allow(no-raw-random): naming entropy, not a simulation draw.
  std::random_device rd;
  return (static_cast<std::uint64_t>(rd()) << 32) ^ rd();
}

}  // namespace

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

std::string unique_sibling(const std::string& path, const std::string& tag) {
  static const std::uint64_t token = process_token();
  // razorlint: allow(no-mutable-static): temp-name serial — naming only,
  // never simulation state (same precedent as lut::PointStore::flush).
  static std::atomic<unsigned> serial{0};
  std::ostringstream name;
  name << path << "." << tag << "." << std::hex << token << "." << serial++;
  return name.str();
}

namespace {

// Writes `content` to a fresh sibling temp file and returns its path.
std::string write_temp(const std::string& path, const std::string& content) {
  const std::string tmp_path = unique_sibling(path, "tmp");
  std::ofstream out(tmp_path, std::ios::binary | std::ios::trunc);
  if (!out) throw std::runtime_error("cannot write " + tmp_path);
  out << content;
  out.flush();
  if (!out) {
    std::error_code ec;
    std::filesystem::remove(tmp_path, ec);
    throw std::runtime_error("short write to " + tmp_path);
  }
  return tmp_path;
}

}  // namespace

void write_file_atomic(const std::string& path, const std::string& content) {
  const std::string tmp_path = write_temp(path, content);
  std::error_code ec;
  std::filesystem::rename(tmp_path, path, ec);
  if (ec) {
    std::error_code ignore;
    std::filesystem::remove(tmp_path, ignore);
    throw std::runtime_error("cannot rename " + tmp_path + " -> " + path + ": " +
                             ec.message());
  }
}

bool create_file_exclusive(const std::string& path, const std::string& content) {
  const std::string tmp_path = write_temp(path, content);
  const bool created = ::link(tmp_path.c_str(), path.c_str()) == 0;
  const int err = errno;
  std::error_code ignore;
  std::filesystem::remove(tmp_path, ignore);
  if (!created && err != EEXIST)
    throw std::runtime_error("cannot link " + tmp_path + " -> " + path + ": " +
                             std::error_code(err, std::generic_category()).message());
  return created;
}

std::string shell_quote(const std::string& s) {
  std::string out = "'";
  for (const char c : s) {
    if (c == '\'')
      out += "'\\''";
    else
      out += c;
  }
  out += "'";
  return out;
}

}  // namespace razorbus::svc

#include "svc/fsio.hpp"

#include <unistd.h>

#include <cerrno>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <system_error>

#include "util/atomic_file.hpp"

namespace razorbus::svc {

namespace {

util::FileWriter content_writer(const std::string& content) {
  return [&content](std::ostream& out) { out << content; };
}

// Turns a failed util publish into the service's exceptions.
util::Published checked(util::Published result, const std::string& path) {
  switch (result.status) {
    case util::Published::Status::ok: return result;
    case util::Published::Status::open_failed:
      throw std::runtime_error("cannot write " + result.tmp_path);
    case util::Published::Status::write_failed:
      throw std::runtime_error("short write to " + result.tmp_path);
    case util::Published::Status::rename_failed: break;
  }
  throw std::runtime_error("cannot rename " + result.tmp_path + " -> " + path + ": " +
                           result.error.message());
}

}  // namespace

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

void write_file_atomic(const std::string& path, const std::string& content) {
  checked(util::publish_atomic(path, content_writer(content)), path);
}

bool create_file_exclusive(const std::string& path, const std::string& content) {
  const std::string tmp_path =
      checked(util::write_temp_file(path, content_writer(content)), path).tmp_path;
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

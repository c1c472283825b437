#include "util/cli.hpp"

#include <cstdio>
#include <stdexcept>

namespace razorbus {

CliFlags::CliFlags(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(arg);
      continue;
    }
    const auto eq = arg.find('=');
    if (eq == std::string::npos) {
      values_[arg.substr(2)] = "true";
    } else {
      const std::string name = arg.substr(2, eq - 2);
      if (name.empty())
        throw std::invalid_argument("CliFlags: empty flag name in '" + arg + "'");
      values_[name] = arg.substr(eq + 1);
    }
  }
}

bool CliFlags::has(const std::string& name) const {
  queried_[name] = true;
  return values_.count(name) != 0;
}

std::string CliFlags::get(const std::string& name, const std::string& fallback) const {
  queried_[name] = true;
  auto it = values_.find(name);
  return it == values_.end() ? fallback : it->second;
}

std::int64_t CliFlags::get_int(const std::string& name, std::int64_t fallback) const {
  queried_[name] = true;
  auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  try {
    std::size_t used = 0;
    const std::int64_t value = std::stoll(it->second, &used);
    if (used != it->second.size()) throw std::invalid_argument("trailing characters");
    return value;
  } catch (const std::exception&) {
    throw std::invalid_argument("flag --" + name + " expects an integer, got '" +
                                it->second + "'");
  }
}

double CliFlags::get_double(const std::string& name, double fallback) const {
  queried_[name] = true;
  auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  try {
    std::size_t used = 0;
    const double value = std::stod(it->second, &used);
    if (used != it->second.size()) throw std::invalid_argument("trailing characters");
    return value;
  } catch (const std::exception&) {
    throw std::invalid_argument("flag --" + name + " expects a number, got '" +
                                it->second + "'");
  }
}

bool CliFlags::get_bool(const std::string& name, bool fallback) const {
  queried_[name] = true;
  auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  const std::string& v = it->second;
  if (v == "true" || v == "1" || v == "yes") return true;
  if (v == "false" || v == "0" || v == "no") return false;
  throw std::invalid_argument("flag --" + name + " expects true or false, got '" + v +
                              "'");
}

std::vector<std::string> CliFlags::unused() const {
  std::vector<std::string> out;
  for (const auto& [name, value] : values_) {
    (void)value;
    if (!queried_.count(name)) out.push_back(name);
  }
  return out;
}

void CliFlags::reject_unused() const {
  const auto stray = unused();
  if (!stray.empty()) {
    std::string msg = "unknown flag(s):";
    for (const auto& name : stray) msg += " --" + name;
    throw std::invalid_argument(msg);
  }
}

int cli_main(int argc, const char* const* argv,
             const std::function<int(const CliFlags&)>& body) {
  const char* program = argc > 0 ? argv[0] : "program";
  try {
    const CliFlags flags(argc, argv);
    return body(flags);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: error: %s\n", program, e.what());
    return 2;
  }
}

}  // namespace razorbus

#include "common/cli.hh"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>

#include "common/check.hh"
#include "common/file_util.hh"
#include "common/str.hh"

namespace qosrm {

CliArgs::CliArgs(int argc, char** argv,
                 std::initializer_list<const char*> boolean_flags) {
  const std::set<std::string> boolean(boolean_flags.begin(), boolean_flags.end());
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(std::move(arg));
      continue;
    }
    arg.erase(0, 2);
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      values_[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else if (boolean.count(arg) == 0 && i + 1 < argc &&
               std::string(argv[i + 1]).rfind("--", 0) != 0) {
      values_[arg] = argv[++i];
    } else {
      values_[arg] = std::nullopt;
    }
  }
}

bool CliArgs::has(const std::string& name) const { return values_.count(name) > 0; }

bool CliArgs::reject_unknown(std::span<const char* const> known) const {
  const std::set<std::string> known_set(known.begin(), known.end());
  for (const auto& [name, value] : values_) {
    if (known_set.count(name) == 0) {
      std::fprintf(stderr, "unknown flag --%s (see --help)\n", name.c_str());
      return false;
    }
  }
  if (!positional_.empty()) {
    std::fprintf(stderr,
                 "unexpected argument '%s' (flags take --name=value or "
                 "--name value form; see --help)\n",
                 positional_.front().c_str());
    return false;
  }
  return true;
}

const std::string* CliArgs::value_of(const std::string& name) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return nullptr;
  if (!it->second.has_value()) {
    std::fprintf(stderr, "--%s needs a value (--%s=VALUE)\n", name.c_str(),
                 name.c_str());
    std::exit(1);
  }
  return &*it->second;
}

std::string CliArgs::get(const std::string& name, const std::string& fallback) const {
  const std::string* value = value_of(name);
  return value != nullptr ? *value : fallback;
}

std::int64_t CliArgs::get_int(const std::string& name, std::int64_t fallback) const {
  const std::string* present = value_of(name);
  if (present == nullptr) return fallback;
  const std::string& value = *present;
  errno = 0;
  char* end = nullptr;
  const long long parsed = std::strtoll(value.c_str(), &end, 10);
  if (value.empty() || end != value.c_str() + value.size() || errno == ERANGE) {
    const std::string msg =
        format("bad --%s value '%s' (want a decimal integer)", name.c_str(),
               value.c_str());
    QOSRM_CHECK_MSG(false, msg.c_str());
  }
  return parsed;
}

int CliArgs::get_int32(const std::string& name, int fallback) const {
  const std::int64_t parsed = get_int(name, fallback);
  if (parsed < std::numeric_limits<int>::min() ||
      parsed > std::numeric_limits<int>::max()) {
    const std::string msg =
        format("bad --%s value '%s' (out of range for a 32-bit integer)",
               name.c_str(), get(name, "").c_str());
    QOSRM_CHECK_MSG(false, msg.c_str());
  }
  return static_cast<int>(parsed);
}

double CliArgs::get_double(const std::string& name, double fallback) const {
  const std::string* present = value_of(name);
  if (present == nullptr) return fallback;
  const std::string& value = *present;
  errno = 0;
  char* end = nullptr;
  const double parsed = std::strtod(value.c_str(), &end);
  // ERANGE on underflow still yields the nearest representable value, so only
  // a true overflow (+-HUGE_VAL) is rejected alongside garbage and emptiness.
  const bool overflow =
      errno == ERANGE && (parsed == HUGE_VAL || parsed == -HUGE_VAL);
  if (value.empty() || end != value.c_str() + value.size() || overflow) {
    const std::string msg = format("bad --%s value '%s' (want a number)",
                                   name.c_str(), value.c_str());
    QOSRM_CHECK_MSG(false, msg.c_str());
  }
  return parsed;
}

bool CliArgs::get_bool(const std::string& name, bool fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  if (!it->second.has_value()) return true;
  const std::string& value = *it->second;
  if (value == "true" || value == "1" || value == "yes") return true;
  if (value != "false" && value != "0" && value != "no") {
    const std::string msg =
        format("bad --%s value '%s' (want true|1|yes|false|0|no)",
               name.c_str(), value.c_str());
    QOSRM_CHECK_MSG(false, msg.c_str());
  }
  return false;
}

bool probe_outputs(const std::vector<OutputFlag>& outputs) {
  for (const OutputFlag& output : outputs) {
    std::string error;
    if (!output.path.empty() && !probe_writable_atomic(output.path, &error)) {
      std::fprintf(stderr, "--%s: %s\n", output.flag.c_str(), error.c_str());
      return false;
    }
  }
  return true;
}

bool write_output(const std::string& flag, const std::string& path,
                  const std::string& text) {
  std::string error;
  if (write_file_atomic(path, text, &error)) return true;
  std::fprintf(stderr, "--%s: %s\n", flag.c_str(), error.c_str());
  return false;
}

}  // namespace qosrm

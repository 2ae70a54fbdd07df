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

namespace {

const CliFlag* find_flag(std::span<const CliFlag> flags,
                         const std::string& name) {
  for (const CliFlag& flag : flags) {
    if (name == flag.name) return &flag;
  }
  return nullptr;
}

/// The --help text: each flag's spelling, then its help line without code
/// marks, its default and its bound.
std::string usage_text(std::span<const CliFlag> flags) {
  std::string text = "flags (--name=VALUE or --name VALUE):\n";
  for (const CliFlag& flag : flags) {
    text.append("  --").append(flag.name);
    if (flag.placeholder[0] != '\0') text.append("=").append(flag.placeholder);
    text += "\n      ";
    for (const char* c = flag.help; *c != '\0'; ++c) {
      if (*c != '`') text += *c;
    }
    if (flag.fallback[0] != '\0') {
      text.append(" (default ").append(flag.fallback).append(")");
    }
    if (flag.min.has_value()) {
      text.append(" (at least ").append(std::to_string(*flag.min)).append(")");
    }
    text += "\n";
  }
  return text + "  --help\n      print this text and exit\n";
}

}  // namespace

CliArgs::CliArgs(int argc, char** argv, std::span<const CliFlag> flags)
    : flags_(flags) {
  // Every default must pass its own flag's checks: read each one while no
  // value is stored.
  for (const CliFlag& flag : flags) {
    if (flag.kind == CliFlag::kInt) (void)get_int(flag.name);
    if (flag.kind == CliFlag::kReal) (void)get_double(flag.name);
    if (flag.kind == CliFlag::kBool) (void)get_bool(flag.name);
  }

  std::vector<std::string> positional;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional.push_back(std::move(arg));
      continue;
    }
    arg.erase(0, 2);
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      values_[arg.substr(0, eq)] = arg.substr(eq + 1);
      continue;
    }
    const CliFlag* flag = find_flag(flags, arg);
    const bool is_switch =
        arg == "help" || (flag != nullptr && flag->placeholder[0] == '\0');
    if (!is_switch && i + 1 < argc &&
        std::string(argv[i + 1]).rfind("--", 0) != 0) {
      values_[arg] = argv[++i];
    } else {
      values_[arg] = std::nullopt;
    }
  }

  if (has("help")) {
    std::fputs(usage_text(flags).c_str(), stdout);
    std::exit(0);
  }
  // A typo'd flag name or a stray argument must fail loudly, never silently
  // run with defaults labeled as if the request had been honored.
  for (const auto& [name, value] : values_) {
    if (find_flag(flags, name) == nullptr) {
      std::fprintf(stderr, "unknown flag --%s (see --help)\n", name.c_str());
      std::exit(1);
    }
  }
  if (!positional.empty()) {
    std::fprintf(stderr,
                 "unexpected argument '%s' (flags take --name=value or "
                 "--name value form; see --help)\n",
                 positional.front().c_str());
    std::exit(1);
  }
}

bool CliArgs::has(const std::string& name) const { return values_.count(name) > 0; }

const CliFlag& CliArgs::declared(const std::string& name,
                                 CliFlag::Kind kind) const {
  const CliFlag* flag = find_flag(flags_, name);
  QOSRM_CHECK_MSG(flag != nullptr && flag->kind == kind,
                  format("--%s is not declared as read", name.c_str()).c_str());
  return *flag;
}

std::string CliArgs::value_of(const CliFlag& flag) const {
  const auto it = values_.find(flag.name);
  if (it == values_.end()) return flag.fallback;
  if (!it->second.has_value()) {
    if (flag.kind == CliFlag::kBool) return "true";
    std::fprintf(stderr, "--%s needs a value (--%s=VALUE)\n", flag.name,
                 flag.name);
    std::exit(1);
  }
  return *it->second;
}

std::string CliArgs::get(const std::string& name) const {
  return value_of(declared(name, CliFlag::kText));
}

std::int64_t CliArgs::get_int(const std::string& name) const {
  const CliFlag& flag = declared(name, CliFlag::kInt);
  const std::string value = value_of(flag);
  errno = 0;
  char* end = nullptr;
  const long long parsed = std::strtoll(value.c_str(), &end, 10);
  if (value.empty() || end != value.c_str() + value.size() || errno == ERANGE) {
    const std::string msg =
        format("bad --%s value '%s' (want a decimal integer)", name.c_str(),
               value.c_str());
    QOSRM_CHECK_MSG(false, msg.c_str());
  }
  if (flag.min.has_value() && parsed < *flag.min) {
    std::fprintf(stderr, "--%s must be >= %lld (got %lld)\n", name.c_str(),
                 static_cast<long long>(*flag.min), parsed);
    std::exit(1);
  }
  return parsed;
}

int CliArgs::get_int32(const std::string& name) const {
  const std::int64_t parsed = get_int(name);
  if (parsed < std::numeric_limits<int>::min() ||
      parsed > std::numeric_limits<int>::max()) {
    const std::string msg =
        format("bad --%s value '%s' (out of range for a 32-bit integer)",
               name.c_str(), value_of(declared(name, CliFlag::kInt)).c_str());
    QOSRM_CHECK_MSG(false, msg.c_str());
  }
  return static_cast<int>(parsed);
}

double CliArgs::get_double(const std::string& name) const {
  const std::string value = value_of(declared(name, CliFlag::kReal));
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

bool CliArgs::get_bool(const std::string& name) const {
  const std::string value = value_of(declared(name, CliFlag::kBool));
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

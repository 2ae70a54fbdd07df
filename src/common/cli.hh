// Command-line flags, declared once per binary as a table of CliFlag: its
// name, value kind, default, integer lower bound and help line. CliArgs
// parses argv against the table (see its constructor) and reads an absent
// flag as its default, through the same strict parser as a given value.
//
// Flags take --name=value or --name value form; a switch (no placeholder,
// and --help) never takes the next argument. A bare --flag has no value:
// only get_bool reads it (as true); a string or number read of it exits 1
// naming the flag, so a path flag given without its path can never write a
// file named "true".
#ifndef QOSRM_COMMON_CLI_HH
#define QOSRM_COMMON_CLI_HH

#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace qosrm {

struct CliFlag {
  /// Read by get, get_int/get_int32, get_double and get_bool.
  enum Kind { kText, kInt, kReal, kBool };

  const char* name;         ///< without the leading "--"
  Kind kind;
  const char* placeholder;  ///< "N", "PATH", ...; "" makes a switch
  const char* fallback;     ///< the value an absent flag reads as
  std::optional<std::int64_t> min;  ///< integer lower bound
  /// One line. `code` spans are kept in docs/CLI.md and stripped in --help.
  const char* help;
};

class CliArgs {
 public:
  /// Parses argv against `flags`, which must outlive this object. --help
  /// prints the table and exits 0; an undeclared flag or a positional
  /// argument exits 1 naming it. Every default is read first, so a default
  /// that fails its own flag's checks fails every run.
  CliArgs(int argc, char** argv, std::span<const CliFlag> flags);

  /// Whether the flag was given (a default does not count).
  [[nodiscard]] bool has(const std::string& name) const;
  /// The flag's value, or its default; a bare --name exits 1.
  [[nodiscard]] std::string get(const std::string& name) const;
  /// Numeric accessors parse strictly: a value that is empty, has trailing
  /// garbage or overflows aborts with a diagnostic naming the flag
  /// (--threads=abc must fail loudly, never silently run with 0 threads). An
  /// integer below the flag's bound exits 1 naming flag, bound and value.
  [[nodiscard]] std::int64_t get_int(const std::string& name) const;
  /// get_int for an `int` flag: a value outside int's range aborts with a
  /// diagnostic naming the flag instead of wrapping (--cores=4294967298
  /// must not run a 2-core system).
  [[nodiscard]] int get_int32(const std::string& name) const;
  [[nodiscard]] double get_double(const std::string& name) const;
  /// Accepts true/1/yes and false/0/no, and a bare --name as true; any other
  /// value aborts naming the flag (--overheads=ture must not silently run
  /// with overheads off).
  [[nodiscard]] bool get_bool(const std::string& name) const;

 private:
  /// The declared flag `name`; aborts when it is undeclared or of another
  /// kind.
  [[nodiscard]] const CliFlag& declared(const std::string& name,
                                        CliFlag::Kind kind) const;
  /// The given value or the default. A bare --name reads as "true" for a
  /// bool flag and exits 1 (a usage error naming the flag) for any other.
  [[nodiscard]] std::string value_of(const CliFlag& flag) const;

  std::span<const CliFlag> flags_;
  /// nullopt for a bare --name.
  std::map<std::string, std::optional<std::string>> values_;
};

/// A file a binary writes for an output flag: `--<flag>=<path>`.
struct OutputFlag {
  std::string flag;
  std::string path;  ///< empty when the flag was not given
};

/// Probes every given path with probe_writable_atomic (common/file_util.hh),
/// so a bad path fails before the expensive work instead of after it. False
/// after printing "--<flag>: <error>" to stderr for the first failing one.
[[nodiscard]] bool probe_outputs(const std::vector<OutputFlag>& outputs);

/// Commits `text` to `path` with write_file_atomic. False after printing
/// "--<flag>: <error>" to stderr; the target keeps its previous content.
[[nodiscard]] bool write_output(const std::string& flag,
                                const std::string& path,
                                const std::string& text);

}  // namespace qosrm

#endif  // QOSRM_COMMON_CLI_HH

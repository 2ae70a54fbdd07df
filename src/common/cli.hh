// Tiny command-line flag parser shared by bench binaries and examples.
//
// Supports --name=value and --name value forms plus bare --flag booleans.
// Unrecognized arguments are retained (google-benchmark binaries pass their
// own flags through); strict binaries reject them with reject_unknown().
// A bare --flag has no value: only get_bool reads it (as true); a string or
// number read of it is a usage error (stderr names the flag, exit 1), so a
// path flag given without its path can never write a file named "true".
#ifndef QOSRM_COMMON_CLI_HH
#define QOSRM_COMMON_CLI_HH

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <vector>

namespace qosrm {

class CliArgs {
 public:
  /// `boolean_flags` declares flags that never take a value from the next
  /// argument: `--keep out/` then keeps `out/` as a positional instead of
  /// silently consuming it as the value of `--keep` (the `=` form still
  /// assigns, so `--keep=false` works). Undeclared flags keep the historic
  /// greedy behavior for `--name value`.
  CliArgs(int argc, char** argv,
          std::initializer_list<const char*> boolean_flags = {});

  [[nodiscard]] bool has(const std::string& name) const;
  /// The flag's value, or `fallback` when absent; a bare --name exits 1.
  [[nodiscard]] std::string get(const std::string& name,
                                const std::string& fallback) const;
  /// Numeric accessors parse strictly: a present value that is empty, has
  /// trailing garbage or overflows aborts with a diagnostic naming the flag
  /// (--threads=abc must fail loudly, never silently run with 0 threads).
  [[nodiscard]] std::int64_t get_int(const std::string& name,
                                     std::int64_t fallback) const;
  /// get_int for an `int` flag: a value outside int's range aborts with a
  /// diagnostic naming the flag instead of wrapping (--cores=4294967298
  /// must not run a 2-core system).
  [[nodiscard]] int get_int32(const std::string& name, int fallback) const;
  [[nodiscard]] double get_double(const std::string& name, double fallback) const;
  /// Accepts true/1/yes and false/0/no, and a bare --name as true; any other
  /// value aborts naming the flag (--overheads=ture must not silently run
  /// with overheads off).
  [[nodiscard]] bool get_bool(const std::string& name, bool fallback) const;

  /// Strict-binary validation: false (after printing a diagnostic to
  /// stderr) when a passed --flag is not in `known` or a positional argument
  /// is present. A typo'd flag name must fail loudly, never silently run
  /// with defaults labeled as if the request had been honored.
  [[nodiscard]] bool reject_unknown(std::span<const char* const> known) const;

  /// Arguments that did not look like --key[=value] flags, in order.
  [[nodiscard]] const std::vector<std::string>& positional() const noexcept {
    return positional_;
  }

 private:
  /// The value of `name`, or null when absent; exits 1 (a usage error
  /// naming the flag) for a bare --name, which has no value to read.
  [[nodiscard]] const std::string* value_of(const std::string& name) const;

  /// nullopt for a bare --name.
  std::map<std::string, std::optional<std::string>> values_;
  std::vector<std::string> positional_;
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

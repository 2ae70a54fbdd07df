// Small string helpers: printf-style format into std::string and the
// comma-separated list parsing every list flag shares.
#ifndef QOSRM_COMMON_STR_HH
#define QOSRM_COMMON_STR_HH

#include <algorithm>
#include <cstddef>
#include <string>
#include <vector>

namespace qosrm {

/// printf-style formatting into a std::string.
[[nodiscard]] std::string format(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

/// Splits on commas, stripping spaces. Empty entries are PRESERVED (an empty
/// spec yields one empty entry) so list parsers can reject "--alphas=" and
/// "--alphas=1," instead of silently sweeping a zero-row or shortened grid.
[[nodiscard]] std::vector<std::string> split_csv_list(const std::string& spec);

/// Parses the comma-separated value of list flag `--flag`: each entry of
/// split_csv_list(spec) goes through `parse_entry(entry, &value)`, which
/// returns false for a value it rejects; `want` says what it accepts. False,
/// with *error naming the flag and the entry, at the first empty entry (an
/// empty list or a stray comma would silently sweep a zero-row or shortened
/// grid), rejected one, or one whose value equals an earlier entry's (a
/// repeat, alias spellings included, would run its rows twice).
template <typename T, typename ParseEntry>
bool parse_list_flag(const char* flag, const std::string& spec,
                     const char* want, ParseEntry parse_entry,
                     std::vector<T>* out, std::string* error) {
  out->clear();
  const std::vector<std::string> entries = split_csv_list(spec);
  for (const std::string& entry : entries) {
    if (entry.empty()) {
      *error = format("empty --%s entry in '%s' (an empty list or stray "
                      "comma would silently sweep a zero-row or shortened "
                      "grid)",
                      flag, spec.c_str());
      return false;
    }
    T value{};
    if (!parse_entry(entry, &value)) {
      *error = format("bad --%s entry '%s' (want %s)", flag, entry.c_str(),
                      want);
      return false;
    }
    const auto earlier = std::find(out->begin(), out->end(), value);
    if (earlier != out->end()) {
      *error = format("duplicate --%s entry '%s' (same value as '%s'; a "
                      "repeat would run its rows twice)",
                      flag, entry.c_str(),
                      entries[static_cast<std::size_t>(earlier - out->begin())]
                          .c_str());
      return false;
    }
    out->push_back(value);
  }
  return true;
}

/// One accepted spelling of a named list-flag value.
template <typename T>
struct NamedValue {
  const char* name;
  T value;
};

/// parse_list_flag for a flag whose entries are names from `names`; the
/// error lists the accepted names.
template <typename T, std::size_t N>
bool parse_name_list_flag(const char* flag, const std::string& spec,
                          const NamedValue<T> (&names)[N], std::vector<T>* out,
                          std::string* error) {
  std::string want;
  for (const NamedValue<T>& n : names) {
    want += want.empty() ? "" : "|";
    want += n.name;
  }
  return parse_list_flag(
      flag, spec, want.c_str(),
      [&names](const std::string& entry, T* value) {
        for (const NamedValue<T>& n : names) {
          if (entry == n.name) {
            *value = n.value;
            return true;
          }
        }
        return false;
      },
      out, error);
}

/// The first spelling of `value` in `names`, or "?" for a value it lacks:
/// an enum's name function reads the table its list-flag parser accepts.
template <typename T, std::size_t N>
const char* name_of(const NamedValue<T> (&names)[N], T value) noexcept {
  for (const NamedValue<T>& n : names) {
    if (n.value == value) return n.name;
  }
  return "?";
}

}  // namespace qosrm

#endif  // QOSRM_COMMON_STR_HH

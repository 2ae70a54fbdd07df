#include "common/str.hh"

#include <cstdarg>
#include <cstdio>
#include <vector>

namespace qosrm {

std::string format(const char* fmt, ...) {
  std::va_list args;
  va_start(args, fmt);
  std::va_list args_copy;
  va_copy(args_copy, args);
  const int needed = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  if (needed <= 0) {
    va_end(args_copy);
    return {};
  }
  std::vector<char> buf(static_cast<std::size_t>(needed) + 1);
  std::vsnprintf(buf.data(), buf.size(), fmt, args_copy);
  va_end(args_copy);
  return std::string(buf.data(), static_cast<std::size_t>(needed));
}

std::vector<std::string> split_csv_list(const std::string& spec) {
  std::vector<std::string> parts;
  std::string cur;
  for (const char ch : spec) {
    if (ch == ',') {
      parts.push_back(cur);
      cur.clear();
    } else if (ch != ' ') {
      cur += ch;
    }
  }
  parts.push_back(cur);
  return parts;
}

}  // namespace qosrm

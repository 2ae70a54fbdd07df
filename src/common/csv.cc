#include "common/csv.hh"

namespace qosrm {

namespace {

void append_row(std::string& out, const std::vector<std::string>& row) {
  for (std::size_t i = 0; i < row.size(); ++i) {
    if (i > 0) out += ',';
    const std::string& cell = row[i];
    if (cell.find_first_of(",\"\n") == std::string::npos) {
      out += cell;
      continue;
    }
    out += '"';
    for (const char ch : cell) {
      if (ch == '"') out += '"';
      out += ch;
    }
    out += '"';
  }
  out += '\n';
}

}  // namespace

std::string csv_text(const std::vector<std::string>& header,
                     const std::vector<std::vector<std::string>>& rows) {
  std::string out;
  append_row(out, header);
  for (const std::vector<std::string>& row : rows) append_row(out, row);
  return out;
}

}  // namespace qosrm

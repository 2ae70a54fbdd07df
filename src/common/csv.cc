#include "common/csv.hh"

#include <exception>
#include <stdexcept>

#include "common/file_util.hh"

namespace qosrm {

namespace {
std::string escape(const std::string& cell) {
  const bool needs_quotes =
      cell.find_first_of(",\"\n") != std::string::npos;
  if (!needs_quotes) return cell;
  std::string out = "\"";
  for (const char ch : cell) {
    if (ch == '"') out += '"';
    out += ch;
  }
  out += '"';
  return out;
}
}  // namespace

CsvWriter::CsvWriter(const std::string& path, const std::vector<std::string>& header)
    : path_(path), ctor_uncaught_(std::uncaught_exceptions()) {
  // Fail construction if the location is not writable (same contract as the
  // old stream-as-you-go writer): probe the exact temp sibling the commit
  // will use, without touching the target path itself.
  std::string error;
  if (!probe_writable_atomic(path, &error)) {
    throw std::runtime_error("CsvWriter: cannot open " + path);
  }
  append_row(header);
}

void CsvWriter::close() {
  if (closed_) return;
  std::string error;
  if (!write_file_atomic(path_, buffer_, &error)) {
    throw std::runtime_error("CsvWriter: " + error);
  }
  closed_ = true;
}

CsvWriter::~CsvWriter() {
  // Unwinding due to an exception thrown since construction: the run
  // failed, so the partial CSV must not be published.
  if (std::uncaught_exceptions() > ctor_uncaught_) return;
  try {
    close();
  } catch (...) {  // destructor must not throw; use close() to see errors
  }
}

void CsvWriter::add_row(const std::vector<std::string>& row) { append_row(row); }

void CsvWriter::append_row(const std::vector<std::string>& row) {
  for (std::size_t i = 0; i < row.size(); ++i) {
    if (i > 0) buffer_ += ',';
    buffer_ += escape(row[i]);
  }
  buffer_ += '\n';
}

}  // namespace qosrm

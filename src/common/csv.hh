// CSV writer used by the sweep/report subsystem and the bench binaries to
// dump machine-readable experiment results alongside the human-readable
// ASCII tables.
//
// Rows are buffered and the finished file is committed ATOMICALLY
// (write-to-temp + rename, like the *.qosdb snapshot writer): an
// interrupted run never leaves a truncated CSV that a CI diff or golden
// gate could mistake for a complete one. Until close() (or the destructor
// on a non-exception path) commits, the target path is untouched.
#ifndef QOSRM_COMMON_CSV_HH
#define QOSRM_COMMON_CSV_HH

#include <string>
#include <vector>

namespace qosrm {

class CsvWriter {
 public:
  /// Validates that `path`'s directory is writable (by opening the temp
  /// sibling) and buffers the header row. Throws std::runtime_error if the
  /// location cannot be written.
  CsvWriter(const std::string& path, const std::vector<std::string>& header);

  /// Commits the buffered rows to `path` atomically. Idempotent; throws
  /// std::runtime_error if the write or rename fails (the target file keeps
  /// its previous content).
  void close();

  /// Commits like close() on the normal path, but if the writer is being
  /// destroyed by stack unwinding (an exception is in flight), the partial
  /// result is ABANDONED instead - never published. Errors are swallowed;
  /// call close() to observe them.
  ~CsvWriter();

  CsvWriter(const CsvWriter&) = delete;
  CsvWriter& operator=(const CsvWriter&) = delete;

  /// Appends one row; cells containing commas/quotes/newlines are quoted.
  void add_row(const std::vector<std::string>& row);

  [[nodiscard]] const std::string& path() const noexcept { return path_; }

 private:
  void append_row(const std::vector<std::string>& row);

  std::string path_;
  std::string buffer_;
  int ctor_uncaught_;  ///< std::uncaught_exceptions() at construction
  bool closed_ = false;
};

}  // namespace qosrm

#endif  // QOSRM_COMMON_CSV_HH

// CSV formatting for the sweep/report outputs and the bench binaries'
// machine-readable dumps. Formatting is a pure text function; the caller
// commits the finished text with write_file_atomic (common/file_util.hh),
// so an interrupted or failed run never publishes a truncated CSV that a CI
// diff or golden gate could mistake for a complete one.
#ifndef QOSRM_COMMON_CSV_HH
#define QOSRM_COMMON_CSV_HH

#include <string>
#include <vector>

namespace qosrm {

/// The header line, then one line per row, each ended by '\n'. A cell
/// containing a comma, quote or newline is quoted, its quotes doubled.
[[nodiscard]] std::string csv_text(
    const std::vector<std::string>& header,
    const std::vector<std::vector<std::string>>& rows);

}  // namespace qosrm

#endif  // QOSRM_COMMON_CSV_HH

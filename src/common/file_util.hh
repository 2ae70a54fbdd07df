// Atomic whole-file writes shared by the CSV/JSON report writers.
//
// Result files are consumed by CI diffs and golden-file gates, so a killed
// or failing writer must never leave a plausible-looking truncated file
// behind. The pattern matches the *.qosdb snapshot writer: write to a
// uniquely named sibling, then rename into place (atomic on POSIX).
#ifndef QOSRM_COMMON_FILE_UTIL_HH
#define QOSRM_COMMON_FILE_UTIL_HH

#include <string>

namespace qosrm {

/// The uniquely named sibling every atomic writer in this repo stages into
/// before renaming: "<path>.tmp.<pid>". Shared so probes check exactly the
/// path the later commit will use.
[[nodiscard]] std::string atomic_tmp_path(const std::string& path);

/// Probes that `path` could be atomically replaced: opens (and removes)
/// the temp sibling the commit would use, leaving `path` itself untouched.
/// A pre-existing target file is neither created, truncated nor touched.
bool probe_writable_atomic(const std::string& path, std::string* error);

/// Writes `content` to `path` via a uniquely named sibling temp file that is
/// fsync'ed before the rename, so after a crash the final path holds either
/// the old content or the complete new content - never a truncated file. On
/// failure (including a failing close(), which can surface deferred write
/// errors) the temp file is removed, `path` is left untouched (old content
/// intact) and false + *error (with the errno detail) is returned.
bool write_file_atomic(const std::string& path, const std::string& content,
                       std::string* error);

}  // namespace qosrm

#endif  // QOSRM_COMMON_FILE_UTIL_HH

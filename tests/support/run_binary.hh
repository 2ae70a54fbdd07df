// Spawns one of the real CLI binaries (QOSRM_BIN_DIR, set by
// tests/CMakeLists.txt) through the shell, for the CLI contract tests.
#ifndef QOSRM_TESTS_SUPPORT_RUN_BINARY_HH
#define QOSRM_TESTS_SUPPORT_RUN_BINARY_HH

#include <sys/wait.h>

#include <cstdio>
#include <string>

namespace qosrm::testing {

/// Runs `binary flags` and returns its exit code, or 128 + the signal number
/// on a signal death, with its combined stdout/stderr in `output`.
inline int run_captured(const std::string& binary, const std::string& flags,
                        std::string& output) {
  const std::string cmd =
      std::string(QOSRM_BIN_DIR) + "/" + binary + " " + flags + " 2>&1";
  FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) return -1;
  output.clear();
  char buf[256];
  while (std::fgets(buf, sizeof(buf), pipe) != nullptr) output += buf;
  const int status = pclose(pipe);
  return WIFEXITED(status) ? WEXITSTATUS(status) : 128 + WTERMSIG(status);
}

}  // namespace qosrm::testing

#endif  // QOSRM_TESTS_SUPPORT_RUN_BINARY_HH

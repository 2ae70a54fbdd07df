// Reads a whole file into a string, byte for byte: the golden and report
// tests compare outputs with committed files this way.
#ifndef QOSRM_TESTS_SUPPORT_SLURP_HH
#define QOSRM_TESTS_SUPPORT_SLURP_HH

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

namespace qosrm::testing {

inline std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

}  // namespace qosrm::testing

#endif  // QOSRM_TESTS_SUPPORT_SLURP_HH

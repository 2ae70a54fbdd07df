// Flag-coverage gate for docs/CLI.md, in both directions: every flag a
// binary declares in rmsim/cli_flags.hh must appear in the CLI reference,
// and every --flag the reference's tables name must be declared by some
// binary (or be --help). A flag removed from the binaries but left in the
// doc, or added without documentation, fails the fast suite.
#include "rmsim/cli_flags.hh"

#include <fstream>
#include <regex>
#include <set>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

namespace qosrm::rmsim {
namespace {

const std::string& cli_doc() {
  static const std::string doc = [] {
    const std::string path = std::string(QOSRM_DOCS_DIR) + "/CLI.md";
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << "cannot open " << path;
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
  }();
  return doc;
}

template <std::size_t N>
void expect_all_documented(const char* binary, const char* const (&flags)[N]) {
  const std::string& doc = cli_doc();
  for (const char* flag : flags) {
    EXPECT_NE(doc.find("--" + std::string(flag)), std::string::npos)
        << binary << " flag --" << flag
        << " is not documented in docs/CLI.md";
  }
}

TEST(CliDocs, EverySweepMainFlagIsDocumented) {
  expect_all_documented("sweep_main", cli::kSweepMainFlags);
}

TEST(CliDocs, EveryServiceMainFlagIsDocumented) {
  expect_all_documented("service_main", cli::kServiceMainFlags);
}

TEST(CliDocs, HelpIsDocumentedOnce) {
  // --help is accepted by every binary but lives outside the per-binary
  // arrays (see cli_flags.hh); it still must be in the reference.
  EXPECT_NE(cli_doc().find("--help"), std::string::npos);
}

TEST(CliDocs, EveryFlagInTheDocTablesExists) {
  std::set<std::string> declared = {"help"};
  declared.insert(std::begin(cli::kSweepMainFlags),
                  std::end(cli::kSweepMainFlags));
  declared.insert(std::begin(cli::kServiceMainFlags),
                  std::end(cli::kServiceMainFlags));

  const std::regex flag_re("--([a-z0-9][a-z0-9-]*)");
  std::istringstream lines(cli_doc());
  std::size_t table_flags = 0;
  for (std::string line; std::getline(lines, line);) {
    if (line.rfind("|", 0) != 0) continue;  // tables only
    for (std::sregex_iterator it(line.begin(), line.end(), flag_re), end;
         it != end; ++it) {
      ++table_flags;
      EXPECT_TRUE(declared.count((*it)[1].str()) > 0)
          << "docs/CLI.md documents --" << (*it)[1].str()
          << ", which no binary declares in rmsim/cli_flags.hh:\n  " << line;
    }
  }
  EXPECT_GT(table_flags, 0u) << "no flag tables found in docs/CLI.md";
}

}  // namespace
}  // namespace qosrm::rmsim

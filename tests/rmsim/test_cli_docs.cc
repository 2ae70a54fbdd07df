// docs/CLI.md's two flag tables are the rendering of the CLIs' flag tables
// (rmsim/cli_flags.hh): each test fails when the region between a table's
// markers differs from the rendering, and then writes the doc with fresh
// tables into the build tree; copy it over the committed one once the diff
// reads right. Every --flag the doc's tables name must be declared by some
// binary (or be --help), and every table's defaults pass their own checks.
#include "rmsim/cli_flags.hh"

#include <regex>
#include <set>
#include <span>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "common/file_util.hh"
#include "rmsim/report.hh"
#include "support/slurp.hh"

namespace qosrm::rmsim {
namespace {

const std::string kDocPath = std::string(QOSRM_DOCS_DIR) + "/CLI.md";

/// One markdown row; `|` inside a cell is escaped, as GitHub tables need.
std::string row(std::initializer_list<std::string> cells) {
  std::string line = "|";
  for (const std::string& cell : cells) {
    line += cell.empty() ? "" : " ";
    for (const char c : cell) line += c == '|' ? "\\|" : std::string(1, c);
    line += " |";
  }
  return line + "\n";
}

/// `text` as a code span.
std::string code(const std::string& text) {
  return std::string("`").append(text).append("`");
}

std::string render(std::span<const CliFlag> flags) {
  std::string table = row({"Flag", "Default", "Minimum", "Meaning"}) +
                      row({"---", "---", "---", "---"});
  for (const CliFlag& flag : flags) {
    std::string spelling = std::string("--").append(flag.name);
    if (flag.placeholder[0] != '\0') {
      spelling.append("=").append(flag.placeholder);
    }
    table += row({code(spelling),
                  flag.fallback[0] != '\0' ? code(flag.fallback) : "",
                  flag.min.has_value() ? std::to_string(*flag.min) : "",
                  flag.help});
  }
  return table;
}

/// `doc` with the region between `binary`'s markers replaced by the
/// rendering of `flags`; empty when the markers are missing.
std::string with_table(const std::string& doc, const std::string& binary,
                       std::span<const CliFlag> flags) {
  const std::string begin_marker = "<!-- flags:" + binary + ":begin -->\n";
  const std::size_t begin = doc.find(begin_marker);
  const std::size_t end = doc.find("<!-- flags:" + binary + ":end -->");
  if (begin == std::string::npos || end == std::string::npos || end < begin) {
    return "";
  }
  const std::size_t body = begin + begin_marker.size();
  return doc.substr(0, body) + render(flags) + doc.substr(end);
}

/// Fails when `binary`'s table in the doc is not its rendering, after
/// writing the doc with both tables rendered into the build tree.
void expect_rendered(const std::string& binary,
                     std::span<const CliFlag> flags) {
  const std::string doc = testing::slurp(kDocPath);
  const std::string rendered = with_table(doc, binary, flags);
  ASSERT_FALSE(rendered.empty())
      << kDocPath << " lacks the " << binary << " flag-table markers";
  if (rendered == doc) return;
  const std::string fresh = with_table(
      with_table(doc, "sweep_main", cli::kSweepMainFlags), "service_main",
      cli::kServiceMainFlags);
  const std::string out = std::string(QOSRM_TEST_OUT_DIR) + "/CLI.md";
  std::string error;
  ASSERT_TRUE(write_file_atomic(out, fresh, &error)) << error;
  ADD_FAILURE() << kDocPath << " differs from the rendered " << binary
                << " flag table; the rendered doc is " << out;
}

TEST(CliDocs, EverySweepMainFlagIsDocumented) {
  expect_rendered("sweep_main", cli::kSweepMainFlags);
}

TEST(CliDocs, EveryServiceMainFlagIsDocumented) {
  expect_rendered("service_main", cli::kServiceMainFlags);
}

TEST(CliDocs, HelpIsDocumentedOnce) {
  // --help is accepted by every binary but is in no table; it still must be
  // in the reference.
  EXPECT_NE(testing::slurp(kDocPath).find("--help"), std::string::npos);
}

TEST(CliDocs, EveryFlagInTheDocTablesExists) {
  std::set<std::string> declared = {"help"};
  for (const CliFlag& flag : cli::kSweepMainFlags) declared.insert(flag.name);
  for (const CliFlag& flag : cli::kServiceMainFlags) declared.insert(flag.name);

  const std::regex flag_re("--([a-z0-9][a-z0-9-]*)");
  std::istringstream lines(testing::slurp(kDocPath));
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

// CliArgs aborts on a default that fails its own flag's parser or bound, so
// constructing each binary's arguments with no flags reads every default.
TEST(CliFlags, DefaultsPassTheirOwnChecks) {
  char prog[] = "prog";
  char* argv[] = {prog};
  const CliArgs sweep(1, argv, cli::kSweepMainFlags);
  EXPECT_EQ(sweep.get_int32("cores") % 2, 0);
  const CliArgs service(1, argv, cli::kServiceMainFlags);
  EXPECT_LE(service.get_int32("demand-min"), service.get_int32("demand-max"));
  EXPECT_EQ(service.get_double("knee-threshold"), kDefaultKneeThreshold);
}

}  // namespace
}  // namespace qosrm::rmsim

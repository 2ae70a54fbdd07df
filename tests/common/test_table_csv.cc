#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/csv.hh"
#include "common/file_util.hh"
#include "common/str.hh"
#include "common/table.hh"

namespace qosrm {
namespace {

TEST(AsciiTable, AlignsColumns) {
  AsciiTable t({"name", "value"});
  t.add_row({"x", "1"});
  t.add_row({"longer-name", "2"});
  const std::string s = t.str();
  // Header, separator, two rows.
  EXPECT_EQ(std::count(s.begin(), s.end(), '\n'), 4);
  // Every row has the same width.
  std::stringstream ss(s);
  std::string line;
  std::size_t width = 0;
  while (std::getline(ss, line)) {
    if (width == 0) width = line.size();
    EXPECT_EQ(line.size(), width);
  }
}

TEST(AsciiTable, ShortRowsArePadded) {
  AsciiTable t({"a", "b", "c"});
  t.add_row({"only-one"});
  EXPECT_EQ(t.rows(), 1u);
  EXPECT_NE(t.str().find("only-one"), std::string::npos);
}

TEST(AsciiTable, NumberFormatting) {
  EXPECT_EQ(AsciiTable::num(3.14159, 2), "3.14");
  EXPECT_EQ(AsciiTable::num(2.0, 0), "2");
  EXPECT_EQ(AsciiTable::pct(0.1234, 1), "12.3%");
  EXPECT_EQ(AsciiTable::pct(-0.05, 1), "-5.0%");
}

TEST(Csv, WritesHeaderAndRows) {
  EXPECT_EQ(csv_text({"a", "b"}, {{"1", "2"}, {"x,y", "quote\"inside"}}),
            "a,b\n"
            "1,2\n"
            "\"x,y\",\"quote\"\"inside\"\n");
  EXPECT_EQ(csv_text({"a"}, {}), "a\n");
  EXPECT_EQ(csv_text({"a"}, {{"two\nlines"}}), "a\n\"two\nlines\"\n");
}

TEST(Csv, UnwritablePathReturnsFalseNamingThePath) {
  const std::string path = "/nonexistent-dir/foo.csv";
  std::string error;
  EXPECT_FALSE(write_file_atomic(path, csv_text({"a"}, {}), &error));
  EXPECT_NE(error.find(path), std::string::npos) << error;
}

TEST(Csv, TargetUntouchedUntilCloseThenReplacedAtomically) {
  const std::string path = ::testing::TempDir() + "/qosrm_atomic.csv";
  {
    std::ofstream old(path);
    old << "old content\n";
  }
  // Formatting touches no file: until the commit, a reader (or a crash)
  // sees the OLD complete file, never a truncated half-written one.
  const std::string text = csv_text({"a"}, {{"1"}});
  {
    std::ifstream in(path);
    std::string line;
    ASSERT_TRUE(std::getline(in, line));
    EXPECT_EQ(line, "old content");
  }
  std::string error;
  ASSERT_TRUE(write_file_atomic(path, text, &error)) << error;
  std::ifstream in(path);
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_EQ(line, "a");
  std::remove(path.c_str());
}

TEST(Str, FormatBasic) {
  EXPECT_EQ(format("%d-%s", 42, "x"), "42-x");
  EXPECT_EQ(format("%.2f", 1.005), "1.00");
}

}  // namespace
}  // namespace qosrm

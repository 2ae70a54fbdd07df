#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "common/csv.hh"
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
  const std::string path = ::testing::TempDir() + "/qosrm_test.csv";
  {
    CsvWriter csv(path, {"a", "b"});
    csv.add_row({"1", "2"});
    csv.add_row({"x,y", "quote\"inside"});
  }
  std::ifstream in(path);
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_EQ(line, "a,b");
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_EQ(line, "1,2");
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_EQ(line, "\"x,y\",\"quote\"\"inside\"");
  std::remove(path.c_str());
}

TEST(Csv, ThrowsOnUnwritablePath) {
  EXPECT_THROW(CsvWriter("/nonexistent-dir/foo.csv", {"a"}), std::runtime_error);
}

TEST(Csv, TargetUntouchedUntilCloseThenReplacedAtomically) {
  const std::string path = ::testing::TempDir() + "/qosrm_atomic.csv";
  {
    std::ofstream old(path);
    old << "old content\n";
  }
  {
    CsvWriter csv(path, {"a"});
    csv.add_row({"1"});
    // Not committed yet: a reader (or a crash) at this point sees the OLD
    // complete file, never a truncated half-written one.
    std::ifstream in(path);
    std::string line;
    ASSERT_TRUE(std::getline(in, line));
    EXPECT_EQ(line, "old content");
    csv.close();
  }
  std::ifstream in(path);
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_EQ(line, "a");
  std::remove(path.c_str());
}

TEST(Csv, PartialResultIsAbandonedWhenAnExceptionUnwinds) {
  const std::string path = ::testing::TempDir() + "/qosrm_abandoned.csv";
  std::remove(path.c_str());
  try {
    CsvWriter csv(path, {"a"});
    csv.add_row({"partial"});
    throw std::runtime_error("run failed mid-sweep");
  } catch (const std::runtime_error&) {
  }
  // The failed run published nothing - no decoy CSV, no temp leftovers.
  std::ifstream in(path);
  EXPECT_FALSE(in.good());
  const std::string tmp_prefix = path + ".tmp.";
  for (const auto& entry :
       std::filesystem::directory_iterator(::testing::TempDir())) {
    EXPECT_NE(entry.path().string().rfind(tmp_prefix, 0), 0u)
        << "temp file left behind: " << entry.path();
  }
}

TEST(Csv, CloseIsIdempotent) {
  const std::string path = ::testing::TempDir() + "/qosrm_idempotent.csv";
  CsvWriter csv(path, {"a"});
  csv.close();
  csv.close();  // second close (and the destructor) must be a no-op
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

TEST(Str, Padding) {
  EXPECT_EQ(pad_left("ab", 4), "  ab");
  EXPECT_EQ(pad_right("ab", 4), "ab  ");
  EXPECT_EQ(pad_left("abcdef", 4), "abcdef");
}

}  // namespace
}  // namespace qosrm

#include "common/cli.hh"

#include <unistd.h>

#include <gtest/gtest.h>

#include <cstdio>
#include <vector>

namespace qosrm {
namespace {

// The flags every test parses against.
constexpr CliFlag kFlags[] = {
    {"cores", CliFlag::kInt, "N", "4", {}, "cores"},
    {"seed", CliFlag::kInt, "N", "2020", 0, "seed"},
    {"n", CliFlag::kInt, "N", "7", {}, "a number"},
    {"workers", CliFlag::kInt, "N", "1", {}, "worker count"},
    {"app", CliFlag::kText, "NAME", "mcf", {}, "application"},
    {"alphas", CliFlag::kText, "LIST", "0", {}, "`a|b` list"},
    {"rows-csv", CliFlag::kText, "PATH", "rows.csv", {}, "rows output"},
    {"csv", CliFlag::kText, "PATH", "", {}, "optional output"},
    {"alpha", CliFlag::kReal, "X", "2.5", {}, "a real"},
    {"x", CliFlag::kReal, "X", "0", {}, "another real"},
    {"load", CliFlag::kReal, "X", "0.5", {}, "offered load"},
    {"overheads", CliFlag::kBool, "BOOL", "true", {}, "model overheads"},
    {"verbose", CliFlag::kBool, "BOOL", "false", {}, "chatty"},
    {"resume", CliFlag::kBool, "", "false", {}, "a switch"},
};

CliArgs parse(std::vector<const char*> argv,
              std::span<const CliFlag> flags = kFlags) {
  argv.insert(argv.begin(), "prog");
  return CliArgs(static_cast<int>(argv.size()),
                 const_cast<char**>(argv.data()), flags);
}

// --help writes the usage to stdout; a death-test child sends it to stderr,
// where EXPECT_EXIT matches it.
void help_to_stderr(std::vector<const char*> argv) {
  std::fflush(stdout);
  dup2(STDERR_FILENO, STDOUT_FILENO);
  (void)parse(std::move(argv));
}

TEST(Cli, EqualsForm) {
  const CliArgs args = parse({"--cores=8", "--seed=42"});
  EXPECT_EQ(args.get_int("cores"), 8);
  EXPECT_EQ(args.get_int("seed"), 42);
}

TEST(Cli, SpaceForm) {
  const CliArgs args = parse({"--app", "bzip2"});
  EXPECT_EQ(args.get("app"), "bzip2");
}

TEST(Cli, BareFlagIsTrue) {
  const CliArgs args = parse({"--verbose"});
  EXPECT_TRUE(args.get_bool("verbose"));
  EXPECT_TRUE(args.has("verbose"));
}

TEST(Cli, EmptyEqualsValueIsPresentAndEmpty) {
  // "--alphas=" must reach the grid parsers as an EMPTY string, not as the
  // default: the parsers reject empty lists (a silent fallback would run a
  // sweep labeled with values the user never asked for).
  const CliArgs args = parse({"--alphas="});
  EXPECT_TRUE(args.has("alphas"));
  EXPECT_EQ(args.get("alphas"), "");
}

TEST(Cli, TrailingCommaValueSurvivesVerbatim) {
  // The CLI layer does no list parsing; "1," must round-trip untouched so
  // the grid parsers can reject the stray comma.
  const CliArgs args = parse({"--alphas=1,"});
  EXPECT_EQ(args.get("alphas"), "1,");
}

// An absent flag reads as its table default, through the same parser.
TEST(Cli, FallbacksWhenMissing) {
  const CliArgs args = parse({});
  EXPECT_FALSE(args.has("app"));
  EXPECT_EQ(args.get("app"), "mcf");
  EXPECT_EQ(args.get("csv"), "");
  EXPECT_EQ(args.get_int("n"), 7);
  EXPECT_DOUBLE_EQ(args.get_double("alpha"), 2.5);
  EXPECT_FALSE(args.get_bool("verbose"));
  EXPECT_TRUE(args.get_bool("overheads"));
}

TEST(Cli, DoubleParsing) {
  const CliArgs args = parse({"--alpha=1.25"});
  EXPECT_DOUBLE_EQ(args.get_double("alpha"), 1.25);
}

TEST(Cli, BoolVariants) {
  EXPECT_TRUE(parse({"--verbose=true"}).get_bool("verbose"));
  EXPECT_TRUE(parse({"--verbose=1"}).get_bool("verbose"));
  EXPECT_TRUE(parse({"--verbose=yes"}).get_bool("verbose"));
  EXPECT_FALSE(parse({"--overheads=false"}).get_bool("overheads"));
  EXPECT_FALSE(parse({"--overheads=0"}).get_bool("overheads"));
  EXPECT_FALSE(parse({"--overheads=no"}).get_bool("overheads"));
  // A flag with a placeholder takes the next argument as its value.
  EXPECT_FALSE(parse({"--overheads", "false"}).get_bool("overheads"));
}

TEST(Cli, FlagFollowedByFlagIsNotConsumedAsValue) {
  const CliArgs args = parse({"--verbose", "--n=2"});
  EXPECT_TRUE(args.get_bool("verbose"));
  EXPECT_EQ(args.get_int("n"), 2);
}

// ---- strict numeric parsing: a malformed value must abort with a message
// ---- naming the flag, never silently parse as 0 (regression: --workers=abc
// ---- used to run with 0 workers, --load=1.5x dropped the suffix) ----------

TEST(CliDeathTest, MalformedIntAborts) {
  EXPECT_DEATH((void)parse({"--workers=abc"}).get_int("workers"),
               "bad --workers value 'abc'");
  EXPECT_DEATH((void)parse({"--workers=12abc"}).get_int("workers"),
               "bad --workers value '12abc'");
  EXPECT_DEATH((void)parse({"--workers="}).get_int("workers"),
               "bad --workers value ''");
  EXPECT_DEATH((void)parse({"--workers=1.5"}).get_int("workers"),
               "bad --workers value '1.5'");
  EXPECT_DEATH((void)parse({"--workers=99999999999999999999"})
                   .get_int("workers"),
               "bad --workers value");
}

// A bare --name has no value: a string or number read of it exits 1 naming
// the flag (regression: `--rows-csv` with no path wrote a file named
// "true"); a boolean read still takes it as true (Cli.BareFlagIsTrue).
TEST(CliDeathTest, BareFlagHasNoValueToRead) {
  using ::testing::ExitedWithCode;
  EXPECT_EXIT((void)parse({"--rows-csv"}).get("rows-csv"), ExitedWithCode(1),
              "--rows-csv needs a value");
  EXPECT_EXIT((void)parse({"--workers", "--n=2"}).get_int("workers"),
              ExitedWithCode(1), "--workers needs a value");
  EXPECT_EXIT((void)parse({"--cores"}).get_int32("cores"), ExitedWithCode(1),
              "--cores needs a value");
  EXPECT_EXIT((void)parse({"--alpha"}).get_double("alpha"), ExitedWithCode(1),
              "--alpha needs a value");
}

// get_int32 backs every `int` flag: a value that parses as a 64-bit integer
// but does not fit an int must abort naming the flag, never wrap
// (regression: --cores=4294967298 ran a 2-core system).
TEST(CliDeathTest, OutOfRangeInt32Aborts) {
  EXPECT_DEATH((void)parse({"--cores=4294967298"}).get_int32("cores"),
               "bad --cores value '4294967298' \\(out of range");
  EXPECT_DEATH((void)parse({"--cores=2147483648"}).get_int32("cores"),
               "bad --cores value '2147483648'");
  EXPECT_DEATH((void)parse({"--cores=-2147483649"}).get_int32("cores"),
               "bad --cores value '-2147483649'");
  EXPECT_DEATH((void)parse({"--cores=abc"}).get_int32("cores"),
               "bad --cores value 'abc'");
}

TEST(Cli, Int32AcceptsItsWholeRange) {
  EXPECT_EQ(parse({"--n=2147483647"}).get_int32("n"), 2147483647);
  EXPECT_EQ(parse({"--n=-2147483648"}).get_int32("n"), -2147483647 - 1);
  EXPECT_EQ(parse({"--n=16"}).get_int32("n"), 16);
  EXPECT_EQ(parse({}).get_int32("n"), 7);
}

TEST(CliDeathTest, MalformedDoubleAborts) {
  EXPECT_DEATH((void)parse({"--load=1.5x"}).get_double("load"),
               "bad --load value '1.5x'");
  EXPECT_DEATH((void)parse({"--load=abc"}).get_double("load"),
               "bad --load value 'abc'");
  EXPECT_DEATH((void)parse({"--load="}).get_double("load"),
               "bad --load value ''");
  EXPECT_DEATH((void)parse({"--load=1e999"}).get_double("load"),
               "bad --load value '1e999'");
}

// A misspelled boolean must abort naming the flag, never read as false
// (--overheads=ture would silently run with overheads off).
TEST(CliDeathTest, MalformedBoolAborts) {
  EXPECT_DEATH((void)parse({"--overheads=ture"}).get_bool("overheads"),
               "bad --overheads value 'ture'");
  EXPECT_DEATH((void)parse({"--overheads=on"}).get_bool("overheads"),
               "bad --overheads value 'on'");
  EXPECT_DEATH((void)parse({"--overheads="}).get_bool("overheads"),
               "bad --overheads value ''");
}

// Reading a flag through the accessor of another kind, or reading a flag
// the table does not declare, is a programming error.
TEST(CliDeathTest, ReadingAsAnotherKindOrUndeclaredAborts) {
  EXPECT_DEATH((void)parse({}).get("cores"), "--cores is not declared");
  EXPECT_DEATH((void)parse({}).get_int("missing"), "--missing is not declared");
}

// A default that its own flag could not be read as is a defect of the
// table, caught whenever a binary using it starts.
TEST(CliDeathTest, DefaultFailingItsOwnChecksFailsEveryRun) {
  constexpr CliFlag kBelowBound[] = {{"n", CliFlag::kInt, "N", "0", 1, "n"}};
  EXPECT_EXIT(parse({"--n=5"}, kBelowBound), ::testing::ExitedWithCode(1),
              "--n must be >= 1 \\(got 0\\)");
  constexpr CliFlag kNotANumber[] = {
      {"x", CliFlag::kReal, "X", "fast", {}, "x"}};
  EXPECT_DEATH(parse({}, kNotANumber), "bad --x value 'fast'");
  constexpr CliFlag kNotABool[] = {{"b", CliFlag::kBool, "", "on", {}, "b"}};
  EXPECT_DEATH(parse({}, kNotABool), "bad --b value 'on'");
}

TEST(Cli, StrictNumericAcceptsValidValues) {
  EXPECT_EQ(parse({"--n=-3"}).get_int("n"), -3);
  EXPECT_EQ(parse({"--n=+7"}).get_int("n"), 7);
  EXPECT_DOUBLE_EQ(parse({"--x=-2.5e-3"}).get_double("x"), -2.5e-3);
  EXPECT_DOUBLE_EQ(parse({"--x=.5"}).get_double("x"), 0.5);
  // Tiny underflowing magnitudes are not errors: strtod returns the nearest
  // representable value.
  EXPECT_NEAR(parse({"--x=1e-320"}).get_double("x"), 0.0, 1e-300);
}

// ---- lower bounds: a value below its flag's bound is a usage error naming
// ---- the flag, the bound and the value; the bound itself is accepted -----

TEST(Cli, LowerBoundIsInclusive) {
  EXPECT_EQ(parse({"--seed=0"}).get_int("seed"), 0);
  EXPECT_EQ(parse({}).get_int("seed"), 2020);
}

TEST(CliDeathTest, BelowTheBoundExitsOneNamingFlagBoundAndValue) {
  EXPECT_EXIT((void)parse({"--seed=-1"}).get_int("seed"),
              ::testing::ExitedWithCode(1), "--seed must be >= 0 \\(got -1\\)");
}

// ---- switches: a flag without a placeholder must not swallow the next
// ---- argument (regression: `--resume parts/` consumed `parts/`) ---------

TEST(Cli, DeclaredBooleanDoesNotSwallowPositional) {
  EXPECT_EXIT(parse({"--resume", "parts/"}), ::testing::ExitedWithCode(1),
              "unexpected argument 'parts/'");
}

TEST(Cli, DeclaredBooleanFollowedByFlag) {
  const CliArgs args = parse({"--resume", "--workers=4"});
  EXPECT_TRUE(args.get_bool("resume"));
  EXPECT_EQ(args.get_int("workers"), 4);
}

TEST(Cli, DeclaredBooleanEqualsFormStillAssigns) {
  const CliArgs args = parse({"--resume=false"});
  EXPECT_FALSE(args.get_bool("resume"));
}

// ---- a typo'd flag or a stray positional must fail with a diagnostic,
// ---- never silently run with defaults (regression: the bench drivers ran
// ---- `--bin=40` with 20 bins and exited 0) --------------------------------

TEST(Cli, RejectUnknownAcceptsDeclaredFlags) {
  ::testing::internal::CaptureStderr();
  EXPECT_EQ(parse({"--n=40", "--csv", "out.csv"}).get("csv"), "out.csv");
  (void)parse({});
  (void)parse({}, {});
  EXPECT_EQ(::testing::internal::GetCapturedStderr(), "");
}

TEST(Cli, RejectUnknownNamesTheUnknownFlag) {
  using ::testing::ExitedWithCode;
  EXPECT_EXIT(parse({"--csv=x", "--bin=40"}), ExitedWithCode(1),
              "^unknown flag --bin \\(see --help\\)\n$");
  // A binary without flags rejects any flag but --help.
  EXPECT_EXIT(parse({"--no-such-flag=1"}, {}), ExitedWithCode(1),
              "^unknown flag --no-such-flag \\(see --help\\)\n$");
}

TEST(Cli, RejectUnknownRejectsPositionalArguments) {
  EXPECT_EXIT(parse({"--n=4", "stray", "more"}), ::testing::ExitedWithCode(1),
              "^unexpected argument 'stray' \\(flags take --name=value or "
              "--name value form; see --help\\)\n$");
}

// --help prints each flag's spelling, then its help line without code
// marks, its default and its bound, and exits 0, even beside a typo'd flag.
TEST(Cli, HelpRendersTheTableAndExitsZero) {
  const char* const kLines[] = {
      "^flags \\(--name=VALUE or --name VALUE\\):\n",
      "\n  --seed=N\n      seed \\(default 2020\\) \\(at least 0\\)\n",
      "\n  --alphas=LIST\n      a\\|b list \\(default 0\\)\n",
      "\n  --csv=PATH\n      optional output\n",
      "\n  --resume\n      a switch \\(default false\\)\n",
      "\n  --help\n      print this text and exit\n$",
  };
  for (const char* line : kLines) {
    EXPECT_EXIT(help_to_stderr({"--bogus", "--help"}),
                ::testing::ExitedWithCode(0), line);
  }
}

}  // namespace
}  // namespace qosrm

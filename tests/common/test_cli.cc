#include "common/cli.hh"

#include <gtest/gtest.h>

#include <vector>

namespace qosrm {
namespace {

CliArgs parse(std::vector<const char*> argv) {
  argv.insert(argv.begin(), "prog");
  return CliArgs(static_cast<int>(argv.size()),
                 const_cast<char**>(argv.data()));
}

CliArgs parse_with_booleans(std::vector<const char*> argv,
                            std::initializer_list<const char*> booleans) {
  argv.insert(argv.begin(), "prog");
  return CliArgs(static_cast<int>(argv.size()),
                 const_cast<char**>(argv.data()), booleans);
}

TEST(Cli, EqualsForm) {
  const CliArgs args = parse({"--cores=8", "--seed=42"});
  EXPECT_EQ(args.get_int("cores", 0), 8);
  EXPECT_EQ(args.get_int("seed", 0), 42);
}

TEST(Cli, SpaceForm) {
  const CliArgs args = parse({"--app", "mcf"});
  EXPECT_EQ(args.get("app", ""), "mcf");
}

TEST(Cli, BareFlagIsTrue) {
  const CliArgs args = parse({"--verbose"});
  EXPECT_TRUE(args.get_bool("verbose", false));
  EXPECT_TRUE(args.has("verbose"));
}

TEST(Cli, EmptyEqualsValueIsPresentAndEmpty) {
  // "--alphas=" must reach the grid parsers as an EMPTY string, not as the
  // default: the parsers reject empty lists (a silent fallback would run a
  // sweep labeled with values the user never asked for).
  const CliArgs args = parse({"--alphas="});
  EXPECT_TRUE(args.has("alphas"));
  EXPECT_EQ(args.get("alphas", "0"), "");
}

TEST(Cli, TrailingCommaValueSurvivesVerbatim) {
  // The CLI layer does no list parsing; "1," must round-trip untouched so
  // the grid parsers can reject the stray comma.
  const CliArgs args = parse({"--alphas=1,"});
  EXPECT_EQ(args.get("alphas", ""), "1,");
}

TEST(Cli, FallbacksWhenMissing) {
  const CliArgs args = parse({});
  EXPECT_EQ(args.get("missing", "dflt"), "dflt");
  EXPECT_EQ(args.get_int("missing", 7), 7);
  EXPECT_DOUBLE_EQ(args.get_double("missing", 2.5), 2.5);
  EXPECT_FALSE(args.get_bool("missing", false));
}

TEST(Cli, DoubleParsing) {
  const CliArgs args = parse({"--alpha=1.25"});
  EXPECT_DOUBLE_EQ(args.get_double("alpha", 0.0), 1.25);
}

TEST(Cli, BoolVariants) {
  EXPECT_TRUE(parse({"--x=true"}).get_bool("x", false));
  EXPECT_TRUE(parse({"--x=1"}).get_bool("x", false));
  EXPECT_TRUE(parse({"--x=yes"}).get_bool("x", false));
  EXPECT_FALSE(parse({"--x=false"}).get_bool("x", true));
  EXPECT_FALSE(parse({"--x=0"}).get_bool("x", true));
  EXPECT_FALSE(parse({"--x=no"}).get_bool("x", true));
}

TEST(Cli, PositionalArgumentsPreserved) {
  const CliArgs args = parse({"input.txt", "--n=3", "output.txt"});
  ASSERT_EQ(args.positional().size(), 2u);
  EXPECT_EQ(args.positional()[0], "input.txt");
  EXPECT_EQ(args.positional()[1], "output.txt");
}

TEST(Cli, FlagFollowedByFlagIsNotConsumedAsValue) {
  const CliArgs args = parse({"--a", "--b=2"});
  EXPECT_TRUE(args.get_bool("a", false));
  EXPECT_EQ(args.get_int("b", 0), 2);
}

// ---- strict numeric parsing: a malformed value must abort with a message
// ---- naming the flag, never silently parse as 0 (regression: --workers=abc
// ---- used to run with 0 workers, --load=1.5x dropped the suffix) ----------

TEST(CliDeathTest, MalformedIntAborts) {
  EXPECT_DEATH((void)parse({"--workers=abc"}).get_int("workers", 1),
               "bad --workers value 'abc'");
  EXPECT_DEATH((void)parse({"--workers=12abc"}).get_int("workers", 1),
               "bad --workers value '12abc'");
  EXPECT_DEATH((void)parse({"--workers="}).get_int("workers", 1),
               "bad --workers value ''");
  EXPECT_DEATH((void)parse({"--workers=1.5"}).get_int("workers", 1),
               "bad --workers value '1.5'");
  EXPECT_DEATH((void)parse({"--workers=99999999999999999999"})
                   .get_int("workers", 1),
               "bad --workers value");
}

// A bare --name has no value: a string or number read of it exits 1 naming
// the flag (regression: `--rows-csv` with no path wrote a file named
// "true"); a boolean read still takes it as true (Cli.BareFlagIsTrue).
TEST(CliDeathTest, BareFlagHasNoValueToRead) {
  using ::testing::ExitedWithCode;
  EXPECT_EXIT((void)parse({"--rows-csv"}).get("rows-csv", "rows.csv"),
              ExitedWithCode(1), "--rows-csv needs a value");
  EXPECT_EXIT((void)parse({"--workers", "--n=2"}).get_int("workers", 1),
              ExitedWithCode(1), "--workers needs a value");
  EXPECT_EXIT((void)parse({"--cores"}).get_int32("cores", 4),
              ExitedWithCode(1), "--cores needs a value");
  EXPECT_EXIT((void)parse({"--alpha"}).get_double("alpha", 1.1),
              ExitedWithCode(1), "--alpha needs a value");
}

// get_int32 backs every `int` flag: a value that parses as a 64-bit integer
// but does not fit an int must abort naming the flag, never wrap
// (regression: --cores=4294967298 ran a 2-core system).
TEST(CliDeathTest, OutOfRangeInt32Aborts) {
  EXPECT_DEATH((void)parse({"--cores=4294967298"}).get_int32("cores", 4),
               "bad --cores value '4294967298' \\(out of range");
  EXPECT_DEATH((void)parse({"--cores=2147483648"}).get_int32("cores", 4),
               "bad --cores value '2147483648'");
  EXPECT_DEATH((void)parse({"--cores=-2147483649"}).get_int32("cores", 4),
               "bad --cores value '-2147483649'");
  EXPECT_DEATH((void)parse({"--cores=abc"}).get_int32("cores", 4),
               "bad --cores value 'abc'");
}

TEST(Cli, Int32AcceptsItsWholeRange) {
  EXPECT_EQ(parse({"--n=2147483647"}).get_int32("n", 0), 2147483647);
  EXPECT_EQ(parse({"--n=-2147483648"}).get_int32("n", 0), -2147483647 - 1);
  EXPECT_EQ(parse({"--n=16"}).get_int32("n", 0), 16);
  EXPECT_EQ(parse({}).get_int32("n", 7), 7);
}

TEST(CliDeathTest, MalformedDoubleAborts) {
  EXPECT_DEATH((void)parse({"--load=1.5x"}).get_double("load", 0.0),
               "bad --load value '1.5x'");
  EXPECT_DEATH((void)parse({"--load=abc"}).get_double("load", 0.0),
               "bad --load value 'abc'");
  EXPECT_DEATH((void)parse({"--load="}).get_double("load", 0.0),
               "bad --load value ''");
  EXPECT_DEATH((void)parse({"--load=1e999"}).get_double("load", 0.0),
               "bad --load value '1e999'");
}

// A misspelled boolean must abort naming the flag, never read as false
// (--overheads=ture would silently run with overheads off).
TEST(CliDeathTest, MalformedBoolAborts) {
  EXPECT_DEATH((void)parse({"--overheads=ture"}).get_bool("overheads", true),
               "bad --overheads value 'ture'");
  EXPECT_DEATH((void)parse({"--overheads=on"}).get_bool("overheads", true),
               "bad --overheads value 'on'");
  EXPECT_DEATH((void)parse({"--overheads="}).get_bool("overheads", true),
               "bad --overheads value ''");
}

TEST(Cli, StrictNumericAcceptsValidValues) {
  EXPECT_EQ(parse({"--n=-3"}).get_int("n", 0), -3);
  EXPECT_EQ(parse({"--n=+7"}).get_int("n", 0), 7);
  EXPECT_DOUBLE_EQ(parse({"--x=-2.5e-3"}).get_double("x", 0.0), -2.5e-3);
  EXPECT_DOUBLE_EQ(parse({"--x=.5"}).get_double("x", 0.0), 0.5);
  // Tiny underflowing magnitudes are not errors: strtod returns the nearest
  // representable value.
  EXPECT_NEAR(parse({"--x=1e-320"}).get_double("x", 0.0), 0.0, 1e-300);
}

// ---- declared boolean flags: a value-less flag must not swallow the next
// ---- positional (regression: `--resume parts/` consumed `parts/`) --------

TEST(Cli, DeclaredBooleanDoesNotSwallowPositional) {
  const CliArgs args =
      parse_with_booleans({"--resume", "parts/"}, {"resume"});
  EXPECT_TRUE(args.get_bool("resume", false));
  ASSERT_EQ(args.positional().size(), 1u);
  EXPECT_EQ(args.positional()[0], "parts/");
}

TEST(Cli, DeclaredBooleanFollowedByFlag) {
  const CliArgs args =
      parse_with_booleans({"--resume", "--workers=4"}, {"resume"});
  EXPECT_TRUE(args.get_bool("resume", false));
  EXPECT_EQ(args.get_int("workers", 0), 4);
}

TEST(Cli, DeclaredBooleanEqualsFormStillAssigns) {
  const CliArgs args = parse_with_booleans({"--resume=false"}, {"resume"});
  EXPECT_FALSE(args.get_bool("resume", true));
}

TEST(Cli, UndeclaredFlagKeepsGreedyValueConsumption) {
  const CliArgs args = parse_with_booleans({"--app", "mcf"}, {"resume"});
  EXPECT_EQ(args.get("app", ""), "mcf");
  EXPECT_TRUE(args.positional().empty());
}

// ---- strict binaries: a typo'd flag or a stray positional must fail with a
// ---- diagnostic, never silently run with defaults (regression: the bench
// ---- drivers ran `--bin=40` with 20 bins and exited 0) ---------------------

constexpr const char* kKnown[] = {"bins", "csv"};

TEST(Cli, RejectUnknownAcceptsDeclaredFlags) {
  ::testing::internal::CaptureStderr();
  EXPECT_TRUE(parse({"--bins=40", "--csv", "out.csv"}).reject_unknown(kKnown));
  EXPECT_TRUE(parse({}).reject_unknown(kKnown));
  EXPECT_TRUE(parse({}).reject_unknown({}));
  EXPECT_EQ(::testing::internal::GetCapturedStderr(), "");
}

TEST(Cli, RejectUnknownNamesTheUnknownFlag) {
  ::testing::internal::CaptureStderr();
  EXPECT_FALSE(parse({"--csv=x", "--bin=40"}).reject_unknown(kKnown));
  EXPECT_EQ(::testing::internal::GetCapturedStderr(),
            "unknown flag --bin (see --help)\n");

  // A driver without flags rejects any flag.
  ::testing::internal::CaptureStderr();
  EXPECT_FALSE(parse({"--no-such-flag=1"}).reject_unknown({}));
  EXPECT_EQ(::testing::internal::GetCapturedStderr(),
            "unknown flag --no-such-flag (see --help)\n");
}

TEST(Cli, RejectUnknownRejectsPositionalArguments) {
  ::testing::internal::CaptureStderr();
  EXPECT_FALSE(parse({"--bins=4", "stray", "more"}).reject_unknown(kKnown));
  EXPECT_EQ(::testing::internal::GetCapturedStderr(),
            "unexpected argument 'stray' (flags take --name=value or "
            "--name value form; see --help)\n");
}

}  // namespace
}  // namespace qosrm

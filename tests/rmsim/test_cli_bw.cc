// The --bw-shares and --cores CLI contracts on the REAL binaries, plus the
// fingerprint guard: sweeps under different bandwidth-partitioning
// configurations must never share a report stamp.
//
// The binaries are spawned through the shell so their diagnostics don't
// clutter the test log; a bad value is a clean usage error (exit 1) and
// garbage is a hard QOSRM_CHECK abort from the strict get_int parser
// (signal exit).
#include <sys/wait.h>

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <span>
#include <string>

#include "arch/system_config.hh"
#include "common/cli.hh"
#include "common/str.hh"
#include "rmsim/cli_flags.hh"
#include "rmsim/sweep.hh"
#include "support/run_binary.hh"
#include "workload/db_io.hh"
#include "workload/spec_suite.hh"

namespace qosrm::rmsim {
namespace {

int run_silenced(const std::string& binary, const std::string& flag) {
  const std::string cmd =
      std::string(QOSRM_BIN_DIR) + "/" + binary + " " + flag + " >/dev/null 2>&1";
  const int status = std::system(cmd.c_str());
  // The shell reports a child's signal death as 128 + signo, unless it
  // exec'ed the binary and died of the signal itself; map both the same.
  return WIFEXITED(status) ? WEXITSTATUS(status) : 128 + WTERMSIG(status);
}

class BwSharesCli : public ::testing::TestWithParam<const char*> {};

TEST_P(BwSharesCli, RejectsZeroAndNegativeWithUsageError) {
  const std::string binary = GetParam();
  EXPECT_EQ(run_silenced(binary, "--bw-shares=0"), 1);
  EXPECT_EQ(run_silenced(binary, "--bw-shares=-2"), 1);
}

TEST_P(BwSharesCli, RejectsGarbageViaStrictIntegerParse) {
  const std::string binary = GetParam();
  // SIGABRT from QOSRM_CHECK -> 128 + 6.
  EXPECT_EQ(run_silenced(binary, "--bw-shares=abc"), 134);
  EXPECT_EQ(run_silenced(binary, "--bw-shares=2.5"), 134);
  EXPECT_EQ(run_silenced(binary, "--bw-shares="), 134);
}

INSTANTIATE_TEST_SUITE_P(Binaries, BwSharesCli,
                         ::testing::Values("sweep_main", "service_main"));

// A negative seed used to wrap to 2^64 - 1 and run (exit 0).
class SeedCli : public ::testing::TestWithParam<const char*> {};

TEST_P(SeedCli, RejectsNegativeSeedWithUsageError) {
  EXPECT_EQ(run_silenced(GetParam(), "--seed=-1"), 1);
}

INSTANTIATE_TEST_SUITE_P(Binaries, SeedCli,
                         ::testing::Values("sweep_main", "service_main"));

using testing::run_captured;

// Integer flags that do not fit an int are rejected naming the flag instead
// of wrapping: 4294967298 used to become 2 cores and 4294967336 a demand of
// 40, and the run exited 0.
TEST(IntFlagCli, OutOfRangeValuesAreRejectedNamingTheFlag) {
  std::string out;
  EXPECT_NE(run_captured("service_main", "--cores=4294967298 --policies=idle", out), 0);
  EXPECT_NE(out.find("--cores"), std::string::npos) << out;
  EXPECT_NE(run_captured("service_main", "--demand-max=4294967336 --policies=idle", out),
            0);
  EXPECT_NE(out.find("--demand-max"), std::string::npos) << out;
  EXPECT_NE(run_captured("sweep_main", "--cores=4294967298 --policies=idle", out), 0);
  EXPECT_NE(out.find("--cores"), std::string::npos) << out;
  EXPECT_NE(run_captured("sweep_main", "--threads=-4294967295", out), 0);
  EXPECT_NE(out.find("--threads"), std::string::npos) << out;
}

// Values that would write a report that is not valid JSON are usage errors
// naming the flag, and no report is written: --knee-threshold=inf used to
// write "knee_threshold": inf, and --alphas=1e-320 (subnormal, so the QoS
// target underflows) "mean_magnitude": inf - both runs exited 0.
TEST(ReportCli, NonJsonValuesAreRejectedNamingTheFlag) {
  const std::string dir = ::testing::TempDir();
  const std::string knee_json = dir + "/reject_knee.json";
  const std::string report_json = dir + "/reject_report.json";
  std::remove(knee_json.c_str());
  std::remove(report_json.c_str());
  std::string out;
  EXPECT_EQ(run_captured("service_main",
                         "--knee-report=" + knee_json + " --knee-threshold=inf", out),
            1);
  EXPECT_NE(out.find("--knee-threshold"), std::string::npos) << out;
  EXPECT_FALSE(std::ifstream(knee_json).good());
  EXPECT_EQ(run_captured("sweep_main", "--alphas=1e-320 --report-json=" + report_json,
                         out),
            1);
  EXPECT_NE(out.find("--alphas"), std::string::npos) << out;
  EXPECT_FALSE(std::ifstream(report_json).good());
}

// Every comma-list flag rejects a bad or repeated entry as a usage error
// naming the flag and the entry. All but --alphas used to abort (exit 134) with a message
// that named neither.
TEST(ListFlagCli, BadEntryExitsOneNamingFlagAndEntry) {
  const struct {
    const char* binary;
    const char* flags;
    const char* flag;
    const char* entry;
  } kCases[] = {
      {"sweep_main", "--policies=rm1,lru", "--policies", "'lru'"},
      {"sweep_main", "--policies=rm1,", "--policies", "'rm1,'"},
      {"sweep_main", "--models=model9", "--models", "'model9'"},
      {"sweep_main", "--alphas=-1", "--alphas", "'-1'"},
      {"service_main", "--policies=lru", "--policies", "'lru'"},
      {"service_main", "--model=model9", "--model", "'model9'"},
      {"service_main", "--admission=lifo", "--admission", "'lifo'"},
      {"service_main", "--loads=0", "--loads", "'0'"},
      {"service_main", "--loads=0.5,fast", "--loads", "'fast'"},
      {"service_main", "--arrivals=foo", "--arrivals", "'foo'"},
      {"service_main", "--alphas=x", "--alphas", "'x'"},
      // A repeated value (alias spellings included) used to run its rows
      // twice and exit 0.
      {"sweep_main", "--models=m3,model3", "--models", "'model3'"},
      {"service_main", "--arrivals=poisson,poisson --loads=0.5,1.0",
       "--arrivals", "'poisson'"},
  };
  for (const auto& c : kCases) {
    std::string out;
    EXPECT_EQ(run_captured(c.binary, c.flags, out), 1) << c.binary << " " << c.flags;
    EXPECT_NE(out.find(c.flag), std::string::npos) << out;
    EXPECT_NE(out.find(c.entry), std::string::npos) << out;
  }
}

// Usage errors exit 1 naming the flag and write nothing. A path flag given
// without its path used to run anyway and write to a file named "true" in
// the working directory (`sweep_main --rows-csv`, exit 0); the service load
// axis has one spelling, --loads, so --load is an unknown flag.
TEST(UsageCli, ExitsOneNamingTheFlagAndWritesNothing) {
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / "usage_cli";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::filesystem::path cwd = std::filesystem::current_path();
  std::filesystem::current_path(dir);
  const struct {
    const char* binary;
    const char* flags;
    const char* message;
  } kCases[] = {
      {"sweep_main", "--cores=2 --per-scenario=1 --policies=idle --rows-csv",
       "--rows-csv needs a value"},
      {"sweep_main", "--agg-csv --cores=2", "--agg-csv needs a value"},
      {"service_main", "--cores=2 --num-arrivals=20 --report-json",
       "--report-json needs a value"},
      {"service_main", "--db-cache --cores=2", "--db-cache needs a value"},
      {"service_main", "--load=0.8", "unknown flag --load "},
  };
  for (const auto& c : kCases) {
    std::string out;
    EXPECT_EQ(run_captured(c.binary, c.flags, out), 1) << c.binary << " " << c.flags;
    EXPECT_NE(out.find(c.message), std::string::npos) << out;
  }
  std::filesystem::current_path(cwd);
  EXPECT_TRUE(std::filesystem::is_empty(dir));
  std::filesystem::remove_all(dir);
}

// Every lower bound of both CLIs' flag tables: the bound itself passes flag
// validation - the run then stops at the unwritable --rows-csv, whose probe
// comes after every flag is read - and one below it exits 1 with one line
// naming only the flag, the bound and the value (--threads=-1 used to print
// "--cores/--replicate/--per-scenario must be >= 1 and --threads >= 0").
TEST(BoundCli, EveryBoundAcceptsItselfAndRejectsOneBelow) {
  const std::string unwritable = ::testing::TempDir() + "/no_such_dir/rows.csv";
  const struct {
    const char* binary;
    std::span<const CliFlag> flags;
  } kBinaries[] = {{"sweep_main", cli::kSweepMainFlags},
                   {"service_main", cli::kServiceMainFlags}};
  std::size_t bounded = 0;
  for (const auto& b : kBinaries) {
    for (const CliFlag& flag : b.flags) {
      if (!flag.min.has_value()) continue;
      ++bounded;
      const long long min = *flag.min;
      std::string out;
      EXPECT_EQ(run_captured(b.binary,
                             format("--%s=%lld --rows-csv=%s", flag.name, min,
                                    unwritable.c_str()),
                             out),
                1);
      EXPECT_EQ(out.rfind("--rows-csv: ", 0), 0u) << b.binary << " " << out;
      EXPECT_EQ(
          run_captured(b.binary, format("--%s=%lld", flag.name, min - 1), out),
          1);
      EXPECT_EQ(out, format("--%s must be >= %lld (got %lld)\n", flag.name,
                            min, min - 1))
          << b.binary;
    }
  }
  EXPECT_EQ(bounded, 13u);  // 6 in sweep_main, 7 in service_main
}

// Generated mixes split their cores into two application halves, so an odd
// --cores must be a usage error up front, not an abort inside the workload
// generator.
TEST(SweepCoresCli, RejectsOddCoreCountsWithUsageError) {
  EXPECT_EQ(run_silenced("sweep_main", "--cores=1"), 1);
  EXPECT_EQ(run_silenced("sweep_main", "--cores=3"), 1);
  EXPECT_EQ(run_silenced("sweep_main", "--cores=5 --replicate=2"), 1);
}

// Sweeps under different share counts carry different fingerprints (the bw
// config feeds simdb_fingerprint, which feeds sweep_fingerprint), so their
// figure reports can never be mistaken for one another.
TEST(BwSharesCli, SweepFingerprintDiffersAcrossShareCounts) {
  auto fingerprint_for = [](int bw_shares) {
    arch::SystemConfig system;
    system.cores = 2;
    system.bw = arch::bw_config_for_shares(bw_shares);
    const std::uint64_t db_fp = workload::simdb_fingerprint(
        workload::spec_suite(), system, workload::PhaseStatsOptions{});
    return sweep_fingerprint(SweepGrid{}, SimOptions{}, db_fp);
  };
  const std::uint64_t fp1 = fingerprint_for(1);
  EXPECT_NE(fp1, fingerprint_for(2));
  EXPECT_NE(fp1, fingerprint_for(4));
  EXPECT_NE(fingerprint_for(2), fingerprint_for(4));
  EXPECT_EQ(fp1, fingerprint_for(1));
}

}  // namespace
}  // namespace qosrm::rmsim

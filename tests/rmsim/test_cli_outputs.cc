// Output contract of the REAL CLI binaries: a file that cannot be committed
// is a clean error (exit 1) naming its flag, never an uncaught exception.
//
// A target path that is an existing directory passes the up-front probe
// (which only writes the temp sibling) but fails the final rename, so the
// run reaches the commit and fails there. The runs load the 2-core snapshot
// of tests/support/shared_db.hh, so the binary carries LABELS slow.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <string>

#include "support/run_binary.hh"
#include "support/shared_db.hh"

namespace qosrm::rmsim {
namespace {

using testing::run_captured;

/// --db-cache value that loads the shared 2-core snapshot (built and saved
/// by shared_db on a cold cache).
std::string db_cache_flag() {
  (void)testing::shared_db(2);
  const char* dir = std::getenv("QOSRM_DB_CACHE_DIR");
  return dir != nullptr ? std::string(" --db-cache=") + dir : std::string();
}

TEST(OutputCli, FailedCommitExitsOneNamingTheFlag) {
  const std::string dir = ::testing::TempDir() + "/cli_outputs_dir";
  std::filesystem::create_directories(dir);
  const std::string db = db_cache_flag();
  std::string out;

  EXPECT_EQ(run_captured("sweep_main",
                         "--cores=2 --policies=idle --threads=2 --rows-csv=" +
                             dir + db,
                         out),
            1)
      << out;
  EXPECT_NE(out.find("--rows-csv: "), std::string::npos) << out;

  const std::string rows = dir + "/rows.csv";
  EXPECT_EQ(run_captured("sweep_main",
                         "--cores=2 --policies=idle --threads=2 --rows-csv=" +
                             rows + " --agg-csv=" + dir + db,
                         out),
            1)
      << out;
  EXPECT_NE(out.find("--agg-csv: "), std::string::npos) << out;

  EXPECT_EQ(run_captured("service_main",
                         "--cores=2 --num-arrivals=20 --policies=idle "
                         "--threads=2 --rows-csv=" +
                             dir + db,
                         out),
            1)
      << out;
  EXPECT_NE(out.find("--rows-csv: "), std::string::npos) << out;
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace qosrm::rmsim

// The CLI --db-cache contract (resolve_db_cache + load_or_build_simdb) on
// hand-written snapshot headers, so it runs without building a database: a
// directory resolves to the per-core snapshot path, and a snapshot written
// for another configuration is a hard error naming the path - never a
// silent rebuild like warm_simdb's.
#include "workload/db_io.hh"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>

#include "common/binary_io.hh"
#include "power/power_model.hh"
#include "workload/spec_suite.hh"

namespace qosrm::workload {
namespace {

std::string fresh_dir(const char* name) {
  const std::string dir = ::testing::TempDir() + "/" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

/// A snapshot header (magic "QOSRMDB\0", version, byte-order mark,
/// fingerprint) for a `cores`-core system: enough for load_simdb to reach
/// its fingerprint check.
void write_snapshot_header(const std::string& path, int cores) {
  arch::SystemConfig system;
  system.cores = cores;
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  BinaryWriter w(out);
  w.write_u64(0x0042444D52534F51ULL);
  w.write_u32(kSimDbSnapshotVersion);
  w.write_u32(kByteOrderMark);
  w.write_u64(simdb_fingerprint(spec_suite(), system, PhaseStatsOptions{}));
  ASSERT_TRUE(w.good()) << path;
}

TEST(DbCache, EmptySpecMeansNoCache) {
  std::string error;
  const std::optional<DbCache> cache = resolve_db_cache("", 4, 1, &error);
  ASSERT_TRUE(cache.has_value()) << error;
  EXPECT_TRUE(cache->path.empty());
  EXPECT_FALSE(cache->hit);
}

TEST(DbCache, DirectoryResolvesToThePerCorePath) {
  const std::string dir = fresh_dir("db_cache_resolve");
  std::string error;
  const std::optional<DbCache> ways = resolve_db_cache(dir, 4, 1, &error);
  ASSERT_TRUE(ways.has_value()) << error;
  EXPECT_EQ(ways->path, db_cache_path(dir, 4, 1));
  EXPECT_FALSE(ways->hit);

  const std::optional<DbCache> cbp = resolve_db_cache(dir, 8, 2, &error);
  ASSERT_TRUE(cbp.has_value()) << error;
  EXPECT_EQ(cbp->path, db_cache_path(dir, 8, 2));

  // A plain file path is used as given, and an existing file is a hit.
  const std::string file = dir + "/custom.qosdb";
  std::ofstream(file) << "x";
  const std::optional<DbCache> named = resolve_db_cache(file, 4, 1, &error);
  ASSERT_TRUE(named.has_value()) << error;
  EXPECT_EQ(named->path, file);
  EXPECT_TRUE(named->hit);
  std::filesystem::remove_all(dir);
}

TEST(DbCache, UnwritableMissFailsBeforeAnyBuild) {
  std::string error;
  const std::string path = "/nonexistent-dir/suite.qosdb";
  EXPECT_FALSE(resolve_db_cache(path, 4, 1, &error).has_value());
  EXPECT_NE(error.find(path), std::string::npos) << error;
}

TEST(DbCache, ForeignFingerprintSnapshotIsAnErrorNamingThePath) {
  const std::string dir = fresh_dir("db_cache_foreign");
  const std::string path = db_cache_path(dir, 4, 1);
  write_snapshot_header(path, 6);  // a 6-core snapshot under the 4-core name

  std::string error;
  const std::optional<DbCache> cache = resolve_db_cache(dir, 4, 1, &error);
  ASSERT_TRUE(cache.has_value()) << error;
  ASSERT_TRUE(cache->hit);

  arch::SystemConfig system;
  system.cores = 4;
  const power::PowerModel power;
  EXPECT_FALSE(load_or_build_simdb(*cache, spec_suite(), system, power, {},
                                   &error)
                   .has_value());
  EXPECT_NE(error.find(path), std::string::npos) << error;
  EXPECT_NE(error.find("stale"), std::string::npos) << error;
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace qosrm::workload

#include "workload/db_io.hh"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <optional>
#include <string>

#include "common/binary_io.hh"
#include "support/shared_db.hh"

namespace qosrm::workload {
namespace {

using qosrm::testing::shared_db;

std::string temp_path(const char* name) {
  return ::testing::TempDir() + name;
}

/// Enumerates the full finite (c, f, w) grid of the database's system.
std::vector<Setting> full_grid(const arch::SystemConfig& sys) {
  std::vector<Setting> settings;
  for (const arch::CoreSize c : arch::kAllCoreSizes) {
    for (int f = 0; f < arch::VfTable::kNumPoints; ++f) {
      for (int w = 1; w <= sys.llc.max_ways; ++w) settings.push_back({c, f, w});
    }
  }
  return settings;
}

/// Counts cells where the two databases disagree bitwise on timing or energy
/// (EXPECT per double would drown the output on a real regression).
int grid_mismatches(const SimDb& a, const SimDb& b) {
  int mismatches = 0;
  const std::vector<Setting> settings = full_grid(a.system());
  for (int app = 0; app < a.suite().size(); ++app) {
    for (int ph = 0; ph < a.num_phases(app); ++ph) {
      for (const Setting& s : settings) {
        const arch::IntervalTiming ta = a.timing(app, ph, s);
        const arch::IntervalTiming tb = b.timing(app, ph, s);
        if (ta.width_cycles != tb.width_cycles || ta.ilp_cycles != tb.ilp_cycles ||
            ta.branch_cycles != tb.branch_cycles ||
            ta.cache_cycles != tb.cache_cycles ||
            ta.core_seconds != tb.core_seconds ||
            ta.mem_seconds != tb.mem_seconds ||
            ta.total_seconds != tb.total_seconds) {
          ++mismatches;
        }
        const power::IntervalEnergy ea = a.energy(app, ph, s);
        const power::IntervalEnergy eb = b.energy(app, ph, s);
        if (ea.core_dynamic_j != eb.core_dynamic_j ||
            ea.core_static_j != eb.core_static_j || ea.memory_j != eb.memory_j) {
          ++mismatches;
        }
      }
      if (a.baseline_time(app, ph) != b.baseline_time(app, ph)) ++mismatches;
    }
    for (int w = a.system().llc.min_ways; w <= a.system().llc.max_ways; ++w) {
      if (a.app_mpki(app, w) != b.app_mpki(app, w)) ++mismatches;
    }
    for (const arch::CoreSize c : arch::kAllCoreSizes) {
      if (a.app_mlp(app, c) != b.app_mlp(app, c)) ++mismatches;
    }
  }
  return mismatches;
}

TEST(DbIo, DefaultFourCoreFingerprintIsPinned) {
  // A snapshot's identity. Changing a hashed value, or the order values are
  // fed in, turns every cached .qosdb into a hard --db-cache error and moves
  // every golden report's fingerprint stamp.
  arch::SystemConfig system;
  system.cores = 4;
  EXPECT_EQ(simdb_fingerprint(spec_suite(), system, PhaseStatsOptions{}),
            0xbc3cf772432e95c5ULL);
}

TEST(DbIo, RoundTripIsBitIdentical) {
  const SimDb& db = shared_db();
  const std::string path = temp_path("roundtrip.qosdb");
  std::string error;
  ASSERT_TRUE(save_simdb(db, path, &error)) << error;

  const std::optional<SimDb> loaded = load_simdb(
      db.suite(), db.system(), db.power(), db.phase_options(), path, &error);
  ASSERT_TRUE(loaded.has_value()) << error;
  EXPECT_EQ(grid_mismatches(db, *loaded), 0);
  std::remove(path.c_str());
}

TEST(DbIo, SavedBytesAreDeterministic) {
  const SimDb& db = shared_db();
  const std::string p1 = temp_path("det1.qosdb");
  const std::string p2 = temp_path("det2.qosdb");
  std::string error;
  ASSERT_TRUE(save_simdb(db, p1, &error)) << error;
  ASSERT_TRUE(save_simdb(db, p2, &error)) << error;

  std::ifstream f1(p1, std::ios::binary), f2(p2, std::ios::binary);
  const std::string b1((std::istreambuf_iterator<char>(f1)), {});
  const std::string b2((std::istreambuf_iterator<char>(f2)), {});
  EXPECT_FALSE(b1.empty());
  EXPECT_EQ(b1, b2);
  std::remove(p1.c_str());
  std::remove(p2.c_str());
}

TEST(DbIo, RejectsAlteredSystemConfig) {
  const SimDb& db = shared_db();
  const std::string path = temp_path("sysmismatch.qosdb");
  std::string error;
  ASSERT_TRUE(save_simdb(db, path, &error)) << error;

  arch::SystemConfig other_cores = db.system();
  other_cores.cores = db.system().cores + 1;
  EXPECT_FALSE(load_simdb(db.suite(), other_cores, db.power(),
                          db.phase_options(), path, &error)
                   .has_value());
  EXPECT_NE(error.find("stale"), std::string::npos) << error;

  arch::SystemConfig other_latency = db.system();
  other_latency.mem_latency_s *= 1.0 + 1e-12;  // even an LSB flip must reject
  error.clear();
  EXPECT_FALSE(load_simdb(db.suite(), other_latency, db.power(),
                          db.phase_options(), path, &error)
                   .has_value());
  EXPECT_FALSE(error.empty());
  std::remove(path.c_str());
}

TEST(DbIo, RejectsAlteredPhaseStatsOptions) {
  const SimDb& db = shared_db();
  const std::string path = temp_path("optmismatch.qosdb");
  std::string error;
  ASSERT_TRUE(save_simdb(db, path, &error)) << error;

  PhaseStatsOptions other = db.phase_options();
  other.mlp_index_bits += 1;
  EXPECT_FALSE(load_simdb(db.suite(), db.system(), db.power(), other, path, &error)
                   .has_value());
  EXPECT_NE(error.find("stale"), std::string::npos) << error;

  other = db.phase_options();
  other.synth.represented_instructions += 1.0;
  error.clear();
  EXPECT_FALSE(load_simdb(db.suite(), db.system(), db.power(), other, path, &error)
                   .has_value());
  EXPECT_FALSE(error.empty());
  std::remove(path.c_str());
}

TEST(DbIo, RejectsGarbageAndTruncatedFiles) {
  const SimDb& db = shared_db();
  std::string error;

  const std::string garbage = temp_path("garbage.qosdb");
  {
    std::ofstream out(garbage, std::ios::binary);
    out << "this is not a snapshot";
  }
  EXPECT_FALSE(load_simdb(db.suite(), db.system(), db.power(),
                          db.phase_options(), garbage, &error)
                   .has_value());
  EXPECT_FALSE(error.empty());
  std::remove(garbage.c_str());

  const std::string truncated = temp_path("truncated.qosdb");
  ASSERT_TRUE(save_simdb(db, truncated, &error)) << error;
  {
    std::ifstream in(truncated, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)), {});
    in.close();
    bytes.resize(bytes.size() / 2);
    std::ofstream out(truncated, std::ios::binary | std::ios::trunc);
    out << bytes;
  }
  error.clear();
  EXPECT_FALSE(load_simdb(db.suite(), db.system(), db.power(),
                          db.phase_options(), truncated, &error)
                   .has_value());
  EXPECT_FALSE(error.empty());
  std::remove(truncated.c_str());

  const std::string padded = temp_path("padded.qosdb");
  ASSERT_TRUE(save_simdb(db, padded, &error)) << error;
  {
    std::ofstream out(padded, std::ios::binary | std::ios::app);
    out << "trailing garbage";
  }
  error.clear();
  EXPECT_FALSE(load_simdb(db.suite(), db.system(), db.power(),
                          db.phase_options(), padded, &error)
                   .has_value());
  EXPECT_NE(error.find("trailing"), std::string::npos) << error;
  std::remove(padded.c_str());

  error.clear();
  EXPECT_FALSE(load_simdb(db.suite(), db.system(), db.power(),
                          db.phase_options(), temp_path("does_not_exist.qosdb"),
                          &error)
                   .has_value());
  EXPECT_FALSE(error.empty());
}

TEST(DbIo, RejectsFlippedPayloadBit) {
  const SimDb& db = shared_db();
  const std::string path = temp_path("bitflip.qosdb");
  std::string error;
  ASSERT_TRUE(save_simdb(db, path, &error)) << error;

  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)), {});
  in.close();
  ASSERT_GT(bytes.size(), 200u);
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x10);
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << bytes;
  }
  EXPECT_FALSE(load_simdb(db.suite(), db.system(), db.power(),
                          db.phase_options(), path, &error)
                   .has_value());
  EXPECT_FALSE(error.empty());
  std::remove(path.c_str());
}

// A snapshot whose trailing checksum is internally consistent but whose
// phase arrays have the wrong shape (e.g. produced by a buggy external
// writer) must be rejected with an error, not abort inside EvalTable.
TEST(DbIo, RejectsShapeInvalidButChecksumConsistentFile) {
  const SimDb& db = shared_db();
  std::string error;

  // Steal the magic/version/BOM header prefix from a genuine snapshot.
  const std::string valid = temp_path("valid_for_magic.qosdb");
  ASSERT_TRUE(save_simdb(db, valid, &error)) << error;
  std::uint64_t magic = 0;
  {
    std::ifstream in(valid, std::ios::binary);
    in.read(reinterpret_cast<char*>(&magic), sizeof magic);
    ASSERT_TRUE(in.good());
  }
  std::remove(valid.c_str());

  const std::string crafted = temp_path("shape_invalid.qosdb");
  {
    std::ofstream out(crafted, std::ios::binary | std::ios::trunc);
    BinaryWriter w(out);
    w.write_u64(magic);
    w.write_u32(kSimDbSnapshotVersion);
    w.write_u32(kByteOrderMark);
    w.write_u64(simdb_fingerprint(db.suite(), db.system(), db.phase_options()));
    w.write_u32(static_cast<std::uint32_t>(db.suite().size()));
    for (int a = 0; a < db.suite().size(); ++a) {
      w.write_u32(static_cast<std::uint32_t>(db.num_phases(a)));
      for (int ph = 0; ph < db.num_phases(a); ++ph) {
        for (int vec = 0; vec < 7; ++vec) w.write_f64_vec({});  // empty arrays
        for (int scalar = 0; scalar < 7; ++scalar) w.write_f64(1.0);
      }
    }
    w.write_trailing_checksum();
    ASSERT_TRUE(w.good());
  }
  EXPECT_FALSE(load_simdb(db.suite(), db.system(), db.power(),
                          db.phase_options(), crafted, &error)
                   .has_value());
  EXPECT_NE(error.find("malformed"), std::string::npos) << error;
  std::remove(crafted.c_str());
}

TEST(DbIo, WarmSimDbBuildsThenLoads) {
  const std::string path = temp_path("warm.qosdb");
  std::remove(path.c_str());
  arch::SystemConfig system;
  system.cores = 2;
  const power::PowerModel power;

  DbCacheOutcome outcome = DbCacheOutcome::Built;
  const SimDb first =
      warm_simdb(spec_suite(), system, power, {}, path, &outcome);
  EXPECT_EQ(outcome, DbCacheOutcome::BuiltAndSaved);

  const SimDb second =
      warm_simdb(spec_suite(), system, power, {}, path, &outcome);
  EXPECT_EQ(outcome, DbCacheOutcome::Loaded);
  EXPECT_EQ(grid_mismatches(first, second), 0);

  // A stale snapshot (different system) is rejected and rebuilt, not reused.
  arch::SystemConfig other = system;
  other.cores = 3;
  const SimDb rebuilt = warm_simdb(spec_suite(), other, power, {}, path, &outcome);
  EXPECT_EQ(outcome, DbCacheOutcome::BuiltAndSaved);
  EXPECT_EQ(rebuilt.system().cores, 3);
  std::remove(path.c_str());
}

TEST(DbIo, SnapshotLoadIsFasterThanColdBuild) {
  using Clock = std::chrono::steady_clock;
  arch::SystemConfig system;
  system.cores = 2;
  const power::PowerModel power;
  const std::string path = temp_path("speed.qosdb");

  const auto t_build = Clock::now();
  const SimDb cold(spec_suite(), system, power);
  const double build_s = std::chrono::duration<double>(Clock::now() - t_build).count();

  std::string error;
  ASSERT_TRUE(save_simdb(cold, path, &error)) << error;

  double best_load_s = 1e300;
  for (int i = 0; i < 3; ++i) {
    const auto t_load = Clock::now();
    const std::optional<SimDb> loaded = load_simdb(
        spec_suite(), system, power, cold.phase_options(), path, &error);
    ASSERT_TRUE(loaded.has_value()) << error;
    best_load_s = std::min(
        best_load_s, std::chrono::duration<double>(Clock::now() - t_load).count());
  }
  // Loose bound: characterization takes seconds, a load takes milliseconds.
  // The acceptance target is >= 10x; in practice this is >100x.
  EXPECT_GT(build_s, 10.0 * best_load_s)
      << "build " << build_s << "s vs load " << best_load_s << "s";
  std::remove(path.c_str());
}

}  // namespace
}  // namespace qosrm::workload

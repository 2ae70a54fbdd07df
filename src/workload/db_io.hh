// Versioned binary snapshots of the simulation database.
//
// A snapshot stores the expensive part of a SimDb - the per-(app, phase)
// characterization - so long sweeps, benches and the slow test suites can
// restore a multi-second build in milliseconds. The materialized evaluation
// table is deterministically rebuilt from the restored stats, so a loaded
// database is bit-identical to a freshly characterized one.
//
// File layout (native-endian, see common/binary_io.hh):
//
//   u64 magic "QOSRMDB\0" | u32 version | u32 byte-order mark
//   u64 fingerprint(suite, SystemConfig, PhaseStatsOptions)
//   payload: per (app, phase) PhaseStats arrays and scalars
//   u64 trailing FNV-1a checksum of everything above
//
// The fingerprint hashes every parameter the characterization depends on
// (exact double bit patterns included), so a snapshot produced under a
// different suite, system configuration or characterization option set is
// REJECTED, never silently reused. The trailing checksum catches truncation
// and bit corruption.
#ifndef QOSRM_WORKLOAD_DB_IO_HH
#define QOSRM_WORKLOAD_DB_IO_HH

#include <cstdint>
#include <optional>
#include <string>

#include "workload/sim_db.hh"

namespace qosrm::workload {

inline constexpr std::uint32_t kSimDbSnapshotVersion = 1;

/// Conventional snapshot file extension (gitignored).
inline constexpr const char* kSimDbSnapshotExtension = ".qosdb";

/// Identity checksum of everything a snapshot must match: the suite's full
/// parameterization, the SystemConfig and the PhaseStatsOptions.
[[nodiscard]] std::uint64_t simdb_fingerprint(const SpecSuite& suite,
                                              const arch::SystemConfig& system,
                                              const PhaseStatsOptions& options);

/// Saves `db`'s characterization to `path`. False + *error on I/O failure
/// (the partial file is removed).
bool save_simdb(const SimDb& db, const std::string& path, std::string* error);

/// Loads a snapshot for exactly (suite, system, options). nullopt + *error
/// when the file is unreadable, not a snapshot, the wrong version, written
/// under a different configuration (fingerprint mismatch), or corrupt.
[[nodiscard]] std::optional<SimDb> load_simdb(const SpecSuite& suite,
                                              const arch::SystemConfig& system,
                                              const power::PowerModel& power,
                                              const PhaseStatsOptions& options,
                                              const std::string& path,
                                              std::string* error);

/// Per-core-count snapshot path under a cache directory (or path prefix):
/// "<dir>/suite-c<cores><.qosdb>"; a partitioned-bandwidth run
/// (bw_shares > 1) gets the distinct "<dir>/suite-c<cores>-b<shares>" name.
[[nodiscard]] std::string db_cache_path(const std::string& dir, int cores,
                                        int bw_shares = 1);

/// How warm_simdb obtained its database.
enum class DbCacheOutcome {
  Built,          ///< no cache path given: plain characterization
  BuiltAndSaved,  ///< cache miss (or stale snapshot): built, snapshot written
  Loaded,         ///< cache hit: restored from the snapshot
};

/// Build-or-load convenience for benches and tests. Empty `path` just
/// characterizes. Otherwise: load on hit; on miss, characterize and save; a
/// stale or corrupt snapshot is rejected with a warning to stderr and
/// rebuilt (overwriting it). The CLI drivers must fail hard on a bad cache
/// file instead, and use resolve_db_cache + load_or_build_simdb.
[[nodiscard]] SimDb warm_simdb(const SpecSuite& suite,
                               const arch::SystemConfig& system,
                               const power::PowerModel& power,
                               const SimDbOptions& options,
                               const std::string& path,
                               DbCacheOutcome* outcome = nullptr);

/// A resolved --db-cache request of the CLI drivers.
struct DbCache {
  std::string path;  ///< snapshot path ("" = no cache)
  bool hit = false;  ///< the snapshot exists and will be loaded
};

/// First half of the CLI --db-cache contract, run before any expensive work
/// so a bad path fails fast: a directory `spec` selects
/// db_cache_path(spec, cores, bw_shares) (the benches' layout), then a hit
/// is probed, or on a miss that the snapshot could be written (through the
/// temp sibling save_simdb stages into, never the path itself). Empty `spec`
/// means no cache. nullopt + *error naming the path when a miss is not
/// writable.
[[nodiscard]] std::optional<DbCache> resolve_db_cache(const std::string& spec,
                                                      int cores, int bw_shares,
                                                      std::string* error);

/// Second half: loads the snapshot on a hit - a stale or corrupt snapshot is
/// an error, unlike warm_simdb - or characterizes on a miss and saves the
/// snapshot when a path is set. nullopt + *error naming the path on failure.
[[nodiscard]] std::optional<SimDb> load_or_build_simdb(
    const DbCache& cache, const SpecSuite& suite,
    const arch::SystemConfig& system, const power::PowerModel& power,
    const SimDbOptions& options, std::string* error);

}  // namespace qosrm::workload

#endif  // QOSRM_WORKLOAD_DB_IO_HH

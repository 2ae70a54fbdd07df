// Shared SimDb instance for database-heavy tests: characterizing the full
// 27-app suite takes a few seconds, so tests within one binary share one
// database per (core count, bandwidth-share count).
//
// When QOSRM_DB_CACHE_DIR is set, the database is restored from (or saved
// to) a binary snapshot under that directory, so a whole `ctest -L slow` run
// pays the characterization cost once instead of once per test binary. A
// stale snapshot is rejected (warning on stderr) and rebuilt. Under CTest the
// `slow` tests point it at <build>/qosdb-cache, which the qosdb_cache_setup
// fixture (build_db_cache.cc) fills from scratch before they run.
#ifndef QOSRM_TESTS_SUPPORT_SHARED_DB_HH
#define QOSRM_TESTS_SUPPORT_SHARED_DB_HH

#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <utility>

#include "power/power_model.hh"
#include "workload/db_io.hh"
#include "workload/sim_db.hh"

namespace qosrm::testing {

/// The system a shared database is characterized for.
inline arch::SystemConfig shared_db_system(int cores, int bw_shares) {
  arch::SystemConfig system;
  system.cores = cores;
  system.bw = arch::bw_config_for_shares(bw_shares);
  return system;
}

inline const workload::SimDb& shared_db(int cores = 2, int bw_shares = 1) {
  static std::map<std::pair<int, int>, std::unique_ptr<workload::SimDb>> dbs;
  const std::pair<int, int> key{cores, bw_shares};
  auto it = dbs.find(key);
  if (it == dbs.end()) {
    const arch::SystemConfig system = shared_db_system(cores, bw_shares);
    const power::PowerModel power;
    const char* cache_dir = std::getenv("QOSRM_DB_CACHE_DIR");
    const std::string cache_path =
        cache_dir != nullptr
            ? workload::db_cache_path(cache_dir, cores, bw_shares)
            : std::string();
    it = dbs.emplace(key,
                     std::make_unique<workload::SimDb>(workload::warm_simdb(
                         workload::spec_suite(), system, power, {}, cache_path)))
             .first;
  }
  return *it->second;
}

}  // namespace qosrm::testing

#endif  // QOSRM_TESTS_SUPPORT_SHARED_DB_HH

#include "rmsim/cli_prologue.hh"

#include <cstdio>
#include <string>

#include "power/power_model.hh"
#include "workload/db_io.hh"
#include "workload/spec_suite.hh"

namespace qosrm::rmsim {

std::optional<CliDb> prepare_cli_db(const CliArgs& args,
                                    const std::vector<OutputFlag>& outputs,
                                    int cores) {
  const int bw_shares = args.get_int32("bw-shares");
  // Each probe touches only the uniquely named temp sibling the later atomic
  // commit will use, NEVER the target itself: an interrupted or failed run
  // must not leave an empty decoy CSV/report, and an existing file stays
  // untouched until its atomic replacement.
  if (!probe_outputs(outputs)) return std::nullopt;

  // --db-cache: decide hit/miss now, and on a miss probe writability, so a
  // bad path fails here instead of after the multi-second database build.
  std::string error;
  const std::optional<workload::DbCache> db_cache = workload::resolve_db_cache(
      args.get("db-cache"), cores, bw_shares, &error);
  if (!db_cache.has_value()) {
    std::fprintf(stderr, "--db-cache: %s\n", error.c_str());
    return std::nullopt;
  }

  const workload::SpecSuite& suite = workload::spec_suite();
  arch::SystemConfig system;
  system.cores = cores;
  system.bw = arch::bw_config_for_shares(bw_shares);
  const power::PowerModel power;

  if (db_cache->hit) {
    std::printf("loading simulation database from %s...\n",
                db_cache->path.c_str());
  } else {
    std::printf("characterizing %d-app suite for %d cores...\n", suite.size(),
                cores);
  }
  workload::SimDbOptions db_options;
  db_options.threads = args.get_int32("threads");
  std::optional<workload::SimDb> db = workload::load_or_build_simdb(
      *db_cache, suite, system, power, db_options, &error);
  if (!db.has_value()) {
    std::fprintf(stderr, "--db-cache: %s\n", error.c_str());
    return std::nullopt;
  }
  if (!db_cache->hit && !db_cache->path.empty()) {
    std::printf("saved simulation database snapshot to %s\n",
                db_cache->path.c_str());
  }
  return CliDb{std::move(*db), db_cache->hit};
}

}  // namespace qosrm::rmsim

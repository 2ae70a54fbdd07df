// The start-up both CLI drivers share between parsing their flags and
// running their grid: probe every output path, resolve --db-cache, then load
// the snapshot or characterize the suite, printing which.
#ifndef QOSRM_RMSIM_CLI_PROLOGUE_HH
#define QOSRM_RMSIM_CLI_PROLOGUE_HH

#include <optional>
#include <vector>

#include "common/cli.hh"
#include "workload/sim_db.hh"

namespace qosrm::rmsim {

struct CliDb {
  workload::SimDb db;
  bool loaded = false;  ///< restored from the --db-cache snapshot
};

/// Probes `outputs` (common/cli.hh probe_outputs) and resolves --db-cache
/// before any expensive work, so a bad path fails in milliseconds; then
/// loads or characterizes the database of the spec suite on `cores` cores
/// with --bw-shares bandwidth shares per core (--threads lanes for a cold
/// build). nullopt after printing a diagnostic naming the flag to stderr.
[[nodiscard]] std::optional<CliDb> prepare_cli_db(
    const CliArgs& args, const std::vector<OutputFlag>& outputs, int cores);

}  // namespace qosrm::rmsim

#endif  // QOSRM_RMSIM_CLI_PROLOGUE_HH

// Canonical flag inventories of the two CLI binaries. Each main's strict
// unknown-flag validation builds its known set from the array here, and the
// flag-coverage test (tests/rmsim/test_cli_docs.cc) checks both directions
// against docs/CLI.md - every entry is documented, and every flag the doc's
// tables name is declared here - so neither can drift from the other.
//
// `--help` is accepted by every binary before validation runs, so it is
// deliberately absent from the per-binary arrays (documented once in
// docs/CLI.md instead).
#ifndef QOSRM_RMSIM_CLI_FLAGS_HH
#define QOSRM_RMSIM_CLI_FLAGS_HH

namespace qosrm::rmsim::cli {

/// sweep_main: the closed 24-mix grid sweep (rmsim/sweep.hh).
inline constexpr const char* kSweepMainFlags[] = {
    "cores",    "replicate", "bw-shares",   "per-scenario", "seed",
    "policies", "models",    "alphas",      "threads",      "rows-csv",
    "agg-csv",  "report-json", "fig6-csv",  "fig7-csv",     "fig9-csv",
    "overheads", "db-cache"};

/// service_main: the open-loop colocation service (rmsim/service.hh).
inline constexpr const char* kServiceMainFlags[] = {
    "cores",       "bw-shares",  "arrivals",     "num-arrivals", "loads",
    "admission",   "policies",   "model",        "alphas",       "seed",
    "demand-min",  "demand-max", "queue-cap",    "threads",      "rows-csv",
    "report-json", "knee-report", "knee-threshold", "knee-csv-prefix",
    "db-cache"};

}  // namespace qosrm::rmsim::cli

#endif  // QOSRM_RMSIM_CLI_FLAGS_HH

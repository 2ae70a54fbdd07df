// The flag tables of the two CLI binaries (common/cli.hh CliFlag). Each
// main parses its argv against its table, and docs/CLI.md's two flag tables
// are the rendering of these, byte-checked by tests/rmsim/test_cli_docs.cc.
// A flag both binaries accept with the same meaning is written once.
#ifndef QOSRM_RMSIM_CLI_FLAGS_HH
#define QOSRM_RMSIM_CLI_FLAGS_HH

#include "common/cli.hh"

namespace qosrm::rmsim::cli {

inline constexpr CliFlag kBwShares = {
    "bw-shares", CliFlag::kInt, "N", "1", 1,
    "memory-bandwidth shares per core (1 = unpartitioned; N >= 2 adds the "
    "CBP share axis to the optimizer's knob space)"};
inline constexpr CliFlag kPolicies = {
    "policies", CliFlag::kText, "LIST", "idle,rm1,rm2,rm3", {},
    "comma list of `idle|rm1|rm2|rm3|ucp|fcp|classpart`"};
inline constexpr CliFlag kAlphas = {
    "alphas", CliFlag::kText, "LIST", "0", {},
    "comma list of QoS alphas; 0 = system default, else a positive normal "
    "double"};
inline constexpr CliFlag kThreads = {
    "threads", CliFlag::kInt, "N", "0", 0,
    "grid parallelism, also the lanes of a cold database build (serial at 1, "
    "else N + 1); 0 = hardware concurrency"};
inline constexpr CliFlag kDbCache = {
    "db-cache", CliFlag::kText, "PATH", "", {},
    "simulation-database snapshot: load if present (stale/corrupt is an "
    "error), else characterize and save; a directory selects "
    "`<dir>/suite-c<cores>.qosdb`"};

/// sweep_main: the closed 24-mix grid sweep (rmsim/sweep.hh).
inline constexpr CliFlag kSweepMainFlags[] = {
    {"cores", CliFlag::kInt, "N", "4", 2,
     "cores per generated workload, an even number"},
    {"replicate", CliFlag::kInt, "K", "1", 1,
     "scale every mix to K x its cores by scenario-preserving replication"},
    kBwShares,
    {"per-scenario", CliFlag::kInt, "N", "1", 1,
     "workload mixes per scenario (the paper uses 6)"},
    {"seed", CliFlag::kInt, "N", "2020", 0, "workload-generation seed"},
    kPolicies,
    {"models", CliFlag::kText, "LIST", "model3", {},
     "comma list of `model1|model2|model3|perfect`"},
    kAlphas,
    kThreads,
    {"rows-csv", CliFlag::kText, "PATH", "sweep_rows.csv", {},
     "per-run CSV output"},
    {"agg-csv", CliFlag::kText, "PATH", "", {},
     "per-configuration aggregate CSV (optional)"},
    {"report-json", CliFlag::kText, "PATH", "", {},
     "Fig. 6/7/9 figure report, byte-stable JSON stamped with the sweep "
     "fingerprint (optional)"},
    {"fig6-csv", CliFlag::kText, "PATH", "", {},
     "Fig. 6 savings aggregates of the same report as CSV (optional)"},
    {"fig7-csv", CliFlag::kText, "PATH", "", {},
     "Fig. 7 violation statistics as CSV (optional)"},
    {"fig9-csv", CliFlag::kText, "PATH", "", {},
     "Fig. 9 model-vs-oracle deltas as CSV (optional; rows only when "
     "`perfect` is on the model axis)"},
    {"overheads", CliFlag::kBool, "BOOL", "true", {},
     "model RM/enforcement overheads; BOOL is `true`, `1` or `yes`, or "
     "`false`, `0` or `no`"},
    kDbCache};

/// service_main: the open-loop colocation service (rmsim/service.hh).
inline constexpr CliFlag kServiceMainFlags[] = {
    {"cores", CliFlag::kInt, "N", "16", 1, "size of the served core pool"},
    kBwShares,
    {"arrivals", CliFlag::kText, "LIST", "poisson", {},
     "comma list of `poisson|bursty|diurnal` arrival patterns"},
    {"num-arrivals", CliFlag::kInt, "N", "5000", 1, "arrivals per grid point"},
    {"loads", CliFlag::kText, "LIST", "0.8", {},
     "comma list of offered utilizations > 0"},
    {"admission", CliFlag::kText, "LIST", "fifo", {},
     "comma list of `fifo|sdf|qos-aware` admission policies; every admission "
     "cell of one (pattern, load) faces the identical trace"},
    kPolicies,
    {"model", CliFlag::kText, "NAME", "model3", {},
     "performance model, exactly one of `model1|model2|model3|perfect`"},
    kAlphas,
    {"seed", CliFlag::kInt, "N", "2020", 0, "arrival-trace seed"},
    {"demand-min", CliFlag::kInt, "N", "40", 1,
     "per-app demand lower bound, in intervals"},
    {"demand-max", CliFlag::kInt, "N", "160", {},
     "per-app demand upper bound, at least `--demand-min`"},
    {"queue-cap", CliFlag::kInt, "N", "4096", 1, "admission-queue capacity"},
    kThreads,
    {"rows-csv", CliFlag::kText, "PATH", "service_rows.csv", {},
     "per-run CSV output"},
    {"report-json", CliFlag::kText, "PATH", "", {},
     "tail-metric report, byte-stable JSON stamped with the service "
     "fingerprint (optional)"},
    {"knee-report", CliFlag::kText, "PATH", "", {},
     "aggregate knee report: folds the load axis into one p99-violation "
     "curve per {pattern x admission x policy x alpha} and marks the first "
     "load whose p99 crosses the threshold (byte-stable JSON)"},
    {"knee-threshold", CliFlag::kReal, "X", "0.1", {},
     "p99 Eq. 6 magnitude counting as past the knee (finite, > 0; requires "
     "`--knee-report`)"},
    {"knee-csv-prefix", CliFlag::kText, "P", "", {},
     "also write per-pattern knee curves to `<P><pattern>.csv` (requires "
     "`--knee-report`)"},
    kDbCache};

}  // namespace qosrm::rmsim::cli

#endif  // QOSRM_RMSIM_CLI_FLAGS_HH

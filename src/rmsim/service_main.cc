// service_main - CLI driver for the colocation-service mode.
//
// Draws a seeded open-loop arrival trace (poisson/bursty/diurnal) over a
// pool of cores, admits and evicts applications against the interval
// simulator, and reports streaming tail metrics (p50/p95/p99 QoS-violation
// magnitude, energy per served app, RM decisions/sec, occupancy) per
// {arrival pattern x load x admission x policy x alpha} grid point. Output
// is byte-identical for any --threads value.
//
//   service_main --cores=16 --arrivals=poisson --load=0.8 --policies=rm3
//                --admission=fifo,sdf,qos-aware --alphas=0
//                --num-arrivals=5000 --seed=2020
//                --rows-csv=service_rows.csv --report-json=service.json
//
// A dense --loads sweep plus --knee-report folds the load axis into one
// p99-violation curve per {pattern x admission x policy x alpha} and marks
// the knee: the first load whose p99 Eq. 6 magnitude crosses
// --knee-threshold (rmsim/report.hh, build_service_knee_report).
#include <chrono>
#include <cmath>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "common/cli.hh"
#include "common/file_util.hh"
#include "common/thread_pool.hh"
#include "power/power_model.hh"
#include "rmsim/cli_flags.hh"
#include "rmsim/report.hh"
#include "rmsim/service.hh"
#include "rmsim/sweep.hh"
#include "workload/arrival_gen.hh"
#include "workload/db_io.hh"
#include "workload/sim_db.hh"
#include "workload/spec_suite.hh"

namespace {

namespace workload = qosrm::workload;
namespace rmsim = qosrm::rmsim;
using Clock = std::chrono::steady_clock;

void print_usage() {
  std::puts(
      "service_main: open-loop colocation service over the RM simulator\n"
      "  --cores=N          size of the served core pool (default 16)\n"
      "  --bw-shares=N      memory-bandwidth shares per core (default 1 =\n"
      "                     unpartitioned bandwidth; N >= 2 adds the CBP\n"
      "                     share axis to the optimizer's knob space)\n"
      "  --arrivals=LIST    comma list of poisson|bursty|diurnal arrival\n"
      "                     patterns (default poisson)\n"
      "  --num-arrivals=N   arrivals per grid point (default 5000)\n"
      "  --load=LIST        comma list of offered utilizations > 0\n"
      "                     (default 0.8; --loads is an accepted alias)\n"
      "  --admission=LIST   comma list of fifo|sdf|qos-aware admission\n"
      "                     policies (default fifo); every admission cell of\n"
      "                     one (pattern, load) faces the identical trace\n"
      "  --policies=LIST    comma list of idle|rm1|rm2|rm3|ucp|fcp|classpart\n"
      "                     (default idle,rm1,rm2,rm3)\n"
      "  --model=NAME       performance model: model1|model2|model3|perfect\n"
      "                     (exactly one; default model3)\n"
      "  --alphas=LIST      comma list of QoS alphas; 0 = system default,\n"
      "                     else a positive normal double (default 0)\n"
      "  --seed=N           arrival-trace seed (default 2020)\n"
      "  --demand-min=N     per-app demand lower bound, intervals (default 40)\n"
      "  --demand-max=N     per-app demand upper bound (default 160)\n"
      "  --queue-cap=N      admission-queue capacity (default 4096)\n"
      "  --threads=N        grid parallelism, also the lanes of a cold\n"
      "                     database build (serial at 1, else N + 1);\n"
      "                     0 = hardware concurrency\n"
      "  --rows-csv=PATH    per-run CSV output (default service_rows.csv)\n"
      "  --report-json=PATH tail-metric report (byte-stable JSON, stamped\n"
      "                     with the service fingerprint; optional)\n"
      "  --knee-report=PATH aggregate knee report: folds the load axis into\n"
      "                     one p99-violation curve per {pattern x admission\n"
      "                     x policy x alpha} and marks the first load whose\n"
      "                     p99 crosses the threshold (byte-stable JSON)\n"
      "  --knee-threshold=X p99 Eq. 6 magnitude counting as past the knee\n"
      "                     (finite, > 0; default 0.1; requires --knee-report)\n"
      "  --knee-csv-prefix=P  also write per-pattern knee curves to\n"
      "                     <P><pattern>.csv (requires --knee-report)\n"
      "  --db-cache=PATH    simulation-database snapshot: load it when the\n"
      "                     file exists (a stale/corrupt snapshot is an\n"
      "                     error), otherwise characterize and save it; a\n"
      "                     directory selects <dir>/suite-c<cores>.qosdb\n"
      "                     (same layout as the benches)");
}

void print_rows(const std::vector<rmsim::ServiceRow>& rows) {
  std::printf("\n%-8s %6s %-9s %-6s %9s %9s %9s %12s %10s %10s\n", "pattern",
              "load", "admission", "policy", "alpha", "viol-rate", "p99-viol",
              "energy/app", "rm-dec/s", "occupancy");
  for (const rmsim::ServiceRow& row : rows) {
    std::printf(
        "%-8s %6.3g %-9s %-6s %9.4g %9.4g %9.4g %11.4gJ %10.4g %10.4g\n",
        workload::arrival_pattern_name(row.pattern), row.load,
        rmsim::admission_policy_name(row.admission),
        qosrm::rm::rm_policy_name(row.policy), row.qos_alpha,
        row.metrics.violation_rate, row.metrics.p99_violation,
        row.metrics.energy_per_app_j, row.metrics.decisions_per_sec,
        row.metrics.occupancy);
  }
}

double secs(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// --report-json: the tail-metric report of this run, stamped with the
/// service fingerprint so it can never be matched against foreign rows.
bool write_report(const std::vector<rmsim::ServiceRow>& rows,
                  const rmsim::ServiceGridShape& shape,
                  std::uint64_t fingerprint, const std::string& path) {
  std::string error;
  if (!rmsim::write_service_report_json(rows, shape, fingerprint, path,
                                        &error)) {
    std::fprintf(stderr, "--report-json: %s\n", error.c_str());
    return false;
  }
  std::printf("wrote service report to %s\n", path.c_str());
  return true;
}

/// --knee-report (+ optional --knee-csv-prefix): folds the load axis into
/// per-configuration p99 knee curves and writes the byte-stable outputs.
bool write_knee_outputs(const std::vector<rmsim::ServiceRow>& rows,
                        const rmsim::ServiceGridShape& shape,
                        std::uint64_t fingerprint, const std::string& json_path,
                        double knee_threshold,
                        const std::string& csv_prefix) {
  const rmsim::ServiceKneeReport knee = rmsim::build_service_knee_report(
      rows, shape, fingerprint, knee_threshold);
  std::string error;
  if (!rmsim::write_service_knee_report_json(knee, json_path, &error)) {
    std::fprintf(stderr, "--knee-report: %s\n", error.c_str());
    return false;
  }
  std::size_t detected = 0;
  for (const rmsim::KneeCurve& curve : knee.curves) {
    if (curve.knee_index >= 0) ++detected;
  }
  std::printf("wrote knee report to %s (%zu of %zu curves cross p99 > %g)\n",
              json_path.c_str(), detected, knee.curves.size(), knee_threshold);
  if (!csv_prefix.empty()) {
    if (!rmsim::write_knee_curve_csvs(knee, csv_prefix, &error)) {
      std::fprintf(stderr, "--knee-csv-prefix: %s\n", error.c_str());
      return false;
    }
    std::printf("wrote %zu per-pattern knee-curve CSVs to %s<pattern>.csv\n",
                shape.patterns, csv_prefix.c_str());
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const qosrm::CliArgs args(argc, argv, {"help"});
  if (args.has("help")) {
    print_usage();
    return 0;
  }

  if (!args.reject_unknown(rmsim::cli::kServiceMainFlags)) return 1;

  const int cores = args.get_int32("cores", 16);
  const int bw_shares = args.get_int32("bw-shares", 1);
  const int threads = args.get_int32("threads", 0);
  if (bw_shares < 1) {
    std::fprintf(stderr, "--bw-shares must be >= 1\n");
    return 1;
  }
  const long long num_arrivals = args.get_int("num-arrivals", 5000);
  const int demand_min = args.get_int32("demand-min", 40);
  const int demand_max = args.get_int32("demand-max", 160);
  const long long queue_cap = args.get_int("queue-cap", 4096);
  if (cores < 1 || threads < 0 || num_arrivals < 1) {
    std::fprintf(stderr,
                 "--cores/--num-arrivals must be >= 1 and --threads >= 0\n");
    return 1;
  }
  if (demand_min < 1 || demand_max < demand_min) {
    std::fprintf(stderr,
                 "--demand-min must be >= 1 and --demand-max >= "
                 "--demand-min\n");
    return 1;
  }
  if (queue_cap < 1) {
    std::fprintf(stderr, "--queue-cap must be >= 1\n");
    return 1;
  }
  rmsim::ServiceConfig config;
  config.arrivals = static_cast<std::size_t>(num_arrivals);
  config.seed = static_cast<std::uint64_t>(args.get_int("seed", 2020));
  config.demand_min = demand_min;
  config.demand_max = demand_max;
  config.queue_capacity = static_cast<std::size_t>(queue_cap);

  // Parse the grid flags up front: a bad value should fail immediately, not
  // after the multi-second database characterization. A bad list entry is a
  // usage error naming the flag and the entry (same contract as sweep_main).
  if (args.has("load") && args.has("loads")) {
    std::fprintf(stderr,
                 "--load and --loads are aliases; give only one of them\n");
    return 1;
  }
  const char* load_flag = args.has("loads") ? "loads" : "load";
  rmsim::ServiceGrid grid;
  std::vector<qosrm::rm::PerfModelKind> models;
  std::string list_error;
  if (!workload::try_parse_arrival_patterns(args.get("arrivals", "poisson"),
                                            &grid.patterns, &list_error) ||
      !rmsim::try_parse_loads(args.get(load_flag, "0.8"), &grid.loads,
                              &list_error, load_flag) ||
      !rmsim::try_parse_admissions(args.get("admission", "fifo"),
                                   &grid.admissions, &list_error) ||
      !rmsim::try_parse_policies(args.get("policies", "idle,rm1,rm2,rm3"),
                                 &grid.policies, &list_error) ||
      !rmsim::try_parse_alphas(args.get("alphas", "0"), &grid.qos_alphas,
                               &list_error) ||
      !rmsim::try_parse_models(args.get("model", "model3"), &models,
                               &list_error, "model")) {
    std::fprintf(stderr, "%s\n", list_error.c_str());
    return 1;
  }
  if (models.size() != 1) {
    std::fprintf(stderr,
                 "--model must name exactly one performance model (the "
                 "service grid sweeps patterns/loads/policies/alphas)\n");
    return 1;
  }
  config.model = models.front();

  // Probe the output paths too: a bad path should fail here, before the
  // multi-second database build, not after the run. Each probe touches
  // only the uniquely named temp sibling the later atomic commit will use,
  // NEVER the target itself - an interrupted or failed run must not leave
  // an empty decoy CSV/report, and an existing file stays untouched until
  // its atomic replacement.
  const std::string rows_csv = args.get("rows-csv", "service_rows.csv");
  const std::string report_json = args.get("report-json", "");
  const std::string knee_report = args.get("knee-report", "");
  const std::string knee_csv_prefix = args.get("knee-csv-prefix", "");
  const double knee_threshold =
      args.get_double("knee-threshold", rmsim::kDefaultKneeThreshold);
  if (knee_report.empty() &&
      (args.has("knee-threshold") || !knee_csv_prefix.empty())) {
    std::fprintf(stderr,
                 "--knee-threshold/--knee-csv-prefix require --knee-report\n");
    return 1;
  }
  if (!(std::isfinite(knee_threshold) && knee_threshold > 0.0)) {
    std::fprintf(stderr, "--knee-threshold must be a finite number > 0\n");
    return 1;
  }

  std::vector<std::string> probe_paths = {rows_csv};
  if (!report_json.empty()) probe_paths.push_back(report_json);
  if (!knee_report.empty()) probe_paths.push_back(knee_report);
  if (!knee_csv_prefix.empty()) {
    for (const workload::ArrivalPattern pattern : grid.patterns) {
      probe_paths.push_back(knee_csv_prefix +
                            workload::arrival_pattern_name(pattern) + ".csv");
    }
  }
  for (const std::string& path : probe_paths) {
    std::string probe_error;
    if (!qosrm::probe_writable_atomic(path, &probe_error)) {
      std::fprintf(stderr, "%s\n", probe_error.c_str());
      return 1;
    }
  }

  // --db-cache: decide hit/miss now, and on a miss probe writability, so a
  // bad path fails here instead of after the multi-second database build.
  std::string error;
  const std::optional<workload::DbCache> db_cache = workload::resolve_db_cache(
      args.get("db-cache", ""), cores, bw_shares, &error);
  if (!db_cache.has_value()) {
    std::fprintf(stderr, "--db-cache: %s\n", error.c_str());
    return 1;
  }

  const workload::SpecSuite& suite = workload::spec_suite();
  qosrm::arch::SystemConfig system;
  system.cores = cores;
  system.bw = qosrm::arch::bw_config_for_shares(bw_shares);
  const qosrm::power::PowerModel power;

  const auto t_db = Clock::now();
  if (db_cache->hit) {
    std::printf("loading simulation database from %s...\n",
                db_cache->path.c_str());
  } else {
    std::printf("characterizing %d-app suite for %d cores...\n", suite.size(),
                cores);
  }
  workload::SimDbOptions db_options;
  db_options.threads = threads;
  const std::optional<workload::SimDb> db = workload::load_or_build_simdb(
      *db_cache, suite, system, power, db_options, &error);
  if (!db.has_value()) {
    std::fprintf(stderr, "--db-cache: %s\n", error.c_str());
    return 1;
  }
  if (!db_cache->hit && !db_cache->path.empty()) {
    std::printf("saved simulation database snapshot to %s\n",
                db_cache->path.c_str());
  }

  rmsim::ServiceOptions options;
  options.threads = threads;
  std::printf("serving %zu runs (%zu patterns x %zu loads x %zu admissions x "
              "%zu policies x %zu alphas) on %zu threads...\n",
              grid.size(), grid.patterns.size(), grid.loads.size(),
              grid.admissions.size(), grid.policies.size(),
              grid.qos_alphas.size(), qosrm::pool_threads(threads, grid.size()));
  const auto t_run = Clock::now();
  const rmsim::ServiceResult result =
      rmsim::run_service(*db, grid, config, options);
  const auto t_done = Clock::now();

  rmsim::write_service_csv(result.rows, rows_csv);
  std::printf("wrote %zu rows to %s\n", result.rows.size(), rows_csv.c_str());
  const std::uint64_t fingerprint = rmsim::service_fingerprint(
      grid, config,
      workload::simdb_fingerprint(db->suite(), db->system(),
                                  db->phase_options()));
  if (!report_json.empty() &&
      !write_report(result.rows, grid.shape(), fingerprint, report_json)) {
    return 1;
  }
  if (!knee_report.empty() &&
      !write_knee_outputs(result.rows, grid.shape(), fingerprint, knee_report,
                          knee_threshold, knee_csv_prefix)) {
    return 1;
  }

  print_rows(result.rows);
  std::printf("\ndb %s %.2fs, service %.2fs\n", db_cache->hit ? "load" : "build",
              secs(t_db, t_run), secs(t_run, t_done));
  return 0;
}

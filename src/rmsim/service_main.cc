// service_main - CLI driver for the colocation-service mode.
//
// Draws a seeded open-loop arrival trace (poisson/bursty/diurnal) over a
// pool of cores, admits and evicts applications against the interval
// simulator, and reports streaming tail metrics (p50/p95/p99 QoS-violation
// magnitude, energy per served app, RM decisions/sec, occupancy) per
// {arrival pattern x load x admission x policy x alpha} grid point. Output
// is byte-identical for any --threads value.
//
//   service_main --cores=16 --arrivals=poisson --loads=0.8 --policies=rm3
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
#include "common/thread_pool.hh"
#include "rmsim/cli_flags.hh"
#include "rmsim/cli_prologue.hh"
#include "rmsim/report.hh"
#include "rmsim/service.hh"
#include "rmsim/sweep.hh"
#include "workload/arrival_gen.hh"
#include "workload/db_io.hh"

namespace {

namespace workload = qosrm::workload;
namespace rmsim = qosrm::rmsim;
using Clock = std::chrono::steady_clock;

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

/// "<prefix><pattern>.csv": where --knee-csv-prefix puts one pattern's curves.
std::string knee_csv_path(const std::string& prefix,
                          workload::ArrivalPattern pattern) {
  return prefix + workload::arrival_pattern_name(pattern) + ".csv";
}

/// --knee-report (+ optional --knee-csv-prefix): folds the load axis into
/// per-configuration p99 knee curves and writes the byte-stable outputs.
bool write_knee_outputs(const std::vector<rmsim::ServiceRow>& rows,
                        const rmsim::ServiceGrid& grid,
                        std::uint64_t fingerprint, const std::string& json_path,
                        double knee_threshold,
                        const std::string& csv_prefix) {
  const rmsim::ServiceKneeReport knee = rmsim::build_service_knee_report(
      rows, grid.shape(), fingerprint, knee_threshold);
  if (!qosrm::write_output("knee-report", json_path,
                           rmsim::service_knee_report_json(knee))) {
    return false;
  }
  std::size_t detected = 0;
  for (const rmsim::KneeCurve& curve : knee.curves) {
    if (curve.knee_index >= 0) ++detected;
  }
  std::printf("wrote knee report to %s (%zu of %zu curves cross p99 > %g)\n",
              json_path.c_str(), detected, knee.curves.size(), knee_threshold);
  if (!csv_prefix.empty()) {
    for (const workload::ArrivalPattern pattern : grid.patterns) {
      if (!qosrm::write_output("knee-csv-prefix",
                               knee_csv_path(csv_prefix, pattern),
                               rmsim::knee_curve_csv(knee, pattern))) {
        return false;
      }
    }
    std::printf("wrote %zu per-pattern knee-curve CSVs to %s<pattern>.csv\n",
                grid.patterns.size(), csv_prefix.c_str());
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const qosrm::CliArgs args(argc, argv, rmsim::cli::kServiceMainFlags);

  const int cores = args.get_int32("cores");
  const int threads = args.get_int32("threads");
  rmsim::ServiceConfig config;
  config.arrivals = static_cast<std::size_t>(args.get_int("num-arrivals"));
  config.demand_min = args.get_int32("demand-min");
  config.demand_max = args.get_int32("demand-max");
  if (config.demand_max < config.demand_min) {
    std::fprintf(stderr, "--demand-max must be >= --demand-min (got %d < %d)\n",
                 config.demand_max, config.demand_min);
    return 1;
  }
  config.queue_capacity = static_cast<std::size_t>(args.get_int("queue-cap"));
  config.seed = static_cast<std::uint64_t>(args.get_int("seed"));

  // Parse the grid flags up front: a bad value should fail immediately, not
  // after the multi-second database characterization. A bad list entry is a
  // usage error naming the flag and the entry (same contract as sweep_main).
  rmsim::ServiceGrid grid;
  std::vector<qosrm::rm::PerfModelKind> models;
  std::string list_error;
  if (!workload::try_parse_arrival_patterns(args.get("arrivals"),
                                            &grid.patterns, &list_error) ||
      !rmsim::try_parse_loads(args.get("loads"), &grid.loads, &list_error) ||
      !rmsim::try_parse_admissions(args.get("admission"), &grid.admissions,
                                   &list_error) ||
      !rmsim::try_parse_policies(args.get("policies"), &grid.policies,
                                 &list_error) ||
      !rmsim::try_parse_alphas(args.get("alphas"), &grid.qos_alphas,
                               &list_error) ||
      !rmsim::try_parse_models(args.get("model"), &models, &list_error,
                               "model")) {
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

  const std::string rows_csv = args.get("rows-csv");
  const std::string report_json = args.get("report-json");
  const std::string knee_report = args.get("knee-report");
  const std::string knee_csv_prefix = args.get("knee-csv-prefix");
  const double knee_threshold =
      args.get_double("knee-threshold");
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

  // The output paths are probed before the multi-second database build, so
  // a bad path fails there instead of after the run.
  std::vector<qosrm::OutputFlag> outputs = {{"rows-csv", rows_csv},
                                            {"report-json", report_json},
                                            {"knee-report", knee_report}};
  if (!knee_csv_prefix.empty()) {
    for (const workload::ArrivalPattern pattern : grid.patterns) {
      outputs.push_back(
          {"knee-csv-prefix", knee_csv_path(knee_csv_prefix, pattern)});
    }
  }

  const auto t_db = Clock::now();
  const std::optional<rmsim::CliDb> cli_db =
      rmsim::prepare_cli_db(args, outputs, cores);
  if (!cli_db.has_value()) return 1;
  const workload::SimDb& db = cli_db->db;

  rmsim::ServiceOptions options;
  options.threads = threads;
  std::printf("serving %zu runs (%zu patterns x %zu loads x %zu admissions x "
              "%zu policies x %zu alphas) on %zu threads...\n",
              grid.size(), grid.patterns.size(), grid.loads.size(),
              grid.admissions.size(), grid.policies.size(),
              grid.qos_alphas.size(), qosrm::pool_threads(threads, grid.size()));
  const auto t_run = Clock::now();
  const rmsim::ServiceResult result =
      rmsim::run_service(db, grid, config, options);
  const auto t_done = Clock::now();

  if (!qosrm::write_output("rows-csv", rows_csv,
                           rmsim::service_rows_csv(result.rows))) {
    return 1;
  }
  std::printf("wrote %zu rows to %s\n", result.rows.size(), rows_csv.c_str());
  const std::uint64_t fingerprint = rmsim::service_fingerprint(
      grid, config,
      workload::simdb_fingerprint(db.suite(), db.system(), db.phase_options()));
  if (!report_json.empty()) {
    // Stamped with the service fingerprint so it can never be matched
    // against foreign rows.
    if (!qosrm::write_output("report-json", report_json,
                             rmsim::service_report_json(
                                 result.rows, grid.shape(), fingerprint))) {
      return 1;
    }
    std::printf("wrote service report to %s\n", report_json.c_str());
  }
  if (!knee_report.empty() &&
      !write_knee_outputs(result.rows, grid, fingerprint, knee_report,
                          knee_threshold, knee_csv_prefix)) {
    return 1;
  }

  print_rows(result.rows);
  std::printf("\ndb %s %.2fs, service %.2fs\n",
              cli_db->loaded ? "load" : "build", secs(t_db, t_run),
              secs(t_run, t_done));
  return 0;
}

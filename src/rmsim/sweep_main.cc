// sweep_main - CLI driver for the parallel policy-sweep subsystem.
//
// Expands a {policy x model x qos_alpha} x workload grid over a generated
// workload suite, runs it on --threads lanes, and writes per-run rows plus
// per-configuration aggregates as CSV, and optionally the Fig. 6/7/9 figure
// report as JSON and CSV. Output is byte-identical for any --threads value.
//
//   sweep_main --cores=4 --per-scenario=1 --policies=idle,rm1,rm2,rm3
//              --models=model3 --alphas=0 --threads=4
//              --rows-csv=sweep_rows.csv --agg-csv=sweep_agg.csv
#include <chrono>
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
#include "rmsim/sweep.hh"
#include "workload/db_io.hh"
#include "workload/sim_db.hh"
#include "workload/spec_suite.hh"
#include "workload/workload_gen.hh"

namespace {

namespace workload = qosrm::workload;
namespace rmsim = qosrm::rmsim;
using Clock = std::chrono::steady_clock;

void print_usage() {
  std::puts(
      "sweep_main: sweep RM policies over generated workload mixes\n"
      "  --cores=N          cores per generated workload, even (default 4)\n"
      "  --replicate=K      scale every mix to K x its cores by scenario-\n"
      "                     preserving replication (default 1; e.g.\n"
      "                     --cores=4 --replicate=2 sweeps 8-core scaled\n"
      "                     versions of the 4-core paper mixes)\n"
      "  --bw-shares=N      memory-bandwidth shares per core (default 1 =\n"
      "                     unpartitioned bandwidth; N >= 2 adds the CBP\n"
      "                     share axis to the optimizer's knob space)\n"
      "  --per-scenario=N   workload mixes per scenario (default 1; paper: 6)\n"
      "  --seed=N           workload-generation seed (default 2020)\n"
      "  --policies=LIST    comma list of idle|rm1|rm2|rm3|ucp|fcp|classpart\n"
      "                     (default idle,rm1,rm2,rm3)\n"
      "  --models=LIST      comma list of model1|model2|model3|perfect\n"
      "                     (default model3)\n"
      "  --alphas=LIST      comma list of QoS alphas; 0 = system default,\n"
      "                     else a positive normal double (default 0)\n"
      "  --threads=N        sweep parallelism, also the lanes of a cold\n"
      "                     database build (serial at 1, else N + 1);\n"
      "                     0 = hardware concurrency\n"
      "  --rows-csv=PATH    per-run CSV output (default sweep_rows.csv)\n"
      "  --agg-csv=PATH     per-configuration CSV output (optional)\n"
      "  --report-json=PATH Fig. 6/7/9 figure report (byte-stable JSON,\n"
      "                     stamped with the sweep fingerprint; optional)\n"
      "  --fig6-csv=PATH    Fig. 6 savings aggregates as CSV (optional)\n"
      "  --fig7-csv=PATH    Fig. 7 violation statistics as CSV (optional)\n"
      "  --fig9-csv=PATH    Fig. 9 model-vs-oracle deltas as CSV (optional;\n"
      "                     needs 'perfect' on the model axis)\n"
      "  --overheads=BOOL   model RM/enforcement overheads (default true)\n"
      "  --db-cache=PATH    simulation-database snapshot: load it when the\n"
      "                     file exists (a stale/corrupt snapshot is an\n"
      "                     error), otherwise characterize and save it; a\n"
      "                     directory selects <dir>/suite-c<cores>.qosdb\n"
      "                     (same layout as the benches)");
}

void print_aggregates(const std::vector<rmsim::SweepAggregate>& aggregates) {
  std::printf("\n%-6s %-8s %9s %14s %12s %14s\n", "policy", "model", "alpha",
              "wtd-savings", "mean-savings", "viol-rate");
  for (const rmsim::SweepAggregate& agg : aggregates) {
    std::printf("%-6s %-8s %9.4g %13.2f%% %11.2f%% %14.4g\n",
                qosrm::rm::rm_policy_name(agg.policy),
                qosrm::rm::perf_model_name(agg.model), agg.qos_alpha,
                100.0 * agg.weighted_savings, 100.0 * agg.mean_savings,
                agg.mean_violation_rate);
  }
}

double secs(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

using FigureWriter = bool (*)(const rmsim::FigureReport&, const std::string&,
                              std::string*);

/// The figure outputs: one FigureReport, stamped with the sweep fingerprint
/// so it can never be matched against foreign rows, written per flag.
const struct {
  const char* flag;
  const char* what;
  FigureWriter write;
} kFigureOutputs[] = {
    {"report-json", "figure report", rmsim::write_report_json},
    {"fig6-csv", "Fig. 6 CSV", rmsim::write_fig6_csv},
    {"fig7-csv", "Fig. 7 CSV", rmsim::write_fig7_csv},
    {"fig9-csv", "Fig. 9 CSV", rmsim::write_fig9_csv}};

}  // namespace

int main(int argc, char** argv) {
  const qosrm::CliArgs args(argc, argv, {"help"});
  if (args.has("help")) {
    print_usage();
    return 0;
  }

  if (!args.reject_unknown(rmsim::cli::kSweepMainFlags)) return 1;

  const int cores = args.get_int32("cores", 4);
  const int replicate = args.get_int32("replicate", 1);
  const int bw_shares = args.get_int32("bw-shares", 1);
  const int threads = args.get_int32("threads", 0);
  const int per_scenario = args.get_int32("per-scenario", 1);
  if (cores < 1 || replicate < 1 || per_scenario < 1 || threads < 0) {
    std::fprintf(stderr,
                 "--cores/--replicate/--per-scenario must be >= 1 and "
                 "--threads >= 0\n");
    return 1;
  }
  // A generated mix gives each half of its cores one application category
  // (workload/workload_gen.hh), so it needs an even core count.
  if (cores % 2 != 0) {
    std::fprintf(stderr, "--cores must be even and >= 2 (got %d; see --help)\n",
                 cores);
    return 1;
  }
  if (bw_shares < 1) {
    std::fprintf(stderr, "--bw-shares must be >= 1\n");
    return 1;
  }
  // Cores the simulated system actually has (replication scales the 4-core
  // paper mixes to 8/16-core workloads).
  const int total_cores = cores * replicate;

  // Parse the grid flags up front: a bad value should fail immediately, not
  // after the multi-second database characterization.
  rmsim::SweepGrid grid;
  std::string list_error;
  if (!rmsim::try_parse_policies(args.get("policies", "idle,rm1,rm2,rm3"),
                                 &grid.policies, &list_error) ||
      !rmsim::try_parse_models(args.get("models", "model3"), &grid.models,
                               &list_error) ||
      !rmsim::try_parse_alphas(args.get("alphas", "0"), &grid.qos_alphas,
                               &list_error)) {
    std::fprintf(stderr, "%s\n", list_error.c_str());
    return 1;
  }

  rmsim::SweepOptions options;
  options.threads = threads;
  options.sim.model_overheads = args.get_bool("overheads", true);

  // Probe the output paths too: a bad path should fail here, before the
  // multi-second database build, not after the sweep. Each probe touches
  // only the uniquely named temp sibling the later atomic commit will use,
  // NEVER the target itself - an interrupted or failed run must not leave
  // an empty decoy CSV/report, and an existing file stays untouched until
  // its atomic replacement.
  const std::string rows_csv = args.get("rows-csv", "sweep_rows.csv");
  const std::string agg_csv = args.get("agg-csv", "");
  std::vector<std::string> probe_paths = {rows_csv, agg_csv};
  bool want_figures = false;
  for (const auto& output : kFigureOutputs) {
    probe_paths.push_back(args.get(output.flag, ""));
    want_figures |= !probe_paths.back().empty();
  }
  for (const std::string& path : probe_paths) {
    std::string probe_error;
    if (!path.empty() && !qosrm::probe_writable_atomic(path, &probe_error)) {
      std::fprintf(stderr, "%s\n", probe_error.c_str());
      return 1;
    }
  }

  // --db-cache: decide hit/miss now, and on a miss probe writability, so a
  // bad path fails here instead of after the multi-second database build.
  std::string error;
  const std::optional<workload::DbCache> db_cache = workload::resolve_db_cache(
      args.get("db-cache", ""), total_cores, bw_shares, &error);
  if (!db_cache.has_value()) {
    std::fprintf(stderr, "--db-cache: %s\n", error.c_str());
    return 1;
  }

  const workload::SpecSuite& suite = workload::spec_suite();
  qosrm::arch::SystemConfig system;
  system.cores = total_cores;
  system.bw = qosrm::arch::bw_config_for_shares(bw_shares);
  const qosrm::power::PowerModel power;

  workload::WorkloadGenOptions gen;
  gen.cores = cores;
  gen.per_scenario = per_scenario;
  gen.seed = static_cast<std::uint64_t>(args.get_int("seed", 2020));
  grid.mixes = workload::replicate_workloads(
      workload::generate_workloads(suite, gen), replicate);

  const auto t_db = Clock::now();
  if (db_cache->hit) {
    std::printf("loading simulation database from %s...\n",
                db_cache->path.c_str());
  } else {
    std::printf("characterizing %d-app suite for %d cores...\n", suite.size(),
                total_cores);
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

  std::printf("sweeping %zu runs (%zu mixes x %zu policies x %zu models x "
              "%zu alphas) on %zu threads...\n",
              grid.size(), grid.mixes.size(), grid.policies.size(),
              grid.models.size(), grid.qos_alphas.size(),
              qosrm::pool_threads(threads, grid.size()));
  const auto t_sweep = Clock::now();
  rmsim::SweepRunner runner(*db, options);
  const rmsim::SweepResult result = runner.run(grid);
  const auto t_done = Clock::now();

  rmsim::write_rows_csv(result, rows_csv);
  std::printf("wrote %zu rows to %s\n", result.rows.size(), rows_csv.c_str());
  if (!agg_csv.empty()) {
    rmsim::write_aggregates_csv(result, agg_csv);
    std::printf("wrote %zu aggregates to %s\n", result.aggregates.size(),
                agg_csv.c_str());
  }
  if (want_figures) {
    const rmsim::FigureReport report = rmsim::build_figure_report(
        result.rows, grid.shape(),
        rmsim::sweep_fingerprint(
            grid, options.sim,
            workload::simdb_fingerprint(db->suite(), db->system(),
                                        db->phase_options())),
        rmsim::scenario_weights(suite));
    for (const auto& output : kFigureOutputs) {
      const std::string path = args.get(output.flag, "");
      if (path.empty()) continue;
      if (!output.write(report, path, &error)) {
        std::fprintf(stderr, "--%s: %s\n", output.flag, error.c_str());
        return 1;
      }
      std::printf("wrote %s to %s\n", output.what, path.c_str());
    }
  }

  print_aggregates(result.aggregates);

  std::printf("\nidle references simulated: %zu (one per mix x alpha)\n",
              result.idle_computations);
  std::printf("db %s %.2fs, sweep %.2fs\n", db_cache->hit ? "load" : "build",
              secs(t_db, t_sweep), secs(t_sweep, t_done));
  return 0;
}

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
#include "common/thread_pool.hh"
#include "rmsim/cli_flags.hh"
#include "rmsim/cli_prologue.hh"
#include "rmsim/report.hh"
#include "rmsim/sweep.hh"
#include "workload/db_io.hh"
#include "workload/spec_suite.hh"
#include "workload/workload_gen.hh"

namespace {

namespace workload = qosrm::workload;
namespace rmsim = qosrm::rmsim;
using Clock = std::chrono::steady_clock;

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

/// The figure outputs: one FigureReport, stamped with the sweep fingerprint
/// so it can never be matched against foreign rows, rendered per flag.
const struct {
  const char* flag;
  const char* what;
  std::string (*text)(const rmsim::FigureReport&);
} kFigureOutputs[] = {
    {"report-json", "figure report", rmsim::figure_report_json},
    {"fig6-csv", "Fig. 6 CSV", rmsim::fig6_csv},
    {"fig7-csv", "Fig. 7 CSV", rmsim::fig7_csv},
    {"fig9-csv", "Fig. 9 CSV", rmsim::fig9_csv}};

}  // namespace

int main(int argc, char** argv) {
  const qosrm::CliArgs args(argc, argv, rmsim::cli::kSweepMainFlags);

  const int cores = args.get_int32("cores");
  const int replicate = args.get_int32("replicate");
  const int threads = args.get_int32("threads");
  // A generated mix gives each half of its cores one application category
  // (workload/workload_gen.hh), so it needs an even core count.
  if (cores % 2 != 0) {
    std::fprintf(stderr, "--cores must be even (got %d; see --help)\n", cores);
    return 1;
  }
  // Cores the simulated system actually has (replication scales the 4-core
  // paper mixes to 8/16-core workloads).
  const int total_cores = cores * replicate;

  // Parse the grid flags up front: a bad value should fail immediately, not
  // after the multi-second database characterization.
  rmsim::SweepGrid grid;
  std::string list_error;
  if (!rmsim::try_parse_policies(args.get("policies"), &grid.policies,
                                 &list_error) ||
      !rmsim::try_parse_models(args.get("models"), &grid.models, &list_error) ||
      !rmsim::try_parse_alphas(args.get("alphas"), &grid.qos_alphas,
                               &list_error)) {
    std::fprintf(stderr, "%s\n", list_error.c_str());
    return 1;
  }

  rmsim::SweepOptions options;
  options.threads = threads;
  options.sim.model_overheads = args.get_bool("overheads");

  const workload::SpecSuite& suite = workload::spec_suite();
  workload::WorkloadGenOptions gen;
  gen.cores = cores;
  gen.per_scenario = args.get_int32("per-scenario");
  gen.seed = static_cast<std::uint64_t>(args.get_int("seed"));
  grid.mixes = workload::replicate_workloads(
      workload::generate_workloads(suite, gen), replicate);

  // The output paths are probed before the multi-second database build, so
  // a bad path fails there instead of after the sweep.
  const std::string rows_csv = args.get("rows-csv");
  const std::string agg_csv = args.get("agg-csv");
  std::vector<qosrm::OutputFlag> outputs = {{"rows-csv", rows_csv},
                                            {"agg-csv", agg_csv}};
  bool want_figures = false;
  for (const auto& output : kFigureOutputs) {
    outputs.push_back({output.flag, args.get(output.flag)});
    want_figures |= !outputs.back().path.empty();
  }

  const auto t_db = Clock::now();
  const std::optional<rmsim::CliDb> cli_db =
      rmsim::prepare_cli_db(args, outputs, total_cores);
  if (!cli_db.has_value()) return 1;
  const workload::SimDb& db = cli_db->db;

  std::printf("sweeping %zu runs (%zu mixes x %zu policies x %zu models x "
              "%zu alphas) on %zu threads...\n",
              grid.size(), grid.mixes.size(), grid.policies.size(),
              grid.models.size(), grid.qos_alphas.size(),
              qosrm::pool_threads(threads, grid.size()));
  const auto t_sweep = Clock::now();
  rmsim::SweepRunner runner(db, options);
  const rmsim::SweepResult result = runner.run(grid);
  const auto t_done = Clock::now();

  if (!qosrm::write_output("rows-csv", rows_csv,
                           rmsim::sweep_rows_csv(result))) {
    return 1;
  }
  std::printf("wrote %zu rows to %s\n", result.rows.size(), rows_csv.c_str());
  if (!agg_csv.empty()) {
    if (!qosrm::write_output("agg-csv", agg_csv,
                             rmsim::aggregates_csv(result))) {
      return 1;
    }
    std::printf("wrote %zu aggregates to %s\n", result.aggregates.size(),
                agg_csv.c_str());
  }
  if (want_figures) {
    const rmsim::FigureReport report = rmsim::build_figure_report(
        result.rows, grid.shape(),
        rmsim::sweep_fingerprint(
            grid, options.sim,
            workload::simdb_fingerprint(db.suite(), db.system(),
                                        db.phase_options())),
        rmsim::scenario_weights(suite));
    for (const auto& output : kFigureOutputs) {
      const std::string path = args.get(output.flag);
      if (path.empty()) continue;
      if (!qosrm::write_output(output.flag, path, output.text(report))) {
        return 1;
      }
      std::printf("wrote %s to %s\n", output.what, path.c_str());
    }
  }

  print_aggregates(result.aggregates);

  std::printf("\nidle references simulated: %zu (one per mix x alpha)\n",
              result.idle_computations);
  std::printf("db %s %.2fs, sweep %.2fs\n", cli_db->loaded ? "load" : "build",
              secs(t_db, t_sweep), secs(t_sweep, t_done));
  return 0;
}

// Reproduces paper Fig. 6: energy savings of RM1 / RM2 / RM3 (all with the
// proposed Model3 and full overhead modelling) on six generated workloads
// per scenario, for 4-core and 8-core systems, relative to the idle RM.
// Also prints the per-scenario means and the probability-weighted average
// (weights 47 / 22.1 / 22.1 / 8.8 % as in Section V-A).
//
// Expressed on top of the sweep + figure-report layer: the grid runs
// through SweepRunner (thread-parallel, idle references cached once per
// mix) and every printed aggregate comes from the same build_figure_report
// that produces the CI-gated JSON reports - the ASCII tables and the
// golden-gated numbers cannot drift apart.
//
// Flags: --cores=4,8  --per-scenario=6  --seed=2020  --csv=fig6.csv
//        --json=fig6.json  --no-overheads  --model=1|2|3  --threads=N
//        --db-cache=DIR (snapshot directory: reuse the simulation database
//        across runs, see workload/db_io.hh)
#include <cstdio>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/cli.hh"
#include "common/csv.hh"
#include "common/str.hh"
#include "rmsim/report.hh"
#include "rmsim/sweep.hh"
#include "workload/db_io.hh"

using namespace qosrm;

namespace {

rm::PerfModelKind model_from(int id) {
  switch (id) {
    case 1:
      return rm::PerfModelKind::Model1;
    case 2:
      return rm::PerfModelKind::Model2;
    default:
      return rm::PerfModelKind::Model3;
  }
}

std::vector<int> parse_core_list(const std::string& spec) {
  std::vector<int> cores;
  std::stringstream ss(spec);
  std::string item;
  while (std::getline(ss, item, ',')) cores.push_back(std::stoi(item));
  return cores;
}

}  // namespace

int main(int argc, char** argv) {
  CliArgs args(argc, argv, {"no-overheads"});
  const std::vector<int> core_counts =
      parse_core_list(args.get("cores", "4,8"));
  const int per_scenario = args.get_int32("per-scenario", 6);
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 2020));
  const rm::PerfModelKind model =
      model_from(args.get_int32("model", 3));

  rmsim::SweepOptions sweep_options;
  sweep_options.threads = args.get_int32("threads", 0);
  sweep_options.sim.model_overheads = !args.get_bool("no-overheads", false);

  std::unique_ptr<CsvWriter> csv;
  if (args.has("csv")) {
    csv = std::make_unique<CsvWriter>(
        args.get("csv", "fig6.csv"),
        std::vector<std::string>{"workload", "cores", "scenario", "policy",
                                 "model", "savings", "violation_rate"});
  }

  for (const int cores : core_counts) {
    std::printf("=== Fig. 6 (%d-core workloads, %s, overheads %s) ===\n", cores,
                rm::perf_model_name(model),
                sweep_options.sim.model_overheads ? "on" : "off");

    arch::SystemConfig system;
    system.cores = cores;
    const power::PowerModel power;
    const workload::SimDb db = workload::warm_simdb(
        workload::spec_suite(), system, power, {},
        args.has("db-cache")
            ? workload::db_cache_path(args.get("db-cache", ""), cores)
            : std::string());

    workload::WorkloadGenOptions gen;
    gen.cores = cores;
    gen.per_scenario = per_scenario;
    gen.seed = seed;

    rmsim::SweepGrid grid;
    grid.mixes = generate_workloads(workload::spec_suite(), gen);
    grid.policies = {rm::RmPolicy::Rm1, rm::RmPolicy::Rm2, rm::RmPolicy::Rm3};
    grid.models = {model};
    grid.qos_alphas = {0.0};

    rmsim::SweepRunner runner(db, sweep_options);
    const rmsim::SweepResult result = runner.run(grid);
    const rmsim::FigureReport report = rmsim::build_figure_report(
        result.rows, grid.shape(),
        rmsim::sweep_fingerprint(
            grid, sweep_options.sim,
            workload::simdb_fingerprint(db.suite(), db.system(),
                                        db.phase_options())),
        rmsim::scenario_weights(db.suite()));

    // Per-workload savings grid: one column per policy, straight from the
    // report's per-mix data.
    std::vector<rmsim::SavingsGridRow> rows;
    for (std::size_t mi = 0; mi < report.workloads.size(); ++mi) {
      rmsim::SavingsGridRow row;
      row.workload = report.workloads[mi];
      row.scenario = report.scenarios[mi];
      for (std::size_t pi = 0; pi < grid.policies.size(); ++pi) {
        row.savings.push_back(report.fig6[pi].per_mix_savings[mi]);
      }
      rows.push_back(std::move(row));
    }
    rmsim::savings_grid(rows, {"RM1", "RM2", "RM3"}).print();

    if (csv) {
      for (const rmsim::SweepRow& row : result.rows) {
        csv->add_row({row.workload, std::to_string(cores),
                      rmsim::scenario_label(row.scenario),
                      rm::rm_policy_name(row.policy),
                      rm::perf_model_name(row.model),
                      std::to_string(row.result.savings),
                      std::to_string(row.result.run.violation_rate())});
      }
    }

    // Per-scenario means plus the weighted and plain averages (paper V-A) -
    // all precomputed by the report layer.
    AsciiTable summary({"Aggregate", "RM1", "RM2", "RM3"});
    for (const workload::Scenario s : workload::kAllScenarios) {
      std::vector<std::string> row = {rmsim::scenario_label(s) + " mean"};
      for (std::size_t pi = 0; pi < grid.policies.size(); ++pi) {
        row.push_back(AsciiTable::pct(
            report.fig6[pi]
                .scenario_mean_savings[static_cast<std::size_t>(
                    static_cast<int>(s) - 1)]));
      }
      summary.add_row(std::move(row));
    }
    std::vector<std::string> weighted = {"weighted average (47/22.1/22.1/8.8)"};
    std::vector<std::string> plain = {"plain average"};
    std::vector<std::string> peak = {"maximum"};
    for (std::size_t pi = 0; pi < grid.policies.size(); ++pi) {
      weighted.push_back(AsciiTable::pct(report.fig6[pi].weighted_savings));
      plain.push_back(AsciiTable::pct(report.fig6[pi].mean_savings));
      peak.push_back(AsciiTable::pct(report.fig6[pi].max_savings));
    }
    summary.add_row(std::move(weighted));
    summary.add_row(std::move(plain));
    summary.add_row(std::move(peak));
    summary.print();

    if (args.has("json")) {
      // One report per core count; a multi-count run suffixes the path so
      // the 4-core report is not overwritten by the 8-core one.
      std::string path = args.get("json", "fig6.json");
      if (core_counts.size() > 1) {
        path = format("%s.c%d", path.c_str(), cores);
      }
      std::string error;
      if (!rmsim::write_report_json(report, path, &error)) {
        std::fprintf(stderr, "--json: %s\n", error.c_str());
        // Failed run: publish nothing, not a CSV covering only some cores.
        if (csv) csv->abandon();
        return 1;
      }
      std::printf("wrote figure report to %s\n", path.c_str());
    }
    std::printf("\n");
  }
  if (csv) csv->close();  // surface commit errors instead of swallowing them
  return 0;
}

// Reproduces paper Fig. 9: energy savings of the proposed RM3 under the
// three online performance models plus the perfect model (exact prediction
// including the next interval's phase), on generated 4-core and 8-core
// workloads.
//
// Paper reference: the proposed Model3 achieves savings closest to the
// perfect bound; Models 1/2 lose savings (or fake them with violations).
//
// Expressed on top of the sweep + figure-report layer: the model axis runs
// through SweepRunner (which pairs the Perfect perf model with ground-truth
// energy - the true oracle) and the oracle gaps come from the report's
// fig9 section, the same numbers the CI-gated JSON reports carry.
//
// Flags: --cores=4,8  --per-scenario=6  --seed=2020  --csv=fig9.csv
//        --json=fig9.json  --threads=N  --db-cache=DIR
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

int main(int argc, char** argv) {
  CliArgs args(argc, argv);
  std::vector<int> core_counts;
  {
    std::stringstream ss(args.get("cores", "4,8"));
    std::string item;
    while (std::getline(ss, item, ',')) core_counts.push_back(std::stoi(item));
  }
  const int per_scenario = args.get_int32("per-scenario", 6);
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 2020));

  rmsim::SweepOptions sweep_options;
  sweep_options.threads = args.get_int32("threads", 0);

  std::unique_ptr<CsvWriter> csv;
  if (args.has("csv")) {
    csv = std::make_unique<CsvWriter>(
        args.get("csv", "fig9.csv"),
        std::vector<std::string>{"workload", "cores", "scenario", "model",
                                 "savings", "violation_rate"});
  }

  for (const int cores : core_counts) {
    std::printf("=== Fig. 9 (%d-core workloads, RM3 under each model) ===\n",
                cores);
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
    grid.policies = {rm::RmPolicy::Rm3};
    grid.models = {rm::PerfModelKind::Model1, rm::PerfModelKind::Model2,
                   rm::PerfModelKind::Model3, rm::PerfModelKind::Perfect};
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

    // Per-workload savings grid: one column per model (fig6 entries are in
    // model order because the grid has a single policy).
    std::vector<rmsim::SavingsGridRow> rows;
    for (std::size_t mi = 0; mi < report.workloads.size(); ++mi) {
      rmsim::SavingsGridRow row;
      row.workload = report.workloads[mi];
      row.scenario = report.scenarios[mi];
      for (std::size_t ki = 0; ki < grid.models.size(); ++ki) {
        row.savings.push_back(report.fig6[ki].per_mix_savings[mi]);
      }
      rows.push_back(std::move(row));
    }
    rmsim::savings_grid(rows, {"Model1", "Model2", "Model3", "Perfect"}).print();

    if (csv) {
      for (const rmsim::SweepRow& row : result.rows) {
        csv->add_row({row.workload, std::to_string(cores),
                      rmsim::scenario_label(row.scenario),
                      rm::perf_model_name(row.model),
                      std::to_string(row.result.savings),
                      std::to_string(row.result.run.violation_rate())});
      }
    }

    // Mean savings / violation rate per model plus the gap to the perfect
    // oracle - the report's fig9 deltas (Perfect's own gap is zero).
    AsciiTable summary({"Aggregate", "Model1", "Model2", "Model3", "Perfect"});
    std::vector<std::string> mean_row = {"mean savings"};
    std::vector<std::string> vio_row = {"mean violation rate"};
    std::vector<std::string> gap_row = {"gap to perfect"};
    for (std::size_t ki = 0; ki < grid.models.size(); ++ki) {
      mean_row.push_back(AsciiTable::pct(report.fig6[ki].mean_savings));
      vio_row.push_back(AsciiTable::pct(report.fig7[ki].mean_violation_rate));
      if (grid.models[ki] == rm::PerfModelKind::Perfect) {
        gap_row.push_back(AsciiTable::pct(0.0));
      } else {
        // fig9 entries follow the model axis minus the oracle, one policy.
        const std::size_t delta_index = ki;  // Perfect is last on the axis
        gap_row.push_back(AsciiTable::pct(report.fig9[delta_index].mean_gap));
      }
    }
    summary.add_row(std::move(mean_row));
    summary.add_row(std::move(vio_row));
    summary.add_row(std::move(gap_row));
    summary.print();

    if (args.has("json")) {
      std::string path = args.get("json", "fig9.json");
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

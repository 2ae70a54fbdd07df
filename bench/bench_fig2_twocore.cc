// Reproduces paper Fig. 2: simulation results for two-core workload
// scenarios under perfect modelling assumptions (exact performance/energy
// prediction including the next interval's phase, no overheads).
//
// Paper reference points: Scenario 1 - RM3 ~70% higher savings than RM2;
// Scenario 2 - both comparable (~5%); Scenario 3 - only RM3 (~11%);
// Scenario 4 - all ineffective.
#include <cstdio>

#include "common/cli.hh"
#include "common/csv.hh"
#include "rmsim/experiment.hh"
#include "rmsim/report.hh"
#include "workload/db_io.hh"

using namespace qosrm;

int main(int argc, char** argv) {
  const CliArgs args(argc, argv, {"real-models"});
  static constexpr const char* kFlags[] = {"real-models", "db-cache", "csv"};
  if (!args.reject_unknown(kFlags)) return 1;
  const bool perfect = !args.get_bool("real-models", false);
  const std::string csv_path = args.get("csv", "");
  if (!probe_outputs({{"csv", csv_path}})) return 1;

  arch::SystemConfig system;
  system.cores = 2;
  const power::PowerModel power;
  const workload::SimDb db = workload::warm_simdb(
      workload::spec_suite(), system, power, {},
      args.has("db-cache")
          ? workload::db_cache_path(args.get("db-cache", ""), system.cores)
          : std::string());

  rmsim::SimOptions sim_options;
  sim_options.model_overheads = !perfect;
  rmsim::ExperimentRunner runner(db, sim_options);

  // One representative two-core workload per scenario (same pairings the
  // motivation section of the paper uses: CS-PS with CI-PS, CS-PI pairs,
  // CI-PS pairs, CI-PI pairs).
  struct Case {
    workload::Scenario scenario;
    const char* app1;
    const char* app2;
  };
  const Case cases[] = {
      {workload::Scenario::One, "sphinx3", "gcc"},      // CS-PI x CS-PS
      {workload::Scenario::Two, "h264ref", "perlbench"},  // CS-PI x CI-PI
      {workload::Scenario::Three, "bwaves", "GemsFDTD"},  // CI-PS x CI-PS
      {workload::Scenario::Four, "povray", "sjeng"},      // CI-PI x CI-PI
  };

  std::printf("=== Fig. 2: two-core scenarios, %s models, overheads %s ===\n\n",
              perfect ? "perfect" : "online", perfect ? "off" : "on");

  std::vector<std::vector<std::string>> csv_rows;
  std::vector<rmsim::SavingsGridRow> rows;
  for (const Case& c : cases) {
    workload::WorkloadMix mix;
    mix.name = std::string(c.app1) + "+" + c.app2;
    mix.scenario = c.scenario;
    mix.app_ids = {db.suite().index_of(c.app1), db.suite().index_of(c.app2)};

    rmsim::SavingsGridRow row;
    row.workload = mix.name;
    row.scenario = mix.scenario;
    for (const rm::RmPolicy policy :
         {rm::RmPolicy::Rm1, rm::RmPolicy::Rm2, rm::RmPolicy::Rm3}) {
      rm::RmConfig cfg;
      cfg.policy = policy;
      cfg.model =
          perfect ? rm::PerfModelKind::Perfect : rm::PerfModelKind::Model3;
      cfg.energy.perfect = perfect;
      const rmsim::SavingsResult r = runner.run(mix, cfg);
      row.savings.push_back(r.savings);
      csv_rows.push_back({rmsim::scenario_label(mix.scenario), mix.name,
                          rm::rm_policy_name(policy), std::to_string(r.savings)});
    }
    rows.push_back(std::move(row));
  }
  rmsim::savings_grid(rows, {"RM1", "RM2", "RM3"}).print();

  const double ratio =
      rows[0].savings[2] / std::max(1e-9, rows[0].savings[1]);
  std::printf("\nScenario 1 RM3/RM2 savings ratio: %.2f (paper: ~1.7)\n", ratio);
  std::printf("Scenario 3 RM3 savings: %.1f%% with RM1/RM2 at %.1f%%/%.1f%% "
              "(paper: 11%% vs ~0)\n",
              rows[2].savings[2] * 100.0, rows[2].savings[0] * 100.0,
              rows[2].savings[1] * 100.0);
  if (args.has("csv") &&
      !write_output("csv", csv_path,
                    csv_text({"scenario", "workload", "policy", "savings"},
                             csv_rows))) {
    return 1;
  }
  return 0;
}

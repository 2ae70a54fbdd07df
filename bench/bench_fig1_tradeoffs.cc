// Reproduces paper Fig. 1: the category-mix probability table, the scenario
// partition, and the collective probability where RM3 is more effective.
//
// Probabilities derive from the suite's MEASURED Table II populations (the
// classifier, not the intended labels), so the figure is a genuine product
// of the pipeline.
#include <cstdio>

#include "common/cli.hh"
#include "common/table.hh"
#include "rmsim/experiment.hh"
#include "workload/classify.hh"
#include "workload/workload_gen.hh"

using namespace qosrm;
using workload::Category;

int main(int argc, char** argv) {
  if (!CliArgs(argc, argv).reject_unknown({})) return 1;
  arch::SystemConfig system;
  system.cores = 2;
  const power::PowerModel power;
  const workload::SimDb db(workload::spec_suite(), system, power);

  const auto hist = workload::category_histogram(workload::classify_suite(db));
  const workload::MixTable table = workload::compute_mix_table(hist);

  std::printf("=== Fig. 1: workload-mix probabilities and scenarios ===\n\n");
  AsciiTable pop({"Category", "Applications", "Probability"});
  for (int c = 0; c < workload::kNumCategories; ++c) {
    pop.add_row({workload::category_name(static_cast<Category>(c)),
                 std::to_string(table.population[static_cast<std::size_t>(c)]),
                 AsciiTable::pct(table.category_prob[static_cast<std::size_t>(c)])});
  }
  pop.print();

  std::printf("\nPairwise mix probabilities (App1 x App2) and scenario:\n");
  AsciiTable mix({"App1 \\ App2", "CS-PS", "CS-PI", "CI-PS", "CI-PI"});
  for (int a = 0; a < workload::kNumCategories; ++a) {
    std::vector<std::string> row = {
        workload::category_name(static_cast<Category>(a))};
    for (int b = 0; b < workload::kNumCategories; ++b) {
      const double p = table.pair_prob[static_cast<std::size_t>(a)]
                                      [static_cast<std::size_t>(b)];
      const workload::Scenario s =
          workload::scenario_of(static_cast<Category>(a), static_cast<Category>(b));
      row.push_back(AsciiTable::pct(p) + " S" +
                    std::to_string(static_cast<int>(s)));
    }
    mix.add_row(std::move(row));
  }
  mix.print();

  std::printf("\nScenario weights (paper: 47%% / 22.1%% / 22.1%% / 8.8%%):\n");
  AsciiTable weights({"Scenario", "Interpretation", "Weight"});
  const char* meaning[] = {
      "RM3 expected to beat RM2 (CS-PS present, or CI-PS x CS-PI)",
      "RM2 and RM3 comparable (CS-PI with CS-PI/CI-PI)",
      "only RM3 effective (CI-PS with CI-PS/CI-PI)",
      "limited/no savings for every RM (CI-PI x CI-PI)"};
  for (int s = 0; s < 4; ++s) {
    weights.add_row({"Scenario " + std::to_string(s + 1), meaning[s],
                     AsciiTable::pct(table.scenario_weight[static_cast<std::size_t>(s)])});
  }
  weights.print();

  // Paper: "RM3 is more effective in 12 out of 16 mixes with a collective
  // probability of 70%" (scenarios 1 and 3 over ordered pairs).
  const double rm3_better =
      table.scenario_weight[0] + table.scenario_weight[2];
  int rm3_cells = 0;
  for (int a = 0; a < workload::kNumCategories; ++a) {
    for (int b = 0; b < workload::kNumCategories; ++b) {
      const workload::Scenario s =
          workload::scenario_of(static_cast<Category>(a), static_cast<Category>(b));
      rm3_cells +=
          s == workload::Scenario::One || s == workload::Scenario::Three;
    }
  }
  std::printf("\nRM3 more effective: %d of 16 ordered mixes, collective "
              "probability %.0f%% (paper: 12 of 16, 70%%)\n",
              rm3_cells, rm3_better * 100.0);
  return 0;
}

// Ablation: QoS relaxation (the paper's alpha parameter, Eq. 3).
//
// The paper fixes alpha = 1 ("no performance degradation"); this bench
// explores the energy-vs-QoS frontier it leaves on the table: with alpha
// slightly above 1, every RM gains slack to throttle deeper. Reported per
// alpha: savings of RM2/RM3 and the realized per-interval slowdown.
#include <cstdio>

#include "common/cli.hh"
#include "common/csv.hh"
#include "rmsim/experiment.hh"
#include "rmsim/report.hh"

using namespace qosrm;

int main(int argc, char** argv) {
  CliArgs args(argc, argv);
  const int cores = args.get_int32("cores", 4);
  const int per_scenario = args.get_int32("per-scenario", 2);

  arch::SystemConfig system;
  system.cores = cores;
  const power::PowerModel power;
  const workload::SimDb db(workload::spec_suite(), system, power);

  workload::WorkloadGenOptions gen;
  gen.cores = cores;
  gen.per_scenario = per_scenario;
  const auto mixes = generate_workloads(workload::spec_suite(), gen);

  std::printf("=== Ablation: QoS relaxation alpha (Eq. 3), %d-core ===\n\n",
              cores);

  std::unique_ptr<CsvWriter> csv;
  if (args.has("csv")) {
    csv = std::make_unique<CsvWriter>(
        args.get("csv", "alpha.csv"),
        std::vector<std::string>{"alpha", "policy", "mean_savings",
                                 "mean_violation_rate"});
  }

  AsciiTable table({"alpha", "RM2 savings", "RM3 savings",
                    "RM3 violation rate", "RM3 wall-time cost"});
  for (const double alpha : {1.0, 1.02, 1.05, 1.10, 1.20}) {
    rmsim::SimOptions sim_options;
    sim_options.qos_alpha_override = alpha;
    rmsim::ExperimentRunner runner(db, sim_options);

    std::array<double, 2> savings{};
    double violation_rate = 0.0;
    double wall_ratio = 0.0;
    const rm::RmPolicy policies[] = {rm::RmPolicy::Rm2, rm::RmPolicy::Rm3};
    for (const auto& mix : mixes) {
      for (int p = 0; p < 2; ++p) {
        rm::RmConfig cfg;
        cfg.policy = policies[p];
        cfg.model = rm::PerfModelKind::Model3;
        const rmsim::SavingsResult r = runner.run(mix, cfg);
        savings[static_cast<std::size_t>(p)] += r.savings;
        if (p == 1) {
          violation_rate += r.run.violation_rate();
          wall_ratio += r.run.wall_time_s /
                        runner.idle_reference(mix).wall_time_s;
        }
      }
    }
    const auto n = static_cast<double>(mixes.size());
    table.add_row({AsciiTable::num(alpha, 2), AsciiTable::pct(savings[0] / n),
                   AsciiTable::pct(savings[1] / n),
                   AsciiTable::pct(violation_rate / n),
                   AsciiTable::pct(wall_ratio / n - 1.0)});
    if (csv) {
      csv->add_row({std::to_string(alpha), "RM2",
                    std::to_string(savings[0] / n), "0"});
      csv->add_row({std::to_string(alpha), "RM3",
                    std::to_string(savings[1] / n),
                    std::to_string(violation_rate / n)});
    }
  }
  table.print();
  std::printf("\n(alpha = 1.00 is the paper's operating point; the violation\n"
              "rate at alpha > 1 counts intervals slower than alpha x the\n"
              "baseline, i.e. violations of the RELAXED constraint.)\n");
  if (csv) csv->close();  // surface commit errors instead of swallowing them
  return 0;
}

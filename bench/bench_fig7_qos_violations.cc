// Reproduces paper Fig. 7: probability of QoS violation per execution
// interval, plus expected value and standard deviation of the violation
// magnitude (Eq. 6), for the three performance models.
//
// Methodology (paper Section IV-D.2): iterate all phases of all
// applications, all possible current settings and all target settings;
// a case violates if the model predicts QoS holds but ground truth says the
// target is slower than the baseline setting.
//
// Paper reference: Model3 cuts violation probability by 46% vs Model1 and
// 32% vs Model2; expected violation and its std-dev drop by 49% / 26% vs
// Model2.
#include <cstdio>

#include "common/cli.hh"
#include "common/csv.hh"
#include "rmsim/qos_eval.hh"
#include "rmsim/report.hh"
#include "workload/db_io.hh"

using namespace qosrm;

int main(int argc, char** argv) {
  CliArgs args(argc, argv);

  arch::SystemConfig system;
  system.cores = 2;
  const power::PowerModel power;
  const workload::SimDb db = workload::warm_simdb(
      workload::spec_suite(), system, power, {},
      args.has("db-cache")
          ? workload::db_cache_path(args.get("db-cache", ""), system.cores)
          : std::string());

  rmsim::QosEvalOptions options;
  options.current_f_stride = args.get_int32("f-stride", 2);
  const rmsim::QosEvaluator evaluator(db, options);
  const auto results = evaluator.evaluate_all({rm::PerfModelKind::Model1,
                                               rm::PerfModelKind::Model2,
                                               rm::PerfModelKind::Model3});

  std::printf("=== Fig. 7: QoS-violation statistics per model ===\n\n");
  rmsim::qos_summary(results).print();

  const auto& m1 = results[0];
  const auto& m2 = results[1];
  const auto& m3 = results[2];
  std::printf("\nModel3 vs Model1: violation probability %+.0f%% (paper: -46%%)\n",
              (m3.violation_probability / m1.violation_probability - 1.0) * 100.0);
  std::printf("Model3 vs Model2: violation probability %+.0f%% (paper: -32%%)\n",
              (m3.violation_probability / m2.violation_probability - 1.0) * 100.0);
  std::printf("Model3 vs Model2: expected violation    %+.0f%% (paper: -49%%)\n",
              (m3.expected_violation / m2.expected_violation - 1.0) * 100.0);
  std::printf("Model3 vs Model2: violation std-dev     %+.0f%% (paper: -26%%)\n",
              (m3.violation_stddev / m2.violation_stddev - 1.0) * 100.0);

  if (args.has("csv")) {
    CsvWriter csv(args.get("csv", "fig7.csv"),
                  {"model", "violation_probability", "expected_violation",
                   "violation_stddev"});
    for (const auto& r : results) {
      csv.add_row({rm::perf_model_name(r.model),
                   std::to_string(r.violation_probability),
                   std::to_string(r.expected_violation),
                   std::to_string(r.violation_stddev)});
    }
    csv.close();  // surface commit errors instead of swallowing them
  }
  return 0;
}

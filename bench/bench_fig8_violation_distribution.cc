// Reproduces paper Fig. 8: the distribution of QoS-violation magnitudes for
// the three performance models, normalized to the maximum bin across models.
//
// Paper reference: Model3 has slightly MORE small (~5%) violations but a far
// smaller total count, with the large-violation tail reduced significantly.
#include <cstdio>

#include "common/cli.hh"
#include "common/csv.hh"
#include "rmsim/qos_eval.hh"
#include "rmsim/report.hh"

using namespace qosrm;

int main(int argc, char** argv) {
  CliArgs args(argc, argv);

  arch::SystemConfig system;
  system.cores = 2;
  const power::PowerModel power;
  const workload::SimDb db(workload::spec_suite(), system, power);

  rmsim::QosEvalOptions options;
  options.current_f_stride = args.get_int32("f-stride", 2);
  options.histogram_bins = args.get_int32("bins", 20);
  options.histogram_max = args.get_double("max", 0.4);
  const rmsim::QosEvaluator evaluator(db, options);
  const auto results = evaluator.evaluate_all({rm::PerfModelKind::Model1,
                                               rm::PerfModelKind::Model2,
                                               rm::PerfModelKind::Model3});

  std::printf("=== Fig. 8: distribution of QoS violations (normalized) ===\n\n");
  std::fputs(rmsim::qos_histograms(results).c_str(), stdout);

  // Tail comparison: mass of violations above 10%.
  std::printf("violation mass above 10%% magnitude:\n");
  for (const auto& r : results) {
    double tail = 0.0;
    for (std::size_t b = 0; b < r.histogram.bin_count(); ++b) {
      if (r.histogram.bin_lo(b) >= 0.10) tail += r.histogram.count(b);
    }
    std::printf("  %-7s %.4f\n", rm::perf_model_name(r.model), tail);
  }

  if (args.has("csv")) {
    CsvWriter csv(args.get("csv", "fig8.csv"),
                  {"model", "bin_lo", "bin_hi", "count", "normalized"});
    double global_max = 0.0;
    for (const auto& r : results) {
      global_max = std::max(global_max, r.histogram.max_count());
    }
    for (const auto& r : results) {
      const auto norm = r.histogram.normalized_by(global_max);
      for (std::size_t b = 0; b < r.histogram.bin_count(); ++b) {
        csv.add_row({rm::perf_model_name(r.model),
                     std::to_string(r.histogram.bin_lo(b)),
                     std::to_string(r.histogram.bin_hi(b)),
                     std::to_string(r.histogram.count(b)),
                     std::to_string(norm[b])});
      }
    }
    csv.close();  // surface commit errors instead of swallowing them
  }
  return 0;
}

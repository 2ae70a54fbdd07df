// Reproduces paper Figs. 7 and 8 from one exhaustive QoS evaluation
// (Section IV-D.2): over all phases of all applications, all current
// settings and all target settings, a case violates if the model predicts
// QoS holds but ground truth says the target is slower than the baseline.
// The current frequency cancels out of every prediction, so the evaluation
// visits one current VF point (rmsim/qos_eval.hh) and the mass columns
// count that point.
//
// Fig. 7: per model, the probability of QoS violation per interval and the
// expected value and std-dev of its magnitude (Eq. 6).
//
// Fig. 8: violation magnitudes in 20 bins over [0, 0.5), as histograms
// normalized to the largest bin across models.
//
// The comparison with the paper's numbers is the fig7.* and fig8.* rows of
// docs/REPRODUCTION.md.
#include <algorithm>
#include <cstdio>

#include "common/cli.hh"
#include "common/csv.hh"
#include "rmsim/qos_eval.hh"
#include "rmsim/report.hh"
#include "workload/db_io.hh"

using namespace qosrm;

constexpr CliFlag kFlags[] = {
    {"fig7-csv", CliFlag::kText, "PATH", "", {},
     "Fig. 7 violation statistics per model as CSV (optional)"},
    {"csv", CliFlag::kText, "PATH", "", {},
     "Fig. 8 violation histograms as CSV (optional)"},
    {"db-cache", CliFlag::kText, "DIR", "", {},
     "simulation-database snapshot directory (optional)"},
};

int main(int argc, char** argv) {
  const CliArgs args(argc, argv, kFlags);
  const std::string fig7_csv = args.get("fig7-csv");
  const std::string fig8_csv = args.get("csv");
  if (!probe_outputs({{"fig7-csv", fig7_csv}, {"csv", fig8_csv}})) return 1;

  arch::SystemConfig system;
  system.cores = 2;
  const power::PowerModel power;
  const workload::SimDb db = workload::warm_simdb(
      workload::spec_suite(), system, power, {},
      args.has("db-cache")
          ? workload::db_cache_path(args.get("db-cache"), system.cores)
          : std::string());

  const auto results = rmsim::evaluate_qos(
      db, {rm::PerfModelKind::Model1, rm::PerfModelKind::Model2,
           rm::PerfModelKind::Model3});

  std::printf("=== Fig. 7: QoS-violation statistics per model ===\n\n");
  rmsim::qos_summary(results).print();

  std::printf("\n=== Fig. 8: distribution of QoS violations (normalized) ===\n\n");
  std::fputs(rmsim::qos_histograms(results).c_str(), stdout);

  if (args.has("fig7-csv")) {
    std::vector<std::vector<std::string>> rows;
    for (const auto& r : results) {
      rows.push_back({rm::perf_model_name(r.model),
                      std::to_string(r.violation_probability),
                      std::to_string(r.expected_violation),
                      std::to_string(r.violation_stddev)});
    }
    if (!write_output("fig7-csv", fig7_csv,
                      csv_text({"model", "violation_probability",
                                "expected_violation", "violation_stddev"},
                               rows))) {
      return 1;
    }
  }

  if (args.has("csv")) {
    std::vector<std::vector<std::string>> rows;
    double global_max = 0.0;
    for (const auto& r : results) {
      global_max = std::max(global_max, r.histogram.max_count());
    }
    for (const auto& r : results) {
      const auto norm = r.histogram.normalized_by(global_max);
      for (std::size_t b = 0; b < r.histogram.bin_count(); ++b) {
        rows.push_back({rm::perf_model_name(r.model),
                        std::to_string(r.histogram.bin_lo(b)),
                        std::to_string(r.histogram.bin_hi(b)),
                        std::to_string(r.histogram.count(b)),
                        std::to_string(norm[b])});
      }
    }
    if (!write_output("csv", fig8_csv,
                      csv_text({"model", "bin_lo", "bin_hi", "count",
                                "normalized"},
                               rows))) {
      return 1;
    }
  }
  return 0;
}

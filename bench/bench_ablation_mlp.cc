// Ablation: accuracy of the proposed MLP-ATD hardware heuristic against the
// oracle leading-miss analysis, and its sensitivity to the quantized
// instruction-index width and ATD set sampling.
//
// The paper (Section III-E) leaves the bit-width sensitivity analysis to
// future work - this bench performs it. Its 10-bit / 27-bit design point and
// storage estimate are the s3e.mlp_atd_storage row of docs/REPRODUCTION.md.
#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common/cli.hh"
#include "common/stats.hh"
#include "common/table.hh"
#include "workload/phase_stats.hh"
#include "workload/spec_suite.hh"

using namespace qosrm;

namespace {

/// Mean |ATD - oracle| / oracle over all (c, w) for one suite pass with the
/// given MLP-ATD configuration.
struct AccuracyResult {
  double mean_rel_error = 0.0;
  double p95_rel_error = 0.0;
  double storage_bytes = 0.0;
};

AccuracyResult measure(int index_bits, int sample_period) {
  const workload::CharacterizationSystem system =
      workload::characterization_system(arch::SystemConfig{});
  workload::PhaseStatsOptions options;
  options.mlp_index_bits = index_bits;
  options.atd_sample_period = sample_period;

  RunningStats rel;
  std::vector<double> errors;
  const workload::SpecSuite& suite = workload::spec_suite();
  for (int a = 0; a < suite.size(); ++a) {
    // First phase of each application is representative enough here.
    const workload::PhaseStats st = characterize_phase(
        suite.app(a).phases[0], system, options, suite.app(a).trace_seed + 1);
    for (int c = 0; c < arch::kNumCoreSizes; ++c) {
      for (int w = 2; w <= 16; w += 2) {
        const double oracle =
            st.lm_true[static_cast<std::size_t>(c)][static_cast<std::size_t>(w - 1)];
        const double atd =
            st.lm_atd[static_cast<std::size_t>(c)][static_cast<std::size_t>(w - 1)];
        if (oracle < 1.0) continue;
        const double err = std::abs(atd - oracle) / oracle;
        rel.add(err);
        errors.push_back(err);
      }
    }
  }
  std::sort(errors.begin(), errors.end());
  AccuracyResult result;
  result.mean_rel_error = rel.mean();
  result.p95_rel_error =
      errors.empty() ? 0.0 : errors[errors.size() * 95 / 100];
  // Storage: 48 counters x (counter + 2 index registers + flags).
  const double per_counter = 27.0 + 2.0 * index_bits + 2.0;
  result.storage_bytes = per_counter * 48.0 / 8.0;
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  (void)CliArgs(argc, argv, {});
  std::printf("=== Ablation: MLP-ATD accuracy vs oracle ===\n\n");

  std::printf("Sensitivity to the instruction-index width (sampling off):\n");
  AsciiTable bits({"index bits", "mean rel. error", "p95 rel. error",
                   "extension storage"});
  for (const int b : {6, 8, 10, 12, 16}) {
    const AccuracyResult r = measure(b, 1);
    bits.add_row({std::to_string(b), AsciiTable::pct(r.mean_rel_error),
                  AsciiTable::pct(r.p95_rel_error),
                  AsciiTable::num(r.storage_bytes, 0) + " B/core"});
  }
  bits.print();

  std::printf("\nSensitivity to ATD set sampling (10-bit indices):\n");
  AsciiTable sampling({"sample period", "mean rel. error", "p95 rel. error"});
  for (const int p : {1, 2, 4, 8}) {
    const AccuracyResult r = measure(10, p);
    sampling.add_row({"1/" + std::to_string(p),
                      AsciiTable::pct(r.mean_rel_error),
                      AsciiTable::pct(r.p95_rel_error)});
  }
  sampling.print();
  return 0;
}

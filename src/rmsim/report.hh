// Every text output of rmsim: the paper-figure, service and knee reports
// folded from sweep and service rows, their CSV/JSON renderings and the
// rows', plus the paper-style ASCII tables the bench binaries print.
//
// A FigureReport carries the three headline result sets of the paper:
//   fig6 - per-scenario and scenario-weighted energy savings vs the idle
//          baseline, one entry per (policy, model, alpha) configuration
//   fig7 - QoS-violation counts and Eq. 6 magnitudes per configuration
//   fig9 - online-model-vs-perfect-oracle savings deltas (present only when
//          the sweep's model axis includes the Perfect oracle)
//
// Every report embeds the sweep fingerprint of the rows it was built from
// (see sweep_fingerprint in rmsim/sweep.hh), so an archived report is
// traceable to the exact grid + simulator options + database identity that
// produced it.
//
// Text outputs. Each output record (SweepRow, SweepAggregate, Fig6Entry,
// Fig7Entry, Fig9Entry, ServiceRow, a knee curve and its points) has one
// column table in report.cc fixing its fields and their order, rendered by
// one CSV and one JSON-object writer with full-precision ("%.17g") doubles:
// equal rows give byte-identical text for any thread count. Callers commit
// it with write_file_atomic (common/file_util.hh), so a failed run never
// publishes a partial file.
#ifndef QOSRM_RMSIM_REPORT_HH
#define QOSRM_RMSIM_REPORT_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/table.hh"
#include "rmsim/interval_sim.hh"
#include "rmsim/qos_eval.hh"
#include "rmsim/service.hh"
#include "rmsim/sweep.hh"

namespace qosrm::rmsim {

inline constexpr std::uint32_t kFigureReportVersion = 1;

/// Fig. 6: energy savings of one (policy, model, alpha) configuration over
/// the mix axis.
struct Fig6Entry {
  rm::RmPolicy policy = rm::RmPolicy::Idle;
  rm::PerfModelKind model = rm::PerfModelKind::Model3;
  double qos_alpha = 0.0;
  double weighted_savings = 0.0;  ///< scenario-weighted (paper Fig. 6 bar)
  double mean_savings = 0.0;      ///< uniform mean over mixes
  double max_savings = 0.0;
  /// Uniform mean per scenario (index = scenario - 1); 0 for a scenario
  /// with no mixes in the grid.
  std::array<double, 4> scenario_mean_savings{};
  std::vector<double> per_mix_savings;  ///< grid mix order
};

/// Fig. 7: QoS-violation statistics of one configuration.
struct Fig7Entry {
  rm::RmPolicy policy = rm::RmPolicy::Idle;
  rm::PerfModelKind model = rm::PerfModelKind::Model3;
  double qos_alpha = 0.0;
  std::uint64_t intervals = 0;       ///< total over all mixes and cores
  std::uint64_t violations = 0;
  double violation_rate = 0.0;       ///< violations / intervals
  double mean_violation_rate = 0.0;  ///< uniform mean of per-mix rates
  double mean_magnitude = 0.0;       ///< mean Eq. 6 magnitude | violation
  double max_magnitude = 0.0;
  std::size_t violating_mixes = 0;   ///< mixes with >= 1 violation
};

/// Fig. 9: one online model vs the Perfect oracle under the same policy and
/// alpha (savings are scenario-weighted like fig6).
struct Fig9Entry {
  rm::RmPolicy policy = rm::RmPolicy::Idle;
  rm::PerfModelKind model = rm::PerfModelKind::Model3;  ///< never Perfect
  double qos_alpha = 0.0;
  double weighted_savings = 0.0;
  double oracle_weighted_savings = 0.0;
  double weighted_gap = 0.0;  ///< oracle - model
  double mean_gap = 0.0;
  double violation_rate = 0.0;         ///< of the online-model configuration
  double oracle_violation_rate = 0.0;  ///< of the oracle configuration
};

struct FigureReport {
  /// Sweep fingerprint of the source rows (see sweep_fingerprint).
  std::uint64_t fingerprint = 0;
  GridShape shape{};
  std::array<double, 4> scenario_weights{};
  std::vector<std::string> workloads;           ///< mix axis, grid order
  std::vector<workload::Scenario> scenarios;    ///< per mix
  /// Configuration axes recovered from the rows (grid order).
  std::vector<rm::RmPolicy> policies;
  std::vector<rm::PerfModelKind> models;
  std::vector<double> qos_alphas;

  std::vector<Fig6Entry> fig6;  ///< grid (alpha-major) configuration order
  std::vector<Fig7Entry> fig7;
  std::vector<Fig9Entry> fig9;  ///< empty when Perfect is not a model axis
};

/// Builds the full report from rows in grid order. `rows.size()` must equal
/// `shape.size()`; aborts otherwise (callers validate their inputs first).
[[nodiscard]] FigureReport build_figure_report(
    const std::vector<SweepRow>& rows, const GridShape& shape,
    std::uint64_t fingerprint, const std::array<double, 4>& weights);

/// The report as a byte-stable JSON document (fixed key order, "%.17g"
/// doubles, "\n" line ends): equal reports serialize to equal bytes.
[[nodiscard]] std::string figure_report_json(const FigureReport& report);

/// One CSV row per grid point.
[[nodiscard]] std::string sweep_rows_csv(const SweepResult& result);

/// One CSV row per (policy, model, alpha) aggregate.
[[nodiscard]] std::string aggregates_csv(const SweepResult& result);

/// Commits aggregates_csv(result) to `path`. False + *error naming the path
/// on failure; the target keeps its previous content.
bool write_aggregates_csv(const SweepResult& result, const std::string& path,
                          std::string* error = nullptr);

/// The fig6, fig7 and fig9 sections as CSV text, one row per entry.
[[nodiscard]] std::string fig6_csv(const FigureReport& report);
[[nodiscard]] std::string fig7_csv(const FigureReport& report);
[[nodiscard]] std::string fig9_csv(const FigureReport& report);

// Version 2: admission-policy axis (grid "admissions" extent + per-row
// "admission" and "qos_rejected" fields).
inline constexpr std::uint32_t kServiceReportVersion = 2;

/// Service-mode report: one JSON object per grid row with the full streaming
/// tail-metric set (p50/p95/p99 violation, energy per app, decisions/sec,
/// occupancy). Byte-stable like figure_report_json (fixed key order, "%.17g"
/// doubles) and stamped with the service fingerprint + grid shape, so a
/// report can never be matched against foreign rows.
[[nodiscard]] std::string service_report_json(const std::vector<ServiceRow>& rows,
                                              const ServiceGridShape& shape,
                                              std::uint64_t fingerprint);

/// One CSV row per service grid point.
[[nodiscard]] std::string service_rows_csv(const std::vector<ServiceRow>& rows);

inline constexpr std::uint32_t kServiceKneeReportVersion = 1;

/// Default p99 Eq. 6 magnitude above which a load level counts as past the
/// knee (see DESIGN.md, "Knee detection over dense load sweeps").
inline constexpr double kDefaultKneeThreshold = 0.1;

/// First index whose value exceeds `threshold`, or -1 when no value does.
/// Deliberately the FIRST crossing (not the last): on a non-monotone curve
/// - queueing systems can dip after a burst-driven spike - the first
/// crossing is the conservative capacity estimate an operator wants.
[[nodiscard]] int find_knee_index(const std::vector<double>& values,
                                  double threshold);

/// One knee curve: tail-violation metrics vs load for a fixed
/// {pattern, admission, policy, alpha} service configuration.
struct KneeCurve {
  workload::ArrivalPattern pattern = workload::ArrivalPattern::Poisson;
  AdmissionPolicy admission = AdmissionPolicy::Fifo;
  rm::RmPolicy policy = rm::RmPolicy::Rm3;
  rm::PerfModelKind model = rm::PerfModelKind::Model3;
  double qos_alpha = 0.0;
  std::vector<double> loads;           ///< the grid's load axis, grid order
  std::vector<double> p99_violation;   ///< per load (the knee signal)
  std::vector<double> violation_rate;  ///< per load
  std::vector<double> occupancy;       ///< per load
  std::vector<double> rejected_frac;   ///< (rejected / arrivals) per load
  /// find_knee_index(p99_violation, threshold): first load index whose p99
  /// Eq. 6 magnitude exceeds the threshold; -1 when the whole sweep stays
  /// under it (the grid never saturates this configuration).
  int knee_index = -1;
  double knee_load = 0.0;  ///< loads[knee_index], or 0 when knee_index < 0
};

/// The aggregate service report of the dense-load sweep: one KneeCurve per
/// {pattern x admission x policy x alpha} configuration (curve order:
/// pattern-minor, then admission, then policy, alpha-major - the grid's row
/// order with the load axis folded into each curve).
struct ServiceKneeReport {
  std::uint64_t fingerprint = 0;  ///< service fingerprint of the source rows
  ServiceGridShape shape{};
  double knee_threshold = kDefaultKneeThreshold;
  std::vector<KneeCurve> curves;
};

/// Folds service rows (grid order, rows.size() == shape.size(); aborts
/// otherwise) into per-configuration knee curves.
[[nodiscard]] ServiceKneeReport build_service_knee_report(
    const std::vector<ServiceRow>& rows, const ServiceGridShape& shape,
    std::uint64_t fingerprint, double knee_threshold = kDefaultKneeThreshold);

/// The knee report as a byte-stable JSON document (fixed key order, "%.17g"
/// doubles): equal reports serialize to equal bytes.
[[nodiscard]] std::string service_knee_report_json(
    const ServiceKneeReport& report);

/// The knee curves of one arrival pattern as CSV text (service_main writes
/// one "<prefix><pattern>.csv" per pattern): one row per {admission, policy,
/// alpha, load} in curve order, with the curve metrics and a knee marker
/// column. Byte-stable like the figure CSVs.
[[nodiscard]] std::string knee_curve_csv(const ServiceKneeReport& report,
                                         workload::ArrivalPattern pattern);

/// One row of a savings grid (e.g. paper Fig. 6): a workload with the
/// savings of several RM variants side by side.
struct SavingsGridRow {
  std::string workload;
  workload::Scenario scenario = workload::Scenario::One;
  std::vector<double> savings;  ///< one per variant, aligned with headers
};

/// Renders a Fig. 6/9-style grid. `variant_names` label the savings columns.
[[nodiscard]] AsciiTable savings_grid(const std::vector<SavingsGridRow>& rows,
                                      const std::vector<std::string>& variant_names);

/// Renders the Fig. 7 summary for a set of QoS-evaluation results.
[[nodiscard]] AsciiTable qos_summary(const std::vector<QosEvalResult>& results);

/// Renders the Fig. 8 histogram block (counts normalized to the global max).
[[nodiscard]] std::string qos_histograms(const std::vector<QosEvalResult>& results);

/// Human-readable scenario label ("Scenario 1" ...).
[[nodiscard]] std::string scenario_label(workload::Scenario s);

}  // namespace qosrm::rmsim

#endif  // QOSRM_RMSIM_REPORT_HH

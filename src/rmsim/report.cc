#include "rmsim/report.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.hh"
#include "common/csv.hh"
#include "common/str.hh"
#include "rm/perf_model.hh"

namespace qosrm::rmsim {

namespace {

/// Full-precision double formatting so equal reports yield byte-identical
/// text (same convention as the sweep CSVs).
std::string fmtd(double v) { return format("%.17g", v); }

/// fmtd for a JSON number. JSON has no inf or nan, so a non-finite value
/// would make the whole report unparseable: abort naming its key instead.
std::string json_num(const char* key, double v) {
  QOSRM_CHECK_MSG(std::isfinite(v),
                  format("non-finite value for JSON key \"%s\"", key).c_str());
  return fmtd(v);
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char ch : s) {
    switch (ch) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += ch;
    }
  }
  return out;
}

std::string config_prefix(rm::RmPolicy policy, rm::PerfModelKind model,
                          double alpha) {
  return format("{\"policy\": \"%s\", \"model\": \"%s\", \"alpha\": %s",
                rm::rm_policy_name(policy), rm::perf_model_name(model),
                json_num("alpha", alpha).c_str());
}

}  // namespace

FigureReport build_figure_report(const std::vector<SweepRow>& rows,
                                 const GridShape& shape,
                                 std::uint64_t fingerprint,
                                 const std::array<double, 4>& weights) {
  QOSRM_CHECK_MSG(shape.size() > 0, "figure report needs a non-empty grid");
  QOSRM_CHECK_MSG(rows.size() == shape.size(),
                  "figure report row count does not match the grid shape");
  const std::size_t n_mix = shape.mixes;

  FigureReport report;
  report.fingerprint = fingerprint;
  report.shape = shape;
  report.scenario_weights = weights;

  // The axes are recoverable from the rows because the grid order is fixed
  // (GridShape::index).
  for (std::size_t mi = 0; mi < n_mix; ++mi) {
    const SweepRow& row = rows[shape.index({.mix = mi})];
    report.workloads.push_back(row.workload);
    report.scenarios.push_back(row.scenario);
  }
  for (std::size_t pi = 0; pi < shape.policies; ++pi) {
    report.policies.push_back(rows[shape.index({.policy = pi})].policy);
  }
  for (std::size_t ki = 0; ki < shape.models; ++ki) {
    report.models.push_back(rows[shape.index({.model = ki})].model);
  }
  for (std::size_t ai = 0; ai < shape.alphas; ++ai) {
    report.qos_alphas.push_back(rows[shape.index({.alpha = ai})].qos_alpha);
  }

  // The fig6/fig7 entries are the grid with its mix axis folded: entry c
  // summarizes the rows of configuration configs.cell(c) over every mix.
  GridShape configs = shape;
  configs.mixes = 1;
  std::vector<workload::Scenario> scenarios;
  std::vector<double> savings;
  scenarios.reserve(n_mix);
  savings.reserve(n_mix);
  for (std::size_t c = 0; c < configs.size(); ++c) {
    GridCell cell = configs.cell(c);
    scenarios.clear();
    savings.clear();

    Fig6Entry e6;
    Fig7Entry e7;
    const SweepRow& first = rows[shape.index(cell)];
    e6.policy = e7.policy = first.policy;
    e6.model = e7.model = first.model;
    e6.qos_alpha = e7.qos_alpha = first.qos_alpha;

    std::array<double, 4> scenario_sum{};
    std::array<std::size_t, 4> scenario_count{};
    double rate_sum = 0.0;
    double magnitude_sum = 0.0;
    e6.max_savings = -std::numeric_limits<double>::infinity();
    for (cell.mix = 0; cell.mix < n_mix; ++cell.mix) {
      const SweepRow& row = rows[shape.index(cell)];
      const RunResult& run = row.result.run;
      scenarios.push_back(row.scenario);
      savings.push_back(row.result.savings);
      const auto s =
          static_cast<std::size_t>(static_cast<int>(row.scenario) - 1);
      scenario_sum[s] += row.result.savings;
      ++scenario_count[s];
      e6.mean_savings += row.result.savings;
      e6.max_savings = std::max(e6.max_savings, row.result.savings);
      e6.per_mix_savings.push_back(row.result.savings);

      e7.intervals += run.total_intervals();
      const std::uint64_t mix_violations = run.total_violations();
      e7.violations += mix_violations;
      if (mix_violations > 0) ++e7.violating_mixes;
      rate_sum += run.violation_rate();
      for (const CoreResult& core : run.cores) {
        magnitude_sum += core.violation_sum;
        e7.max_magnitude = std::max(e7.max_magnitude, core.violation_max);
      }
    }
    e6.weighted_savings = weighted_average_savings(scenarios, savings, weights);
    e6.mean_savings /= static_cast<double>(n_mix);
    for (std::size_t s = 0; s < 4; ++s) {
      e6.scenario_mean_savings[s] =
          scenario_count[s] > 0
              ? scenario_sum[s] / static_cast<double>(scenario_count[s])
              : 0.0;
    }
    e7.violation_rate = e7.intervals > 0
                            ? static_cast<double>(e7.violations) /
                                  static_cast<double>(e7.intervals)
                            : 0.0;
    e7.mean_violation_rate = rate_sum / static_cast<double>(n_mix);
    e7.mean_magnitude =
        e7.violations > 0 ? magnitude_sum / static_cast<double>(e7.violations)
                          : 0.0;

    report.fig6.push_back(std::move(e6));
    report.fig7.push_back(std::move(e7));
  }

  // Fig. 9 needs the Perfect oracle on the model axis; without it the
  // section stays empty (the JSON still carries the empty array, so a
  // consumer can tell "not applicable" from "file truncated").
  const auto oracle_it = std::find(report.models.begin(), report.models.end(),
                                   rm::PerfModelKind::Perfect);
  if (oracle_it != report.models.end()) {
    const auto ko =
        static_cast<std::size_t>(oracle_it - report.models.begin());
    for (std::size_t ai = 0; ai < shape.alphas; ++ai) {
      for (std::size_t ki = 0; ki < shape.models; ++ki) {
        if (ki == ko) continue;
        for (std::size_t pi = 0; pi < shape.policies; ++pi) {
          const std::size_t m =
              configs.index({.policy = pi, .model = ki, .alpha = ai});
          const std::size_t o =
              configs.index({.policy = pi, .model = ko, .alpha = ai});
          const Fig6Entry& model6 = report.fig6[m];
          const Fig6Entry& oracle6 = report.fig6[o];
          const Fig7Entry& model7 = report.fig7[m];
          const Fig7Entry& oracle7 = report.fig7[o];
          Fig9Entry e9;
          e9.policy = model6.policy;
          e9.model = model6.model;
          e9.qos_alpha = model6.qos_alpha;
          e9.weighted_savings = model6.weighted_savings;
          e9.oracle_weighted_savings = oracle6.weighted_savings;
          e9.weighted_gap = oracle6.weighted_savings - model6.weighted_savings;
          e9.mean_gap = oracle6.mean_savings - model6.mean_savings;
          e9.violation_rate = model7.violation_rate;
          e9.oracle_violation_rate = oracle7.violation_rate;
          report.fig9.push_back(e9);
        }
      }
    }
  }
  return report;
}

std::vector<SweepAggregate> compute_aggregates(
    const std::vector<SweepRow>& rows, const GridShape& shape,
    const std::array<double, 4>& weights) {
  const FigureReport report =
      build_figure_report(rows, shape, /*fingerprint=*/0, weights);
  std::vector<SweepAggregate> aggregates;
  aggregates.reserve(report.fig6.size());
  for (std::size_t i = 0; i < report.fig6.size(); ++i) {
    const Fig6Entry& e6 = report.fig6[i];
    aggregates.push_back({e6.policy, e6.model, e6.qos_alpha,
                          e6.weighted_savings, e6.mean_savings,
                          report.fig7[i].mean_violation_rate});
  }
  return aggregates;
}

std::string figure_report_json(const FigureReport& r) {
  std::string o;
  o += "{\n";
  o += "  \"schema\": \"qosrm-figure-report\",\n";
  o += format("  \"version\": %u,\n", kFigureReportVersion);
  o += format("  \"fingerprint\": \"%016llx\",\n",
              static_cast<unsigned long long>(r.fingerprint));
  o += format(
      "  \"grid\": {\"mixes\": %zu, \"policies\": %zu, \"models\": %zu, "
      "\"alphas\": %zu},\n",
      r.shape.mixes, r.shape.policies, r.shape.models, r.shape.alphas);

  o += "  \"scenario_weights\": [";
  for (std::size_t s = 0; s < 4; ++s) {
    if (s > 0) o += ", ";
    o += json_num("scenario_weights", r.scenario_weights[s]);
  }
  o += "],\n";

  o += "  \"workloads\": [\n";
  for (std::size_t mi = 0; mi < r.workloads.size(); ++mi) {
    o += format("    {\"name\": \"%s\", \"scenario\": %d}%s\n",
                json_escape(r.workloads[mi]).c_str(),
                static_cast<int>(r.scenarios[mi]),
                mi + 1 < r.workloads.size() ? "," : "");
  }
  o += "  ],\n";

  o += "  \"policies\": [";
  for (std::size_t pi = 0; pi < r.policies.size(); ++pi) {
    if (pi > 0) o += ", ";
    o += format("\"%s\"", rm::rm_policy_name(r.policies[pi]));
  }
  o += "],\n";
  o += "  \"models\": [";
  for (std::size_t ki = 0; ki < r.models.size(); ++ki) {
    if (ki > 0) o += ", ";
    o += format("\"%s\"", rm::perf_model_name(r.models[ki]));
  }
  o += "],\n";
  o += "  \"alphas\": [";
  for (std::size_t ai = 0; ai < r.qos_alphas.size(); ++ai) {
    if (ai > 0) o += ", ";
    o += json_num("alphas", r.qos_alphas[ai]);
  }
  o += "],\n";

  o += "  \"fig6\": [\n";
  for (std::size_t i = 0; i < r.fig6.size(); ++i) {
    const Fig6Entry& e = r.fig6[i];
    o += "    " + config_prefix(e.policy, e.model, e.qos_alpha);
    o += format(", \"weighted_savings\": %s, \"mean_savings\": %s, "
                "\"max_savings\": %s",
                json_num("weighted_savings", e.weighted_savings).c_str(),
                json_num("mean_savings", e.mean_savings).c_str(),
                json_num("max_savings", e.max_savings).c_str());
    o += ", \"scenario_mean_savings\": [";
    for (std::size_t s = 0; s < 4; ++s) {
      if (s > 0) o += ", ";
      o += json_num("scenario_mean_savings", e.scenario_mean_savings[s]);
    }
    o += "], \"per_mix_savings\": [";
    for (std::size_t mi = 0; mi < e.per_mix_savings.size(); ++mi) {
      if (mi > 0) o += ", ";
      o += json_num("per_mix_savings", e.per_mix_savings[mi]);
    }
    o += format("]}%s\n", i + 1 < r.fig6.size() ? "," : "");
  }
  o += "  ],\n";

  o += "  \"fig7\": [\n";
  for (std::size_t i = 0; i < r.fig7.size(); ++i) {
    const Fig7Entry& e = r.fig7[i];
    o += "    " + config_prefix(e.policy, e.model, e.qos_alpha);
    o += format(", \"intervals\": %llu, \"violations\": %llu, "
                "\"violation_rate\": %s, \"mean_violation_rate\": %s, "
                "\"mean_magnitude\": %s, \"max_magnitude\": %s, "
                "\"violating_mixes\": %zu}%s\n",
                static_cast<unsigned long long>(e.intervals),
                static_cast<unsigned long long>(e.violations),
                json_num("violation_rate", e.violation_rate).c_str(),
                json_num("mean_violation_rate", e.mean_violation_rate).c_str(),
                json_num("mean_magnitude", e.mean_magnitude).c_str(),
                json_num("max_magnitude", e.max_magnitude).c_str(), e.violating_mixes,
                i + 1 < r.fig7.size() ? "," : "");
  }
  o += "  ],\n";

  o += "  \"fig9\": [\n";
  for (std::size_t i = 0; i < r.fig9.size(); ++i) {
    const Fig9Entry& e = r.fig9[i];
    o += "    " + config_prefix(e.policy, e.model, e.qos_alpha);
    o += format(", \"weighted_savings\": %s, \"oracle_weighted_savings\": %s, "
                "\"weighted_gap\": %s, \"mean_gap\": %s, "
                "\"violation_rate\": %s, \"oracle_violation_rate\": %s}%s\n",
                json_num("weighted_savings", e.weighted_savings).c_str(),
                json_num("oracle_weighted_savings", e.oracle_weighted_savings).c_str(),
                json_num("weighted_gap", e.weighted_gap).c_str(),
                json_num("mean_gap", e.mean_gap).c_str(),
                json_num("violation_rate", e.violation_rate).c_str(),
                json_num("oracle_violation_rate", e.oracle_violation_rate).c_str(),
                i + 1 < r.fig9.size() ? "," : "");
  }
  o += "  ]\n";
  o += "}\n";
  return o;
}

std::string service_report_json(const std::vector<ServiceRow>& rows,
                                const ServiceGridShape& shape,
                                std::uint64_t fingerprint) {
  QOSRM_CHECK_MSG(rows.size() == shape.size(),
                  "service report row count does not match the grid shape");
  std::string o;
  o += "{\n";
  o += "  \"schema\": \"qosrm-service-report\",\n";
  o += format("  \"version\": %u,\n", kServiceReportVersion);
  o += format("  \"fingerprint\": \"%016llx\",\n",
              static_cast<unsigned long long>(fingerprint));
  o += format(
      "  \"grid\": {\"patterns\": %zu, \"loads\": %zu, \"admissions\": %zu, "
      "\"policies\": %zu, \"alphas\": %zu},\n",
      shape.patterns, shape.loads, shape.admissions, shape.policies,
      shape.alphas);

  o += "  \"rows\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const ServiceRow& row = rows[i];
    const ServiceMetrics& m = row.metrics;
    o += format("    {\"pattern\": \"%s\", \"load\": %s, "
                "\"admission\": \"%s\", \"policy\": \"%s\", "
                "\"model\": \"%s\", \"alpha\": %s",
                workload::arrival_pattern_name(row.pattern),
                json_num("load", row.load).c_str(),
                admission_policy_name(row.admission),
                rm::rm_policy_name(row.policy), rm::perf_model_name(row.model),
                json_num("alpha", row.qos_alpha).c_str());
    o += format(", \"arrivals\": %llu, \"served\": %llu, \"rejected\": %llu, "
                "\"qos_rejected\": %llu, \"intervals\": %llu, "
                "\"violations\": %llu",
                static_cast<unsigned long long>(m.arrivals),
                static_cast<unsigned long long>(m.served),
                static_cast<unsigned long long>(m.rejected),
                static_cast<unsigned long long>(m.qos_rejected),
                static_cast<unsigned long long>(m.intervals),
                static_cast<unsigned long long>(m.violations));
    o += format(", \"violation_rate\": %s, \"p50_violation\": %s, "
                "\"p95_violation\": %s, \"p99_violation\": %s, "
                "\"max_violation\": %s, \"mean_violation\": %s",
                json_num("violation_rate", m.violation_rate).c_str(),
                json_num("p50_violation", m.p50_violation).c_str(),
                json_num("p95_violation", m.p95_violation).c_str(),
                json_num("p99_violation", m.p99_violation).c_str(),
                json_num("max_violation", m.max_violation).c_str(),
                json_num("mean_violation", m.mean_violation).c_str());
    o += format(", \"energy_total_j\": %s, \"uncore_energy_j\": %s, "
                "\"energy_per_app_j\": %s",
                json_num("energy_total_j", m.energy_total_j).c_str(),
                json_num("uncore_energy_j", m.uncore_energy_j).c_str(),
                json_num("energy_per_app_j", m.energy_per_app_j).c_str());
    o += format(", \"rm_invocations\": %llu, \"rm_ops\": %llu, "
                "\"decisions_per_sec\": %s, \"occupancy\": %s, "
                "\"mean_wait_s\": %s, \"wall_time_s\": %s}%s\n",
                static_cast<unsigned long long>(m.rm_invocations),
                static_cast<unsigned long long>(m.rm_ops),
                json_num("decisions_per_sec", m.decisions_per_sec).c_str(),
                json_num("occupancy", m.occupancy).c_str(),
                json_num("mean_wait_s", m.mean_wait_s).c_str(),
                json_num("wall_time_s", m.wall_time_s).c_str(),
                i + 1 < rows.size() ? "," : "");
  }
  o += "  ]\n";
  o += "}\n";
  return o;
}

int find_knee_index(const std::vector<double>& values, double threshold) {
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (values[i] > threshold) return static_cast<int>(i);
  }
  return -1;
}

ServiceKneeReport build_service_knee_report(const std::vector<ServiceRow>& rows,
                                            const ServiceGridShape& shape,
                                            std::uint64_t fingerprint,
                                            double knee_threshold) {
  QOSRM_CHECK_MSG(shape.size() > 0, "knee report needs a non-empty grid");
  QOSRM_CHECK_MSG(rows.size() == shape.size(),
                  "knee report row count does not match the grid shape");

  ServiceKneeReport report;
  report.fingerprint = fingerprint;
  report.shape = shape;
  report.knee_threshold = knee_threshold;

  // One curve per (pattern, admission, policy, alpha): the grid with its
  // load axis folded into each curve.
  ServiceGridShape curves = shape;
  curves.loads = 1;
  report.curves.reserve(curves.size());
  for (std::size_t c = 0; c < curves.size(); ++c) {
    ServiceCell cell = curves.cell(c);
    KneeCurve curve;
    curve.loads.reserve(shape.loads);
    curve.p99_violation.reserve(shape.loads);
    curve.violation_rate.reserve(shape.loads);
    curve.occupancy.reserve(shape.loads);
    curve.rejected_frac.reserve(shape.loads);
    for (cell.load = 0; cell.load < shape.loads; ++cell.load) {
      const ServiceRow& row = rows[shape.index(cell)];
      if (cell.load == 0) {
        curve.pattern = row.pattern;
        curve.admission = row.admission;
        curve.policy = row.policy;
        curve.model = row.model;
        curve.qos_alpha = row.qos_alpha;
      }
    const ServiceMetrics& m = row.metrics;
      curve.loads.push_back(row.load);
      curve.p99_violation.push_back(m.p99_violation);
      curve.violation_rate.push_back(m.violation_rate);
      curve.occupancy.push_back(m.occupancy);
      curve.rejected_frac.push_back(
          m.arrivals > 0 ? static_cast<double>(m.rejected) /
                               static_cast<double>(m.arrivals)
                         : 0.0);
    }
    curve.knee_index = find_knee_index(curve.p99_violation, knee_threshold);
    curve.knee_load =
        curve.knee_index >= 0
            ? curve.loads[static_cast<std::size_t>(curve.knee_index)]
            : 0.0;
    report.curves.push_back(std::move(curve));
  }
  return report;
}

std::string service_knee_report_json(const ServiceKneeReport& r) {
  std::string o;
  o += "{\n";
  o += "  \"schema\": \"qosrm-service-knee-report\",\n";
  o += format("  \"version\": %u,\n", kServiceKneeReportVersion);
  o += format("  \"fingerprint\": \"%016llx\",\n",
              static_cast<unsigned long long>(r.fingerprint));
  o += format(
      "  \"grid\": {\"patterns\": %zu, \"loads\": %zu, \"admissions\": %zu, "
      "\"policies\": %zu, \"alphas\": %zu},\n",
      r.shape.patterns, r.shape.loads, r.shape.admissions, r.shape.policies,
      r.shape.alphas);
  o += format("  \"knee_threshold\": %s,\n",
              json_num("knee_threshold", r.knee_threshold).c_str());

  o += "  \"curves\": [\n";
  for (std::size_t i = 0; i < r.curves.size(); ++i) {
    const KneeCurve& c = r.curves[i];
    o += format("    {\"pattern\": \"%s\", \"admission\": \"%s\", "
                "\"policy\": \"%s\", \"model\": \"%s\", \"alpha\": %s, "
                "\"knee_index\": %d, \"knee_load\": %s, \"points\": [",
                workload::arrival_pattern_name(c.pattern),
                admission_policy_name(c.admission),
                rm::rm_policy_name(c.policy), rm::perf_model_name(c.model),
                json_num("alpha", c.qos_alpha).c_str(), c.knee_index,
                json_num("knee_load", c.knee_load).c_str());
    for (std::size_t j = 0; j < c.loads.size(); ++j) {
      o += format("%s{\"load\": %s, \"p99_violation\": %s, "
                  "\"violation_rate\": %s, \"occupancy\": %s, "
                  "\"rejected_frac\": %s}",
                  j > 0 ? ", " : "", json_num("load", c.loads[j]).c_str(),
                  json_num("p99_violation", c.p99_violation[j]).c_str(),
                  json_num("violation_rate", c.violation_rate[j]).c_str(),
                  json_num("occupancy", c.occupancy[j]).c_str(),
                  json_num("rejected_frac", c.rejected_frac[j]).c_str());
    }
    o += format("]}%s\n", i + 1 < r.curves.size() ? "," : "");
  }
  o += "  ]\n";
  o += "}\n";
  return o;
}

std::string knee_curve_csv(const ServiceKneeReport& report,
                           workload::ArrivalPattern pattern) {
  std::vector<std::vector<std::string>> rows;
  for (const KneeCurve& c : report.curves) {
    if (c.pattern != pattern) continue;
    for (std::size_t j = 0; j < c.loads.size(); ++j) {
      rows.push_back(
          {workload::arrival_pattern_name(c.pattern),
           admission_policy_name(c.admission), rm::rm_policy_name(c.policy),
           rm::perf_model_name(c.model), fmtd(c.qos_alpha), fmtd(c.loads[j]),
           fmtd(c.p99_violation[j]), fmtd(c.violation_rate[j]),
           fmtd(c.occupancy[j]), fmtd(c.rejected_frac[j]),
           std::to_string(static_cast<int>(j) == c.knee_index ? 1 : 0)});
    }
  }
  return csv_text({"pattern", "admission", "policy", "model", "qos_alpha",
                   "load", "p99_violation", "violation_rate", "occupancy",
                   "rejected_frac", "is_knee"},
                  rows);
}

std::string fig6_csv(const FigureReport& report) {
  std::vector<std::vector<std::string>> rows;
  for (const Fig6Entry& e : report.fig6) {
    rows.push_back({rm::rm_policy_name(e.policy), rm::perf_model_name(e.model),
                    fmtd(e.qos_alpha), fmtd(e.weighted_savings),
                    fmtd(e.mean_savings), fmtd(e.max_savings),
                    fmtd(e.scenario_mean_savings[0]),
                    fmtd(e.scenario_mean_savings[1]),
                    fmtd(e.scenario_mean_savings[2]),
                    fmtd(e.scenario_mean_savings[3])});
  }
  return csv_text({"policy", "model", "qos_alpha", "weighted_savings",
                   "mean_savings", "max_savings", "scenario1_mean",
                   "scenario2_mean", "scenario3_mean", "scenario4_mean"},
                  rows);
}

std::string fig7_csv(const FigureReport& report) {
  std::vector<std::vector<std::string>> rows;
  for (const Fig7Entry& e : report.fig7) {
    rows.push_back({rm::rm_policy_name(e.policy), rm::perf_model_name(e.model),
                    fmtd(e.qos_alpha), std::to_string(e.intervals),
                    std::to_string(e.violations), fmtd(e.violation_rate),
                    fmtd(e.mean_violation_rate), fmtd(e.mean_magnitude),
                    fmtd(e.max_magnitude), std::to_string(e.violating_mixes)});
  }
  return csv_text({"policy", "model", "qos_alpha", "intervals", "violations",
                   "violation_rate", "mean_violation_rate", "mean_magnitude",
                   "max_magnitude", "violating_mixes"},
                  rows);
}

std::string fig9_csv(const FigureReport& report) {
  std::vector<std::vector<std::string>> rows;
  for (const Fig9Entry& e : report.fig9) {
    rows.push_back({rm::rm_policy_name(e.policy), rm::perf_model_name(e.model),
                    fmtd(e.qos_alpha), fmtd(e.weighted_savings),
                    fmtd(e.oracle_weighted_savings), fmtd(e.weighted_gap),
                    fmtd(e.mean_gap), fmtd(e.violation_rate),
                    fmtd(e.oracle_violation_rate)});
  }
  return csv_text({"policy", "model", "qos_alpha", "weighted_savings",
                   "oracle_weighted_savings", "weighted_gap", "mean_gap",
                   "violation_rate", "oracle_violation_rate"},
                  rows);
}

std::string scenario_label(workload::Scenario s) {
  return format("Scenario %d", static_cast<int>(s));
}

AsciiTable savings_grid(const std::vector<SavingsGridRow>& rows,
                        const std::vector<std::string>& variant_names) {
  std::vector<std::string> header = {"Workload", "Scenario"};
  header.insert(header.end(), variant_names.begin(), variant_names.end());
  AsciiTable table(header);
  for (const SavingsGridRow& row : rows) {
    std::vector<std::string> cells = {row.workload, scenario_label(row.scenario)};
    for (const double s : row.savings) cells.push_back(AsciiTable::pct(s));
    table.add_row(std::move(cells));
  }
  return table;
}

AsciiTable qos_summary(const std::vector<QosEvalResult>& results) {
  AsciiTable table({"Model", "P(violation)", "E[violation]", "Stddev",
                    "Selectable mass", "Violating mass"});
  for (const QosEvalResult& r : results) {
    table.add_row({rm::perf_model_name(r.model),
                   AsciiTable::pct(r.violation_probability, 2),
                   AsciiTable::pct(r.expected_violation, 2),
                   AsciiTable::pct(r.violation_stddev, 2),
                   AsciiTable::num(r.selectable_mass, 1),
                   AsciiTable::num(r.violating_mass, 3)});
  }
  return table;
}

std::string qos_histograms(const std::vector<QosEvalResult>& results) {
  // Fig. 8 normalizes every model against the global maximum bin.
  double global_max = 0.0;
  for (const QosEvalResult& r : results) {
    global_max = std::max(global_max, r.histogram.max_count());
  }
  std::string out;
  for (const QosEvalResult& r : results) {
    out += format("%s (bins normalized to global max):\n",
                  rm::perf_model_name(r.model));
    const std::vector<double> norm = r.histogram.normalized_by(global_max);
    for (std::size_t b = 0; b < norm.size(); ++b) {
      const auto bar = static_cast<std::size_t>(std::lround(norm[b] * 50.0));
      out += format("  [%5.1f%%,%5.1f%%) %-50s %.4f\n",
                    r.histogram.bin_lo(b) * 100.0, r.histogram.bin_hi(b) * 100.0,
                    std::string(bar, '#').c_str(), norm[b]);
    }
  }
  return out;
}

}  // namespace qosrm::rmsim

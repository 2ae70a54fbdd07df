#include "rmsim/report.hh"

#include <algorithm>
#include <cmath>
#include <functional>
#include <initializer_list>
#include <limits>
#include <span>
#include <type_traits>
#include <utility>
#include <variant>

#include "common/check.hh"
#include "common/csv.hh"
#include "common/file_util.hh"
#include "common/str.hh"
#include "rm/perf_model.hh"

namespace qosrm::rmsim {

namespace {

/// One field's value; its alternative is the column's value kind.
using Cell = std::variant<std::uint64_t, int, double, const char*>;

template <class R>
struct Column {
  const char* name;  ///< CSV header and JSON key
  Cell (*get)(const R&);
  const char* json_key = nullptr;  ///< overrides name as the JSON key
};

/// A column table, or a run of columns only one format carries; not a
/// deduced context, so a record's type comes from the record alone.
template <class R>
using Columns = std::type_identity_t<std::span<const Column<R>>>;

template <class R>
constexpr Column<R> kPolicyColumn = {
    "policy", [](const R& r) -> Cell { return rm::rm_policy_name(r.policy); }};
template <class R>
constexpr Column<R> kModelColumn = {
    "model", [](const R& r) -> Cell { return rm::perf_model_name(r.model); }};
template <class R>
constexpr Column<R> kAlphaColumn = {
    "qos_alpha", [](const R& r) -> Cell { return r.qos_alpha; }, "alpha"};

/// Full-precision doubles ("%.17g"), so equal records give equal bytes;
/// integers and names print as themselves.
std::string csv_cell(const Cell& cell) {
  if (const double* d = std::get_if<double>(&cell)) return format("%.17g", *d);
  if (const char* const* s = std::get_if<const char*>(&cell)) return *s;
  if (const int* i = std::get_if<int>(&cell)) return std::to_string(*i);
  return std::to_string(std::get<std::uint64_t>(cell));
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

/// csv_cell as a JSON value: names are quoted and escaped, and since JSON
/// has no inf or nan, a non-finite number would make the whole report
/// unparseable, so it aborts naming its key instead.
std::string json_value(const char* key, const Cell& cell) {
  if (const double* d = std::get_if<double>(&cell)) {
    QOSRM_CHECK_MSG(std::isfinite(*d),
                    format("non-finite value for JSON key \"%s\"", key).c_str());
  } else if (const char* const* s = std::get_if<const char*>(&cell)) {
    return "\"" + json_escape(*s) + "\"";
  }
  return csv_cell(cell);
}

template <class R>
void append_header(std::vector<std::string>* header, Columns<R> columns) {
  for (const Column<R>& c : columns) header->push_back(c.name);
}

template <class R>
void append_cells(std::vector<std::string>* cells, Columns<R> columns,
                  const R& record) {
  for (const Column<R>& c : columns) cells->push_back(csv_cell(c.get(record)));
}

/// One CSV line per record: `columns`, then the CSV-only `extra` ones.
template <class R>
std::string csv_text_of(const std::vector<R>& records, Columns<R> columns,
                        Columns<R> extra = {}) {
  std::vector<std::string> header;
  append_header<R>(&header, columns);
  append_header<R>(&header, extra);
  std::vector<std::vector<std::string>> rows(records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    append_cells<R>(&rows[i], columns, records[i]);
    append_cells<R>(&rows[i], extra, records[i]);
  }
  return csv_text(header, rows);
}

/// `{"key": value, ...}` over `columns`, then the JSON-only `extra` ones,
/// then `tail` (pre-rendered `, "key": value` members) before the brace.
template <class R>
std::string json_object(const R& record, Columns<R> columns,
                        Columns<R> extra = {}, const std::string& tail = "") {
  std::string o = "{";
  for (const Columns<R> table : {columns, extra}) {
    for (const Column<R>& c : table) {
      const char* key = c.json_key != nullptr ? c.json_key : c.name;
      if (o.size() > 1) o += ", ";
      o.append("\"").append(key).append("\": ");
      o += json_value(key, c.get(record));
    }
  }
  return o + tail + "}";
}

/// `[v0, v1, ...]` with element v rendered as to_cell(v) under `key`.
template <class Range, class ToCell = std::identity>
std::string json_array(const char* key, const Range& values,
                       ToCell to_cell = {}) {
  std::string o = "[";
  for (const auto& v : values) {
    if (o.size() > 1) o += ", ";
    o += json_value(key, to_cell(v));
  }
  return o + "]";
}

/// A list of `n` objects, one per line: object(i) renders the i-th.
template <class Render>
std::string json_lines(std::size_t n, Render object) {
  std::string o = "[\n";
  for (std::size_t i = 0; i < n; ++i) {
    o += "    " + object(i) + (i + 1 < n ? ",\n" : "\n");
  }
  return o + "  ]";
}

template <class R>
std::string json_records(const std::vector<R>& records, Columns<R> columns) {
  return json_lines(records.size(), [&](std::size_t i) {
    return json_object(records[i], columns);
  });
}

using JsonMember = std::pair<const char*, std::string>;

/// A report document, one member per line: the schema, version and source
/// fingerprint every report opens with, then `members`.
std::string json_document(const char* schema, std::uint32_t version,
                          std::uint64_t fingerprint,
                          std::initializer_list<JsonMember> members) {
  std::string o = "{\n";
  o += format("  \"schema\": \"%s\",\n", schema);
  o += format("  \"version\": %u,\n", version);
  o += format("  \"fingerprint\": \"%016llx\"",
              static_cast<unsigned long long>(fingerprint));
  for (const JsonMember& m : members) {
    o += format(",\n  \"%s\": ", m.first) + m.second;
  }
  return o + "\n}\n";
}

/// Plain column accessors: a member (data or const function) of the record,
/// of a service row's metrics, or of a sweep row's run.
template <auto M, class R>
Cell member(const R& r) { return std::invoke(M, r); }
template <auto M>
Cell metric(const ServiceRow& r) { return r.metrics.*M; }
template <auto M>
Cell run_total(const SweepRow& r) { return std::invoke(M, r.result.run); }

constexpr Column<GridShape> kGridShapeColumns[] = {
    {"mixes", member<&GridShape::mixes>},
    {"policies", member<&GridShape::policies>},
    {"models", member<&GridShape::models>},
    {"alphas", member<&GridShape::alphas>}};

constexpr Column<ServiceGridShape> kServiceGridShapeColumns[] = {
    {"patterns", member<&ServiceGridShape::patterns>},
    {"loads", member<&ServiceGridShape::loads>},
    {"admissions", member<&ServiceGridShape::admissions>},
    {"policies", member<&ServiceGridShape::policies>},
    {"alphas", member<&ServiceGridShape::alphas>}};

constexpr Column<SweepRow> kSweepRowColumns[] = {
    {"workload", [](const SweepRow& r) -> Cell { return r.workload.c_str(); }},
    {"scenario",
     [](const SweepRow& r) -> Cell { return static_cast<int>(r.scenario); }},
    kPolicyColumn<SweepRow>,
    kModelColumn<SweepRow>,
    kAlphaColumn<SweepRow>,
    {"savings", [](const SweepRow& r) -> Cell { return r.result.savings; }},
    {"total_energy_j", run_total<&RunResult::total_energy_j>},
    {"uncore_energy_j", run_total<&RunResult::uncore_energy_j>},
    {"wall_time_s", run_total<&RunResult::wall_time_s>},
    {"intervals", run_total<&RunResult::total_intervals>},
    {"violations", run_total<&RunResult::total_violations>},
    {"violation_rate", run_total<&RunResult::violation_rate>},
    {"rm_invocations", run_total<&RunResult::rm_invocations>},
    {"rm_ops", run_total<&RunResult::rm_ops>}};

constexpr Column<SweepAggregate> kAggregateColumns[] = {
    kPolicyColumn<SweepAggregate>,
    kModelColumn<SweepAggregate>,
    kAlphaColumn<SweepAggregate>,
    {"weighted_savings", member<&SweepAggregate::weighted_savings>},
    {"mean_savings", member<&SweepAggregate::mean_savings>},
    {"mean_violation_rate", member<&SweepAggregate::mean_violation_rate>}};

constexpr Column<Fig6Entry> kFig6Columns[] = {
    kPolicyColumn<Fig6Entry>,
    kModelColumn<Fig6Entry>,
    kAlphaColumn<Fig6Entry>,
    {"weighted_savings", member<&Fig6Entry::weighted_savings>},
    {"mean_savings", member<&Fig6Entry::mean_savings>},
    {"max_savings", member<&Fig6Entry::max_savings>}};

/// The CSV spreads scenario_mean_savings over four columns; the JSON
/// carries it (and per_mix_savings) as arrays instead.
template <std::size_t S>
Cell scenario_mean(const Fig6Entry& e) { return e.scenario_mean_savings[S]; }
constexpr Column<Fig6Entry> kFig6CsvColumns[] = {
    {"scenario1_mean", scenario_mean<0>},
    {"scenario2_mean", scenario_mean<1>},
    {"scenario3_mean", scenario_mean<2>},
    {"scenario4_mean", scenario_mean<3>}};

constexpr Column<Fig7Entry> kFig7Columns[] = {
    kPolicyColumn<Fig7Entry>,
    kModelColumn<Fig7Entry>,
    kAlphaColumn<Fig7Entry>,
    {"intervals", member<&Fig7Entry::intervals>},
    {"violations", member<&Fig7Entry::violations>},
    {"violation_rate", member<&Fig7Entry::violation_rate>},
    {"mean_violation_rate", member<&Fig7Entry::mean_violation_rate>},
    {"mean_magnitude", member<&Fig7Entry::mean_magnitude>},
    {"max_magnitude", member<&Fig7Entry::max_magnitude>},
    {"violating_mixes", member<&Fig7Entry::violating_mixes>}};

constexpr Column<Fig9Entry> kFig9Columns[] = {
    kPolicyColumn<Fig9Entry>,
    kModelColumn<Fig9Entry>,
    kAlphaColumn<Fig9Entry>,
    {"weighted_savings", member<&Fig9Entry::weighted_savings>},
    {"oracle_weighted_savings", member<&Fig9Entry::oracle_weighted_savings>},
    {"weighted_gap", member<&Fig9Entry::weighted_gap>},
    {"mean_gap", member<&Fig9Entry::mean_gap>},
    {"violation_rate", member<&Fig9Entry::violation_rate>},
    {"oracle_violation_rate", member<&Fig9Entry::oracle_violation_rate>}};

template <class R>
constexpr Column<R> kPatternColumn = {
    "pattern", [](const R& r) -> Cell {
      return workload::arrival_pattern_name(r.pattern);
    }};
template <class R>
constexpr Column<R> kAdmissionColumn = {
    "admission",
    [](const R& r) -> Cell { return admission_policy_name(r.admission); }};

constexpr Column<ServiceRow> kServiceRowColumns[] = {
    kPatternColumn<ServiceRow>,
    {"load", member<&ServiceRow::load>},
    kAdmissionColumn<ServiceRow>,
    kPolicyColumn<ServiceRow>,
    kModelColumn<ServiceRow>,
    kAlphaColumn<ServiceRow>,
    {"arrivals", metric<&ServiceMetrics::arrivals>},
    {"served", metric<&ServiceMetrics::served>},
    {"rejected", metric<&ServiceMetrics::rejected>},
    {"qos_rejected", metric<&ServiceMetrics::qos_rejected>},
    {"intervals", metric<&ServiceMetrics::intervals>},
    {"violations", metric<&ServiceMetrics::violations>},
    {"violation_rate", metric<&ServiceMetrics::violation_rate>},
    {"p50_violation", metric<&ServiceMetrics::p50_violation>},
    {"p95_violation", metric<&ServiceMetrics::p95_violation>},
    {"p99_violation", metric<&ServiceMetrics::p99_violation>},
    {"max_violation", metric<&ServiceMetrics::max_violation>},
    {"mean_violation", metric<&ServiceMetrics::mean_violation>},
    {"energy_total_j", metric<&ServiceMetrics::energy_total_j>},
    {"uncore_energy_j", metric<&ServiceMetrics::uncore_energy_j>},
    {"energy_per_app_j", metric<&ServiceMetrics::energy_per_app_j>},
    {"rm_invocations", metric<&ServiceMetrics::rm_invocations>},
    {"rm_ops", metric<&ServiceMetrics::rm_ops>},
    {"decisions_per_sec", metric<&ServiceMetrics::decisions_per_sec>},
    {"occupancy", metric<&ServiceMetrics::occupancy>},
    {"mean_wait_s", metric<&ServiceMetrics::mean_wait_s>},
    {"wall_time_s", metric<&ServiceMetrics::wall_time_s>}};

/// A knee curve's configuration: the JSON curve header and the leading
/// columns of every CSV line of the curve.
constexpr Column<KneeCurve> kKneeCurveColumns[] = {
    kPatternColumn<KneeCurve>, kAdmissionColumn<KneeCurve>,
    kPolicyColumn<KneeCurve>, kModelColumn<KneeCurve>,
    kAlphaColumn<KneeCurve>};

/// The JSON header states the knee once; the CSV marks its line instead
/// (kKneePointCsvColumns).
constexpr Column<KneeCurve> kKneeCurveJsonColumns[] = {
    {"knee_index", member<&KneeCurve::knee_index>},
    {"knee_load", member<&KneeCurve::knee_load>}};

/// One load level of a knee curve.
struct KneePoint {
  const KneeCurve* curve;
  std::size_t i;
};

template <auto M>
Cell at_load(const KneePoint& p) { return ((*p.curve).*M)[p.i]; }
constexpr Column<KneePoint> kKneePointColumns[] = {
    {"load", at_load<&KneeCurve::loads>},
    {"p99_violation", at_load<&KneeCurve::p99_violation>},
    {"violation_rate", at_load<&KneeCurve::violation_rate>},
    {"occupancy", at_load<&KneeCurve::occupancy>},
    {"rejected_frac", at_load<&KneeCurve::rejected_frac>}};

constexpr Column<KneePoint> kKneePointCsvColumns[] = {
    {"is_knee", [](const KneePoint& p) -> Cell {
       return static_cast<int>(p.i) == p.curve->knee_index ? 1 : 0;
     }}};

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
  const auto workload = [&r](std::size_t i) {
    return format("{\"name\": \"%s\", \"scenario\": %d}",
                  json_escape(r.workloads[i]).c_str(),
                  static_cast<int>(r.scenarios[i]));
  };
  const auto fig6 = [&r](std::size_t i) {
    const Fig6Entry& e = r.fig6[i];
    return json_object(
        e, kFig6Columns, {},
        ", \"scenario_mean_savings\": " +
            json_array("scenario_mean_savings", e.scenario_mean_savings) +
            ", \"per_mix_savings\": " +
            json_array("per_mix_savings", e.per_mix_savings));
  };
  return json_document(
      "qosrm-figure-report", kFigureReportVersion, r.fingerprint,
      {{"grid", json_object(r.shape, kGridShapeColumns)},
       {"scenario_weights", json_array("scenario_weights", r.scenario_weights)},
       {"workloads", json_lines(r.workloads.size(), workload)},
       {"policies", json_array("policies", r.policies, rm::rm_policy_name)},
       {"models", json_array("models", r.models, rm::perf_model_name)},
       {"alphas", json_array("alphas", r.qos_alphas)},
       {"fig6", json_lines(r.fig6.size(), fig6)},
       {"fig7", json_records(r.fig7, kFig7Columns)},
       {"fig9", json_records(r.fig9, kFig9Columns)}});
}

std::string fig6_csv(const FigureReport& report) {
  return csv_text_of(report.fig6, kFig6Columns, kFig6CsvColumns);
}

std::string fig7_csv(const FigureReport& report) {
  return csv_text_of(report.fig7, kFig7Columns);
}

std::string fig9_csv(const FigureReport& report) {
  return csv_text_of(report.fig9, kFig9Columns);
}

std::string sweep_rows_csv(const SweepResult& result) {
  return csv_text_of(result.rows, kSweepRowColumns);
}

std::string aggregates_csv(const SweepResult& result) {
  return csv_text_of(result.aggregates, kAggregateColumns);
}

bool write_aggregates_csv(const SweepResult& result, const std::string& path,
                          std::string* error) {
  return write_file_atomic(path, aggregates_csv(result), error);
}

std::string service_rows_csv(const std::vector<ServiceRow>& rows) {
  return csv_text_of(rows, kServiceRowColumns);
}

std::string service_report_json(const std::vector<ServiceRow>& rows,
                                const ServiceGridShape& shape,
                                std::uint64_t fingerprint) {
  QOSRM_CHECK_MSG(rows.size() == shape.size(),
                  "service report row count does not match the grid shape");
  return json_document(
      "qosrm-service-report", kServiceReportVersion, fingerprint,
      {{"grid", json_object(shape, kServiceGridShapeColumns)},
       {"rows", json_records(rows, kServiceRowColumns)}});
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
  const auto curve_object = [&r](std::size_t i) {
    const KneeCurve& c = r.curves[i];
    std::string points;
    for (std::size_t j = 0; j < c.loads.size(); ++j) {
      if (j > 0) points += ", ";
      points += json_object(KneePoint{&c, j}, kKneePointColumns);
    }
    return json_object(c, kKneeCurveColumns, kKneeCurveJsonColumns,
                       ", \"points\": [" + points + "]");
  };
  return json_document(
      "qosrm-service-knee-report", kServiceKneeReportVersion, r.fingerprint,
      {{"grid", json_object(r.shape, kServiceGridShapeColumns)},
       {"knee_threshold", json_value("knee_threshold", r.knee_threshold)},
       {"curves", json_lines(r.curves.size(), curve_object)}});
}

std::string knee_curve_csv(const ServiceKneeReport& report,
                           workload::ArrivalPattern pattern) {
  std::vector<std::string> header;
  append_header<KneeCurve>(&header, kKneeCurveColumns);
  append_header<KneePoint>(&header, kKneePointColumns);
  append_header<KneePoint>(&header, kKneePointCsvColumns);
  std::vector<std::vector<std::string>> rows;
  for (const KneeCurve& c : report.curves) {
    if (c.pattern != pattern) continue;
    for (std::size_t j = 0; j < c.loads.size(); ++j) {
      std::vector<std::string>& cells = rows.emplace_back();
      append_cells<KneeCurve>(&cells, kKneeCurveColumns, c);
      append_cells<KneePoint>(&cells, kKneePointColumns, {&c, j});
      append_cells<KneePoint>(&cells, kKneePointCsvColumns, {&c, j});
    }
  }
  return csv_text(header, rows);
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

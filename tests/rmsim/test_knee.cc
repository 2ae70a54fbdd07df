// Knee detection and the aggregate service knee report, on hand-built
// curves and synthetic service rows - no simulation database needed, so
// this binary stays in the fast suite.
#include "rmsim/report.hh"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "rmsim/service.hh"

namespace qosrm::rmsim {
namespace {

TEST(KneeDetection, MonotoneCurveCrossesOnce) {
  // The textbook saturation curve: flat, then takes off. The knee is the
  // FIRST load past the threshold.
  const std::vector<double> p99 = {0.0, 0.01, 0.02, 0.08, 0.35, 0.9};
  EXPECT_EQ(find_knee_index(p99, 0.1), 4);
  EXPECT_EQ(find_knee_index(p99, 0.05), 3);
  EXPECT_EQ(find_knee_index(p99, 0.005), 1);
}

TEST(KneeDetection, NonMonotoneCurveReportsFirstCrossing) {
  // A burst-driven spike that settles back down and takes off later: the
  // conservative (first) crossing wins, not the final one.
  const std::vector<double> p99 = {0.02, 0.2, 0.05, 0.04, 0.3, 0.8};
  EXPECT_EQ(find_knee_index(p99, 0.1), 1);
  // Threshold above the early spike: the knee moves to the late take-off.
  EXPECT_EQ(find_knee_index(p99, 0.25), 4);
}

TEST(KneeDetection, FlatCurveHasNoKnee) {
  const std::vector<double> p99 = {0.0, 0.0, 0.01, 0.02};
  EXPECT_EQ(find_knee_index(p99, 0.1), -1);
  EXPECT_EQ(find_knee_index({}, 0.1), -1);
}

TEST(KneeDetection, ThresholdIsExclusive) {
  // Exactly AT the threshold is not past it - "crosses" means strictly
  // greater, so a curve that plateaus at the threshold has no knee.
  const std::vector<double> p99 = {0.1, 0.1, 0.1};
  EXPECT_EQ(find_knee_index(p99, 0.1), -1);
  EXPECT_EQ(find_knee_index({0.1, 0.1000001}, 0.1), 1);
}

/// Synthetic grid-order rows: p99 rises with load, scaled per admission so
/// different curves knee at different loads.
std::vector<ServiceRow> synthetic_rows(const ServiceGridShape& shape,
                                       const std::vector<double>& loads) {
  std::vector<ServiceRow> rows(shape.size());
  for (std::size_t idx = 0; idx < rows.size(); ++idx) {
    const ServiceCell c = shape.cell(idx);
    ServiceRow& row = rows[idx];
    row.pattern = static_cast<workload::ArrivalPattern>(c.pattern);
    row.load = loads[c.load];
    row.admission = static_cast<AdmissionPolicy>(c.admission);
    row.policy = rm::RmPolicy::Rm3;
    row.qos_alpha = 1.0 + 0.05 * static_cast<double>(c.alpha);
    ServiceMetrics& m = row.metrics;
    m.arrivals = 100;
    m.served = 90;
    m.rejected = 10;
    // Admission 0 knees earliest, each further admission a load step later.
    m.p99_violation = 0.05 * static_cast<double>(c.load) -
                      0.1 * static_cast<double>(c.admission + c.policy);
    if (m.p99_violation < 0.0) m.p99_violation = 0.0;
    m.violation_rate = m.p99_violation / 2.0;
    m.occupancy = 0.5;
  }
  return rows;
}

TEST(KneeReport, CurvesFoldTheLoadAxisInGridOrder) {
  ServiceGridShape shape;
  shape.patterns = 2;
  shape.loads = 5;
  shape.admissions = 2;
  shape.policies = 1;
  shape.alphas = 1;
  const std::vector<double> loads = {0.6, 0.8, 1.0, 1.2, 1.4};
  const std::vector<ServiceRow> rows = synthetic_rows(shape, loads);

  const ServiceKneeReport report =
      build_service_knee_report(rows, shape, 0xabcdULL, 0.1);
  ASSERT_EQ(report.curves.size(),
            shape.patterns * shape.admissions * shape.policies * shape.alphas);
  EXPECT_EQ(report.knee_threshold, 0.1);
  EXPECT_EQ(report.fingerprint, 0xabcdULL);

  for (const KneeCurve& curve : report.curves) {
    ASSERT_EQ(curve.loads.size(), shape.loads);
    EXPECT_EQ(curve.loads, loads);
    // rejected_frac folds the arrival accounting into the curve.
    for (const double f : curve.rejected_frac) EXPECT_EQ(f, 0.1);
    // The synthetic p99 rises 0.05 per load step: admission 0 curves cross
    // 0.1 at load index 3 (p99 = 0.15), admission 1 two steps later at
    // index... p99(li) = max(0, 0.05*li - 0.1*di), so di=1 never exceeds
    // 0.1 on this 5-load grid.
    const int expected =
        curve.admission == AdmissionPolicy::Fifo ? 3 : -1;
    EXPECT_EQ(curve.knee_index, expected)
        << admission_policy_name(curve.admission);
    if (expected >= 0) {
      EXPECT_EQ(curve.knee_load, loads[static_cast<std::size_t>(expected)]);
    } else {
      EXPECT_EQ(curve.knee_load, 0.0);
    }
  }

  // Curve order is pattern-minor, then admission: curve i pattern alternates.
  EXPECT_EQ(report.curves[0].pattern, workload::ArrivalPattern::Poisson);
  EXPECT_EQ(report.curves[1].pattern, workload::ArrivalPattern::Bursty);
  EXPECT_EQ(report.curves[0].admission, AdmissionPolicy::Fifo);
  EXPECT_EQ(report.curves[2].admission, AdmissionPolicy::Sdf);
}

TEST(KneeReport, JsonIsByteStableAndSelfDescribing) {
  ServiceGridShape shape;
  shape.patterns = 1;
  shape.loads = 4;
  shape.admissions = 3;
  shape.policies = 1;
  shape.alphas = 1;
  const std::vector<double> loads = {0.5, 1.0, 1.5, 2.0};
  const std::vector<ServiceRow> rows = synthetic_rows(shape, loads);

  const ServiceKneeReport report =
      build_service_knee_report(rows, shape, 0x1234ULL);
  const std::string json = service_knee_report_json(report);
  EXPECT_EQ(json, service_knee_report_json(
                      build_service_knee_report(rows, shape, 0x1234ULL)));
  EXPECT_NE(json.find("\"schema\": \"qosrm-service-knee-report\""),
            std::string::npos);
  EXPECT_NE(json.find("\"fingerprint\": \"0000000000001234\""),
            std::string::npos);
  EXPECT_NE(json.find("\"admissions\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"knee_threshold\": "), std::string::npos);
  EXPECT_NE(json.find("\"qos-aware\""), std::string::npos);
  // One curve object per {pattern x admission x policy x alpha}.
  std::size_t curves = 0, at = 0;
  while ((at = json.find("\"knee_index\"", at)) != std::string::npos) {
    ++curves;
    ++at;
  }
  EXPECT_EQ(curves, 3u);
}

TEST(KneeReport, PerPatternCsvsCarryTheKneeMarker) {
  ServiceGridShape shape;
  shape.patterns = 2;
  shape.loads = 5;
  shape.admissions = 1;
  shape.policies = 1;
  shape.alphas = 1;
  const std::vector<double> loads = {0.6, 0.8, 1.0, 1.2, 1.4};
  const std::vector<ServiceRow> rows = synthetic_rows(shape, loads);
  const ServiceKneeReport report =
      build_service_knee_report(rows, shape, 7, 0.1);

  for (const workload::ArrivalPattern pattern :
       {workload::ArrivalPattern::Poisson, workload::ArrivalPattern::Bursty}) {
    const std::string csv = knee_curve_csv(report, pattern);
    // The header plus one row per load, all of this pattern.
    EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 1 + 5) << csv;
    EXPECT_EQ(csv.find(pattern == workload::ArrivalPattern::Poisson ? "bursty"
                                                                    : "poisson"),
              std::string::npos)
        << csv;
    EXPECT_NE(csv.find("pattern,admission,policy,model,qos_alpha,load,"
                       "p99_violation,violation_rate,occupancy,"
                       "rejected_frac,is_knee"),
              std::string::npos);
    // Exactly one knee marker per curve on this monotone synthetic grid.
    std::size_t knees = 0, at = 0;
    while ((at = csv.find(",1\n", at)) != std::string::npos) {
      ++knees;
      ++at;
    }
    EXPECT_EQ(knees, 1u) << csv;
  }
}

TEST(KneeReportDeathTest, RowCountMustMatchShape) {
  ServiceGridShape shape;
  shape.patterns = 1;
  shape.loads = 2;
  shape.admissions = 1;
  shape.policies = 1;
  shape.alphas = 1;
  const std::vector<ServiceRow> rows(3);
  EXPECT_DEATH((void)build_service_knee_report(rows, shape, 0),
               "row count does not match");
}

// JSON has no inf or nan: a non-finite number must abort naming its key
// rather than write an unparseable report.
TEST(KneeReportDeathTest, NonFiniteNumberAbortsNamingTheKey) {
  ServiceGridShape shape;
  shape.patterns = 1;
  shape.loads = 2;
  shape.admissions = 1;
  shape.policies = 1;
  shape.alphas = 1;
  const std::vector<ServiceRow> rows = synthetic_rows(shape, {0.5, 1.0});
  ServiceKneeReport report = build_service_knee_report(rows, shape, 0);
  report.knee_threshold = std::numeric_limits<double>::infinity();
  EXPECT_DEATH((void)service_knee_report_json(report),
               "non-finite value for JSON key \"knee_threshold\"");
  report = build_service_knee_report(rows, shape, 0);
  report.curves.front().p99_violation.back() = std::nan("");
  EXPECT_DEATH((void)service_knee_report_json(report),
               "non-finite value for JSON key \"p99_violation\"");
}

}  // namespace
}  // namespace qosrm::rmsim

// The reproduction scorecard: every number this repository compares with
// the paper (arXiv 1911.05114 in PAPERS.md) is one row of kClaims.
//
// A row gives the paper's value, a tolerance, a hard bound where an earlier
// test asserted one, the function that recomputes our value and a one-line
// deviation note. A row fails when it is outside its tolerance without a
// note, inside it with a (stale) note, or outside its hard bound. A row that
// took over an earlier test's assertions is checked by a gtest of that
// test's name; Reproduction.Scorecard checks the others, and fails when the
// table rendered from kClaims differs from the region between the scorecard
// markers of docs/REPRODUCTION.md. On that last failure the doc with a fresh
// table is written into the build tree; copy it over the committed one once
// the diff reads right.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <limits>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "cache/mlp_atd.hh"
#include "common/file_util.hh"
#include "rm/overheads.hh"
#include "rmsim/experiment.hh"
#include "rmsim/qos_eval.hh"
#include "rmsim/report.hh"
#include "rmsim/sweep.hh"
#include "support/shared_db.hh"
#include "support/slurp.hh"
#include "workload/classify.hh"

namespace qosrm {
namespace {

using rm::RmPolicy;
using rmsim::QosEvalResult;
using workload::Category;
using workload::Scenario;

/// How a row's values print: `value * scale` with `digits` decimals.
struct Unit {
  double scale;
  int digits;
  const char* suffix;
};
constexpr Unit kPct0{100.0, 0, "%"};
constexpr Unit kPct1{100.0, 1, "%"};
constexpr Unit kPct2{100.0, 2, "%"};
constexpr Unit kRatio{1.0, 2, ""};
constexpr Unit kCount{1.0, 0, ""};
constexpr Unit kKilo{1e-3, 1, "K"};
constexpr Unit kMicroS{1e6, 1, " µs"};
constexpr Unit kMicroJ{1e6, 1, " µJ"};
constexpr Unit kBytes{1.0, 0, " B"};

/// Near: |ours - paper| <= tolerance. AtMost: the paper states a one-sided
/// claim, and ours may exceed it by at most the tolerance.
/// Qualitative: the paper states the claim only in words, so the row has no
/// paper value or tolerance and its hard bound is the whole check.
enum class Sense { Near, AtMost, Qualitative };

constexpr double kInf = std::numeric_limits<double>::infinity();

struct Bound {
  double lo = -kInf;
  double hi = kInf;
};

struct Claim {
  const char* id;
  const char* source;
  const char* quantity;
  Unit unit;
  Sense sense;
  double paper;
  double tolerance;
  double (*ours)();
  const char* note = "";  ///< why ours is outside the tolerance
  Bound bound = {};
  /// The earlier test whose assertions this row took over, as
  /// "Suite.Name"; the row is checked by a gtest of that name. Rows without
  /// one are checked by Reproduction.Scorecard.
  const char* test = nullptr;
};

// --- Fig. 1 and Table II: the classifier's measured populations ----------

const workload::SimDb& db2() { return testing::shared_db(2); }

const std::vector<workload::AppClassification>& classes() {
  static const auto c = workload::classify_suite(db2());
  return c;
}

int population(Category c) {
  return workload::category_histogram(classes())[static_cast<std::size_t>(c)];
}

double table2_agreement() {
  int agree = 0;
  for (const auto& cls : classes()) {
    agree += cls.category() == db2().suite().intended_category(cls.app);
  }
  return agree;
}

const workload::MixTable& mix_table() {
  static const workload::MixTable t =
      workload::compute_mix_table(workload::category_histogram(classes()));
  return t;
}

double pair_prob(Category a, Category b) {
  return mix_table().pair_prob[static_cast<std::size_t>(a)]
                              [static_cast<std::size_t>(b)];
}

/// The weight every scenario-weighted mean applies, from Table II's
/// intended populations.
double scenario_weight(Scenario s) {
  return rmsim::scenario_weights(
      workload::spec_suite())[static_cast<std::size_t>(s) - 1];
}

int rm3_effective_mixes() {
  int n = 0;
  for (int a = 0; a < workload::kNumCategories; ++a) {
    for (int b = 0; b < workload::kNumCategories; ++b) {
      const Scenario s = workload::scenario_of(static_cast<Category>(a),
                                               static_cast<Category>(b));
      n += s == Scenario::One || s == Scenario::Three;
    }
  }
  return n;
}

// --- Fig. 2: one two-core pair under perfect models, no overheads ---------

/// RM1..RM3 savings of the pair `app1`+`app2`.
std::array<double, 3> fig2_pair(const char* app1, const char* app2) {
  rmsim::SimOptions options;
  options.model_overheads = false;
  rmsim::ExperimentRunner runner(db2(), options);
  workload::WorkloadMix mix;
  mix.name = std::string(app1) + "+" + app2;
  mix.app_ids = {db2().suite().index_of(app1), db2().suite().index_of(app2)};
  std::array<double, 3> savings{};
  for (int p = 0; p < 3; ++p) {
    rm::RmConfig cfg;
    cfg.policy = static_cast<RmPolicy>(p + 1);
    cfg.model = rm::PerfModelKind::Perfect;
    cfg.energy.perfect = true;
    savings[static_cast<std::size_t>(p)] = runner.run(mix, cfg).savings;
  }
  return savings;
}

const std::array<double, 3>& fig2_s1() {  // CS-PI x CS-PS
  static const auto s = fig2_pair("sphinx3", "gcc");
  return s;
}

const std::array<double, 3>& fig2_s3() {  // CI-PS x CI-PS
  static const auto s = fig2_pair("bwaves", "GemsFDTD");
  return s;
}

// --- Fig. 6: Model3 mean savings over a generated suite --------------------

/// Mean savings per scenario (rows) and RM1..RM3 (columns).
using ScenarioMeans = std::array<std::array<double, 3>, 4>;

/// RM1..RM3 (Model3, overheads on) over the suite `generate_workloads`
/// draws at `cores` with `per_scenario` mixes per scenario.
ScenarioMeans scenario_means(int cores, int per_scenario) {
  rmsim::ExperimentRunner runner(testing::shared_db(cores));
  workload::WorkloadGenOptions gen;
  gen.cores = cores;
  gen.per_scenario = per_scenario;
  ScenarioMeans sum{};
  std::array<int, 4> count{};
  for (const auto& mix : generate_workloads(workload::spec_suite(), gen)) {
    const auto s = static_cast<std::size_t>(mix.scenario) - 1;
    for (int p = 0; p < 3; ++p) {
      rm::RmConfig cfg;
      cfg.policy = static_cast<RmPolicy>(p + 1);
      cfg.model = rm::PerfModelKind::Model3;
      sum[s][static_cast<std::size_t>(p)] += runner.run(mix, cfg).savings;
    }
    ++count[s];
  }
  for (std::size_t s = 0; s < 4; ++s) {
    for (double& v : sum[s]) v /= count[s];
  }
  return sum;
}

/// The two-core suite, three mixes per scenario.
const ScenarioMeans& fig6() {
  static const ScenarioMeans m = scenario_means(2, 3);
  return m;
}

/// The paper grid: four cores, six mixes per scenario, the shape of
/// `sweep_main --cores=4 --per-scenario=6` and of
/// tests/data/golden_paper_grid_report.json.
const ScenarioMeans& fig6grid() {
  static const ScenarioMeans m = scenario_means(4, 6);
  return m;
}

double fig6_mean(const ScenarioMeans& m, Scenario s, RmPolicy p) {
  return m[static_cast<std::size_t>(s) - 1][static_cast<std::size_t>(p) - 1];
}

double fig6_weighted_rm3(const ScenarioMeans& m) {
  const std::vector<Scenario> scenarios = {Scenario::One, Scenario::Two,
                                           Scenario::Three, Scenario::Four};
  std::vector<double> savings;
  for (const Scenario s : scenarios) {
    savings.push_back(fig6_mean(m, s, RmPolicy::Rm3));
  }
  return rmsim::weighted_average_savings(
      scenarios, savings, rmsim::scenario_weights(workload::spec_suite()));
}

double fig6_rm1_over_rm3_max() {
  double worst = -kInf;
  for (const auto& row : fig6()) worst = std::max(worst, row[0] - row[2]);
  return worst;
}

double fig6_s4_largest() {
  double largest = 0.0;
  for (const double v : fig6()[3]) largest = std::max(largest, std::abs(v));
  return largest;
}

// --- Closed loop on the paper grid: violations and Fig. 9 oracle gaps -----

/// The figure report of the paper grid (the golden_paper_grid_report.json
/// sweep at alpha 1): RM1..RM3 under Model3 and the Perfect oracle,
/// overheads on.
const rmsim::FigureReport& grid_report() {
  static const rmsim::FigureReport r = [] {
    workload::WorkloadGenOptions gen;
    gen.cores = 4;
    gen.per_scenario = 6;
    rmsim::SweepGrid grid;
    grid.mixes = generate_workloads(workload::spec_suite(), gen);
    grid.policies = {RmPolicy::Rm1, RmPolicy::Rm2, RmPolicy::Rm3};
    grid.models = {rm::PerfModelKind::Model3, rm::PerfModelKind::Perfect};
    grid.qos_alphas = {1.0};
    const rmsim::SweepResult result = rmsim::SweepRunner(testing::shared_db(4)).run(grid);
    return rmsim::build_figure_report(result.rows, grid.shape(), /*fingerprint=*/0,
                                      rmsim::scenario_weights(workload::spec_suite()));
  }();
  return r;
}

/// `policy` under Model3: its closed-loop violation rate, the uniform mean
/// of the per-mix rates (the aggregate CSV's mean_violation_rate).
double grid_violation_rate(RmPolicy policy) {
  for (const rmsim::Fig7Entry& e : grid_report().fig7) {
    if (e.policy == policy && e.model == rm::PerfModelKind::Model3) {
      return e.mean_violation_rate;
    }
  }
  ADD_FAILURE() << "no Model3 fig7 entry for " << rm::rm_policy_name(policy);
  return kInf;
}

/// `policy`'s Fig. 9 gap: Perfect minus Model3 scenario-weighted savings.
double grid_oracle_gap(RmPolicy policy) {
  for (const rmsim::Fig9Entry& e : grid_report().fig9) {
    if (e.policy == policy) return e.weighted_gap;
  }
  ADD_FAILURE() << "no fig9 entry for " << rm::rm_policy_name(policy);
  return kInf;
}

// --- Fig. 7/8: the Section IV-D.2 exhaustive evaluation -------------------

/// Model1..Model3.
const std::vector<QosEvalResult>& fig7() {
  static const auto r = rmsim::evaluate_qos(
      db2(), {rm::PerfModelKind::Model1, rm::PerfModelKind::Model2,
              rm::PerfModelKind::Model3});
  return r;
}

/// Model3's relative change of `stat` against Model1 (`other` 0) or Model2.
double change(double QosEvalResult::*stat, std::size_t other) {
  return fig7()[2].*stat / fig7()[other].*stat - 1.0;
}

double tail_mass(const QosEvalResult& r) {
  double mass = 0.0;
  for (std::size_t b = 0; b < r.histogram.bin_count(); ++b) {
    if (r.histogram.bin_lo(b) >= 0.10) mass += r.histogram.count(b);
  }
  return mass;
}

// --- Section III-E: RM overheads -------------------------------------------

/// Instructions charged per `policy` invoke, at the mean op count over the
/// first generated (scenario 1) mix at `cores`, Model3.
double rm_instructions(int cores, RmPolicy policy) {
  workload::WorkloadGenOptions gen;
  gen.cores = cores;
  gen.per_scenario = 1;
  rm::RmConfig cfg;
  cfg.policy = policy;
  cfg.model = rm::PerfModelKind::Model3;
  const rmsim::RunResult r =
      rmsim::IntervalSimulator(testing::shared_db(cores))
          .run(generate_workloads(workload::spec_suite(), gen).front(), cfg);
  const power::PowerModel power;
  return rm::OverheadModel(power).rm_instructions(r.rm_ops / r.rm_invocations);
}

rm::EnforcementCost dvfs_switch() {
  const power::PowerModel power;
  const workload::Setting from{arch::CoreSize::M, arch::VfTable::kBaselineIndex,
                               8};
  workload::Setting to = from;
  to.f_idx = 12;
  return rm::OverheadModel(power).transition(from, to);
}

constexpr const char* kFidelityNote =
    "model fidelity: the current frequency cancels out of every prediction, "
    "and ground truth is Model3's Eq. 1 with exact leading misses";
constexpr const char* kGridNote =
    "2 cores, 3 mixes per scenario; the 4-core 24-mix grid of "
    "tests/data/golden_paper_grid_report.json is closer";
constexpr const char* kOpsNote =
    "ours grows ~n^2 (every feasible DP pair), the paper's ~25K per core "
    "doubling; ROADMAP item 1 chooses the op count";

const Claim kClaims[] = {
    {"fig1.rm3_mixes", "Fig. 1", "ordered mixes where RM3 is more effective",
     kCount, Sense::Near, 12, 0, [] { return double(rm3_effective_mixes()); }},
    {"fig1.rm3_probability", "Fig. 1", "their collective probability", kPct1,
     Sense::Near, 0.70, 0.015,
     [] {
       return scenario_weight(Scenario::One) + scenario_weight(Scenario::Three);
     }},
    {"fig1.weight_s1", "Fig. 1, §V-A", "scenario 1 weight", kPct1, Sense::Near,
     0.470, 0.003, [] { return scenario_weight(Scenario::One); }, "", {},
     "Experiment.ScenarioWeightsMatchPaper"},
    {"fig1.weight_s2", "Fig. 1, §V-A", "scenario 2 weight", kPct1, Sense::Near,
     0.221, 0.003, [] { return scenario_weight(Scenario::Two); }, "", {},
     "Experiment.ScenarioWeightsMatchPaper"},
    {"fig1.weight_s3", "Fig. 1, §V-A", "scenario 3 weight", kPct1, Sense::Near,
     0.221, 0.003, [] { return scenario_weight(Scenario::Three); }, "", {},
     "Experiment.ScenarioWeightsMatchPaper"},
    {"fig1.weight_s4", "Fig. 1, §V-A", "scenario 4 weight", kPct1, Sense::Near,
     0.088, 0.003, [] { return scenario_weight(Scenario::Four); }, "", {},
     "Experiment.ScenarioWeightsMatchPaper"},
    {"fig1.p_cipi_cipi", "Fig. 1", "P(CI-PI x CI-PI)", kPct2, Sense::Near,
     0.088, 0.001, [] { return pair_prob(Category::CI_PI, Category::CI_PI); }},
    {"fig1.p_cipi_cips", "Fig. 1", "P(CI-PI x CI-PS)", kPct2, Sense::Near,
     0.077, 0.001, [] { return pair_prob(Category::CI_PI, Category::CI_PS); }},
    {"fig1.p_cipi_csps", "Fig. 1", "P(CI-PI x CS-PS)", kPct2, Sense::Near,
     0.055, 0.001, [] { return pair_prob(Category::CI_PI, Category::CS_PS); }},
    {"fig1.p_cips_cips", "Fig. 1", "P(CI-PS x CI-PS)", kPct2, Sense::Near,
     0.067, 0.001, [] { return pair_prob(Category::CI_PS, Category::CI_PS); }},
    {"fig1.p_csps_csps", "Fig. 1", "P(CS-PS x CS-PS)", kPct2, Sense::Near,
     0.034, 0.001, [] { return pair_prob(Category::CS_PS, Category::CS_PS); }},
    {"table2.agreement", "Table II",
     "apps the classifier puts in their category", kCount, Sense::Near, 27, 0,
     table2_agreement, "", {}, "SpecSuite.ClassifierReproducesTableII"},
    {"table2.cs_ps", "Table II", "CS-PS applications", kCount, Sense::Near, 5,
     0, [] { return double(population(Category::CS_PS)); }, "", {},
     "SpecSuite.CategoryHistogramMatchesPaperCounts"},
    {"table2.cs_pi", "Table II", "CS-PI applications", kCount, Sense::Near, 7,
     0, [] { return double(population(Category::CS_PI)); }, "", {},
     "SpecSuite.CategoryHistogramMatchesPaperCounts"},
    {"table2.ci_ps", "Table II", "CI-PS applications", kCount, Sense::Near, 7,
     0, [] { return double(population(Category::CI_PS)); }, "", {},
     "SpecSuite.CategoryHistogramMatchesPaperCounts"},
    {"table2.ci_pi", "Table II", "CI-PI applications", kCount, Sense::Near, 8,
     0, [] { return double(population(Category::CI_PI)); }, "", {},
     "SpecSuite.CategoryHistogramMatchesPaperCounts"},
    {"fig2.s1_rm3_over_rm2", "Fig. 2",
     "scenario 1 (sphinx3+gcc) RM3/RM2 savings", kRatio, Sense::Near, 1.7, 0.2,
     [] { return fig2_s1()[2] / fig2_s1()[1]; },
     "not traced; ROADMAP item 4 keeps it open"},
    {"fig2.s3_rm3", "Fig. 2", "scenario 3 (bwaves+GemsFDTD) RM3 savings", kPct1,
     Sense::Near, 0.11, 0.01, [] { return fig2_s3()[2]; }},
    {"fig2.s3_rm1_rm2", "Fig. 2", "scenario 3 best of RM1 and RM2 savings",
     kPct1, Sense::Near, 0.0, 0.01,
     [] { return std::max(fig2_s3()[0], fig2_s3()[1]); }},
    {"fig6.s1_rm3_over_rm2", "Fig. 2/6", "scenario 1 RM3/RM2 mean savings",
     kRatio, Sense::Near, 1.7, 0.2,
     [] { return fig6_mean(fig6(), Scenario::One, RmPolicy::Rm3) /
                 fig6_mean(fig6(), Scenario::One, RmPolicy::Rm2); },
     kGridNote, {.lo = 1.3}, "PaperShapes.Scenario1Rm3BeatsRm2Clearly"},
    {"fig6.s1_rm3", "Fig. 6", "scenario 1 RM3 mean savings", kPct1,
     Sense::Qualitative, 0.0, 0.0,
     [] { return fig6_mean(fig6(), Scenario::One, RmPolicy::Rm3); }, "",
     {.lo = 0.05},
     "PaperShapes.Scenario1Rm3BeatsRm2Clearly"},
    {"fig6.s2_rm3_over_rm2", "Fig. 2/6", "scenario 2 RM3/RM2 mean savings",
     kRatio, Sense::Near, 1.0, 0.25,
     [] { return fig6_mean(fig6(), Scenario::Two, RmPolicy::Rm3) /
                 fig6_mean(fig6(), Scenario::Two, RmPolicy::Rm2); },
     kGridNote, {.lo = 0.2, .hi = 1.8},
     "PaperShapes.Scenario2Rm2AndRm3Comparable"},
    {"fig6.s3_rm3", "Fig. 6", "scenario 3 RM3 mean savings", kPct1, Sense::Near,
     0.085, 0.02,
     [] { return fig6_mean(fig6(), Scenario::Three, RmPolicy::Rm3); },
     kGridNote, {.lo = 0.04}, "PaperShapes.Scenario3OnlyRm3Effective"},
    {"fig6.s3_rm2", "Fig. 6", "scenario 3 RM2 mean savings", kPct1, Sense::Near,
     0.017, 0.02,
     [] { return fig6_mean(fig6(), Scenario::Three, RmPolicy::Rm2); }, "",
     {.hi = 0.02}, "PaperShapes.Scenario3OnlyRm3Effective"},
    {"fig6.s3_rm1", "Fig. 2/6", "scenario 3 RM1 mean savings", kPct1,
     Sense::Near, 0.0, 0.02,
     [] { return fig6_mean(fig6(), Scenario::Three, RmPolicy::Rm1); }, "",
     {.hi = 0.02}, "PaperShapes.Scenario3OnlyRm3Effective"},
    {"fig6.s3_rm3_minus_rm2", "Fig. 6",
     "scenario 3 RM3 - RM2 mean savings (paper: 8.5% - 1.7%)", kPct1,
     Sense::Near, 0.068, 0.02,
     [] { return fig6_mean(fig6(), Scenario::Three, RmPolicy::Rm3) -
                 fig6_mean(fig6(), Scenario::Three, RmPolicy::Rm2); },
     "", {.lo = 0.03}, "PaperShapes.Scenario3OnlyRm3Effective"},
    {"fig6.s4_largest", "Fig. 2/6",
     "scenario 4 largest absolute RM1-3 mean savings", kPct1, Sense::Near, 0.0,
     0.01, fig6_s4_largest, "", {.hi = 0.02},
     "PaperShapes.Scenario4NothingWorks"},
    {"fig6.rm1_weakest", "Fig. 6", "max over scenarios of RM1 - RM3 savings",
     kPct1, Sense::Qualitative, 0.0, 0.0, fig6_rm1_over_rm3_max, "",
     {.hi = 0.01}, "PaperShapes.Rm1WeakestOverall"},
    {"fig6.weighted_rm3", "Fig. 6", "RM3 scenario-weighted mean savings", kPct1,
     Sense::Near, 0.10, 0.02, [] { return fig6_weighted_rm3(fig6()); },
     kGridNote, {.lo = 0.05, .hi = 0.20},
     "PaperShapes.WeightedAverageInPaperBand"},
    {"fig6grid.s1_rm3_over_rm2", "Fig. 2/6",
     "paper grid: scenario 1 RM3/RM2 mean savings", kRatio, Sense::Near, 1.7,
     0.2,
     [] { return fig6_mean(fig6grid(), Scenario::One, RmPolicy::Rm3) /
                 fig6_mean(fig6grid(), Scenario::One, RmPolicy::Rm2); }},
    {"fig6grid.s2_rm3_over_rm2", "Fig. 2/6",
     "paper grid: scenario 2 RM3/RM2 mean savings", kRatio, Sense::Near, 1.0,
     0.25,
     [] { return fig6_mean(fig6grid(), Scenario::Two, RmPolicy::Rm3) /
                 fig6_mean(fig6grid(), Scenario::Two, RmPolicy::Rm2); }},
    {"fig6grid.s3_rm3", "Fig. 6", "paper grid: scenario 3 RM3 mean savings",
     kPct1, Sense::Near, 0.085, 0.02,
     [] { return fig6_mean(fig6grid(), Scenario::Three, RmPolicy::Rm3); }},
    {"fig6grid.weighted_rm3", "Fig. 6",
     "paper grid: RM3 scenario-weighted mean savings", kPct1, Sense::Near, 0.10,
     0.02, [] { return fig6_weighted_rm3(fig6grid()); }},
    {"grid.rm1_violation_rate", "Eq. 3",
     "paper grid: RM1 closed-loop violation rate, Model3", kPct1,
     Sense::Qualitative, 0.0, 0.0,
     [] { return grid_violation_rate(RmPolicy::Rm1); }, "", {.lo = 0.0, .hi = 0.01}},
    {"grid.rm2_violation_rate", "Eq. 3",
     "paper grid: RM2 closed-loop violation rate, Model3", kPct1,
     Sense::Qualitative, 0.0, 0.0,
     [] { return grid_violation_rate(RmPolicy::Rm2); }, "", {.lo = 0.0, .hi = 0.06}},
    {"grid.rm3_violation_rate", "Eq. 3",
     "paper grid: RM3 closed-loop violation rate, Model3", kPct1,
     Sense::Qualitative, 0.0, 0.0,
     [] { return grid_violation_rate(RmPolicy::Rm3); }, "", {.lo = 0.0, .hi = 0.13}},
    {"fig9grid.rm1_gap", "Fig. 9",
     "paper grid: RM1 weighted savings, Perfect - Model3", kPct2,
     Sense::Qualitative, 0.0, 0.0, [] { return grid_oracle_gap(RmPolicy::Rm1); }, "",
     {.lo = -0.01, .hi = 0.01}},
    {"fig9grid.rm2_gap", "Fig. 9",
     "paper grid: RM2 weighted savings, Perfect - Model3", kPct2,
     Sense::Qualitative, 0.0, 0.0, [] { return grid_oracle_gap(RmPolicy::Rm2); }, "",
     {.lo = -0.01, .hi = 0.01}},
    {"fig9grid.rm3_gap", "Fig. 9",
     "paper grid: RM3 weighted savings, Perfect - Model3", kPct2,
     Sense::Qualitative, 0.0, 0.0, [] { return grid_oracle_gap(RmPolicy::Rm3); }, "",
     {.lo = -0.01, .hi = 0.01}},
    {"fig7.p_m3_vs_m1", "Fig. 7", "violation probability, Model3 vs Model1",
     kPct0, Sense::Near, -0.46, 0.10,
     [] { return change(&QosEvalResult::violation_probability, 0); },
     kFidelityNote, {.hi = -0.15},
     "QosEval.Model3BeatsModel1OnViolationProbability"},
    {"fig7.p_m3_vs_m2", "Fig. 7", "violation probability, Model3 vs Model2",
     kPct0, Sense::Near, -0.32, 0.10,
     [] { return change(&QosEvalResult::violation_probability, 1); },
     kFidelityNote, {.hi = -0.10},
     "QosEval.Model3BeatsModel2OnViolationProbability"},
    {"fig7.e_m3_vs_m2", "Fig. 7", "expected violation, Model3 vs Model2", kPct0,
     Sense::Near, -0.49, 0.10,
     [] { return change(&QosEvalResult::expected_violation, 1); },
     kFidelityNote, {.hi = 0.0}, "QosEval.Model3ReducesExpectedViolation"},
    {"fig7.sd_m3_vs_m2", "Fig. 7", "violation std-dev, Model3 vs Model2", kPct0,
     Sense::Near, -0.26, 0.10,
     [] { return change(&QosEvalResult::violation_stddev, 1); },
     kFidelityNote},
    {"fig8.tail_m3_over_m2", "Fig. 8",
     "violation mass above 10%, Model3 / Model2", kRatio, Sense::AtMost, 1.0,
     0.0, [] { return tail_mass(fig7()[2]) / tail_mass(fig7()[1]); }, "",
     {.hi = 1.0}, "QosEval.HistogramTailShorterForModel3"},
    {"s3e.rm2_instr_c2", "§III-E", "RM2 instructions per invoke, 2 cores",
     kKilo, Sense::Near, 18e3, 1.8e3,
     [] { return rm_instructions(2, RmPolicy::Rm2); }, kOpsNote},
    {"s3e.rm2_instr_c4", "§III-E", "RM2 instructions per invoke, 4 cores",
     kKilo, Sense::Near, 40e3, 4e3,
     [] { return rm_instructions(4, RmPolicy::Rm2); }, kOpsNote},
    {"s3e.rm2_instr_c8", "§III-E", "RM2 instructions per invoke, 8 cores",
     kKilo, Sense::Near, 67e3, 6.7e3,
     [] { return rm_instructions(8, RmPolicy::Rm2); }, kOpsNote},
    {"s3e.rm3_instr_c2", "§III-E", "RM3 instructions per invoke, 2 cores",
     kKilo, Sense::Near, 51e3, 5.1e3,
     [] { return rm_instructions(2, RmPolicy::Rm3); }, kOpsNote},
    {"s3e.rm3_instr_c4", "§III-E", "RM3 instructions per invoke, 4 cores",
     kKilo, Sense::Near, 73e3, 7.3e3,
     [] { return rm_instructions(4, RmPolicy::Rm3); }, kOpsNote},
    {"s3e.rm3_instr_c8", "§III-E", "RM3 instructions per invoke, 8 cores",
     kKilo, Sense::Near, 100e3, 10e3,
     [] { return rm_instructions(8, RmPolicy::Rm3); }, kOpsNote},
    {"s3e.dvfs_time", "§III-E", "DVFS switch time", kMicroS, Sense::Near, 15e-6,
     0.0, [] { return dvfs_switch().time_s; }},
    {"s3e.dvfs_energy", "§III-E", "DVFS switch energy", kMicroJ, Sense::Near,
     3e-6, 0.0, [] { return dvfs_switch().energy_j; }},
    {"s3e.mlp_atd_storage", "§III-E", "MLP-ATD extension storage per core",
     kBytes, Sense::AtMost, 300, 0.0,
     [] { return cache::MlpAtd({}).extension_storage_bits() / 8.0; }, "",
     {.hi = 300}, "MlpAtd.StorageBudgetBelowPaperEstimate"},
};

bool within_bound(const Claim& c, double ours) {
  return c.bound.lo <= ours && ours <= c.bound.hi;
}

bool within_tolerance(const Claim& c, double ours) {
  switch (c.sense) {
    case Sense::Near: return std::abs(ours - c.paper) <= c.tolerance;
    case Sense::AtMost: return ours <= c.paper + c.tolerance;
    case Sense::Qualitative: return within_bound(c, ours);
  }
  return false;
}

std::string fmt(const Unit& u, double value) {
  double x = value * u.scale;
  if (std::abs(x) < 0.5 * std::pow(10.0, -u.digits)) x = 0.0;  // no "-0"
  char buf[48];
  std::snprintf(buf, sizeof buf, "%.*f%s", u.digits, x, u.suffix);
  return buf;
}

std::string render_bound(const Claim& c) {
  const Bound& b = c.bound;
  std::string out;
  if (b.lo > -kInf && b.hi < kInf) {
    out.append("[").append(fmt(c.unit, b.lo)).append(", ");
    out.append(fmt(c.unit, b.hi)).append("]");
  } else if (b.lo > -kInf) {
    out.append("≥ ").append(fmt(c.unit, b.lo));
  } else if (b.hi < kInf) {
    out.append("≤ ").append(fmt(c.unit, b.hi));
  }
  return out;
}

std::string render_row(const Claim& c, double ours) {
  const bool words = c.sense == Sense::Qualitative;
  const std::string paper =
      words ? "qualitative"
            : (c.sense == Sense::AtMost ? "≤ " : "") + fmt(c.unit, c.paper);
  const std::string tolerance = words ? "" : "±" + fmt(c.unit, c.tolerance);
  return std::string("| `") + c.id + "` | " + c.source + " | " + c.quantity +
         " | " + paper + " | " + fmt(c.unit, ours) + " | " + tolerance +
         " | " + render_bound(c) + " | " +
         (within_tolerance(c, ours) ? "reproduced" : "deviates") + " | " +
         c.note + " |\n";
}

void check(const Claim& c, double ours) {
  const bool ok = within_tolerance(c, ours);
  const bool noted = *c.note != '\0';
  EXPECT_TRUE(ok || noted)
      << c.id << ": ours " << fmt(c.unit, ours) << " is outside the "
      << "tolerance of the paper's " << fmt(c.unit, c.paper)
      << " and carries no deviation note";
  EXPECT_FALSE(ok && noted)
      << c.id << ": ours " << fmt(c.unit, ours)
      << " is inside the tolerance; its deviation note is stale";
  EXPECT_TRUE(within_bound(c, ours))
      << c.id << ": ours " << ours << " breaks the hard bound "
      << render_bound(c);
}

/// Checks the rows that took over the assertions of the earlier test
/// `name`, so a broken claim still fails under the name it always had.
class FoldedTest : public ::testing::Test {
 public:
  explicit FoldedTest(std::string name) : name_(std::move(name)) {}
  void TestBody() override {
    for (const Claim& c : kClaims) {
      if (c.test != nullptr && name_ == c.test) check(c, c.ours());
    }
  }

 private:
  std::string name_;
};

[[maybe_unused]] const bool kFoldedTestsRegistered = [] {
  std::set<std::string> names;
  for (const Claim& c : kClaims) {
    if (c.test == nullptr || !names.insert(c.test).second) continue;
    const std::string name = c.test;
    const std::size_t dot = name.find('.');
    ::testing::RegisterTest(
        name.substr(0, dot).c_str(), name.substr(dot + 1).c_str(), nullptr,
        nullptr, __FILE__, __LINE__, [name] { return new FoldedTest(name); });
  }
  return true;
}();

constexpr const char* kBegin = "<!-- scorecard:begin -->\n";
constexpr const char* kEnd = "<!-- scorecard:end -->";

TEST(Reproduction, Scorecard) {
  std::string table =
      "| Claim | Source | Quantity | Paper | Ours | Tolerance | Hard bound | "
      "Status | Deviation note |\n"
      "|---|---|---|---|---|---|---|---|---|\n";
  for (const Claim& c : kClaims) {
    const double ours = c.ours();
    if (c.test == nullptr) check(c, ours);
    table += render_row(c, ours);
  }

  const std::string path = std::string(QOSRM_DOCS_DIR) + "/REPRODUCTION.md";
  const std::string doc = testing::slurp(path);
  const std::size_t begin = doc.find(kBegin);
  const std::size_t end = doc.find(kEnd);
  ASSERT_TRUE(begin != std::string::npos && end != std::string::npos &&
              begin < end)
      << path << " lacks the scorecard markers";
  const std::size_t body = begin + std::string(kBegin).size();
  if (doc.compare(body, end - body, table) != 0) {
    const std::string fresh = doc.substr(0, body) + table + doc.substr(end);
    const std::string out =
        std::string(QOSRM_TEST_OUT_DIR) + "/REPRODUCTION.md";
    std::string error;
    ASSERT_TRUE(write_file_atomic(out, fresh, &error)) << error;
    ADD_FAILURE() << path << " differs from the rendered scorecard; the "
                  << "rendered doc is " << out;
  }
}

}  // namespace
}  // namespace qosrm

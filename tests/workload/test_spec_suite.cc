#include "workload/spec_suite.hh"

#include <gtest/gtest.h>

#include <set>

namespace qosrm::workload {
namespace {

TEST(SpecSuite, TwentySevenApplications) {
  EXPECT_EQ(spec_suite().size(), 27);
}

TEST(SpecSuite, NamesUniqueAndLookupWorks) {
  const SpecSuite& suite = spec_suite();
  std::set<std::string> names;
  for (const AppProfile& app : suite.apps()) names.insert(app.name);
  EXPECT_EQ(names.size(), 27u);
  EXPECT_GE(suite.index_of("mcf"), 0);
  EXPECT_EQ(suite.index_of("calculix"), -1);  // excluded by the paper
  EXPECT_EQ(suite.index_of("milc"), -1);      // excluded by the paper
}

TEST(SpecSuiteDeathTest, AppOutsideTheSuiteAborts) {
  const SpecSuite& suite = spec_suite();
  EXPECT_DEATH((void)suite.app(suite.size()), "idx < size\\(\\)");
  EXPECT_DEATH((void)suite.app(-1), "idx >= 0");
}

TEST(SpecSuite, IntendedPopulationsMatchTableII) {
  const SpecSuite& suite = spec_suite();
  EXPECT_EQ(suite.apps_in_category(Category::CS_PS).size(), 5u);
  EXPECT_EQ(suite.apps_in_category(Category::CS_PI).size(), 7u);
  EXPECT_EQ(suite.apps_in_category(Category::CI_PS).size(), 7u);
  EXPECT_EQ(suite.apps_in_category(Category::CI_PI).size(), 8u);
}

TEST(SpecSuite, EveryAppHasPhasesAndSequence) {
  for (const AppProfile& app : spec_suite().apps()) {
    EXPECT_GE(app.num_phases(), 3) << app.name;
    EXPECT_GE(app.length_intervals(), 20) << app.name;
    double weight = 0.0;
    for (const PhaseParams& ph : app.phases) weight += ph.weight;
    EXPECT_NEAR(weight, 1.0, 1e-9) << app.name;
    for (const int ph : app.phase_sequence) {
      EXPECT_GE(ph, 0);
      EXPECT_LT(ph, app.num_phases());
    }
  }
}

TEST(SpecSuite, ApplicationLengthsVary) {
  // The end-of-run rule depends on the longest app; lengths must differ.
  std::set<int> lengths;
  for (const AppProfile& app : spec_suite().apps()) {
    lengths.insert(app.length_intervals());
  }
  EXPECT_GE(lengths.size(), 8u);
}

TEST(SpecSuite, DeterministicConstruction) {
  const SpecSuite a;
  const SpecSuite b;
  for (int i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.app(i).name, b.app(i).name);
    EXPECT_EQ(a.app(i).trace_seed, b.app(i).trace_seed);
    EXPECT_EQ(a.app(i).phase_sequence, b.app(i).phase_sequence);
    for (int ph = 0; ph < a.app(i).num_phases(); ++ph) {
      EXPECT_DOUBLE_EQ(
          a.app(i).phases[static_cast<std::size_t>(ph)].lpki,
          b.app(i).phases[static_cast<std::size_t>(ph)].lpki);
    }
  }
}

}  // namespace
}  // namespace qosrm::workload

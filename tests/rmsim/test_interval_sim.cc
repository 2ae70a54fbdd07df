#include "rmsim/interval_sim.hh"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

#include "rmsim/core_timeline.hh"
#include "support/missier_db.hh"
#include "support/settings_of.hh"
#include "support/shared_db.hh"

namespace qosrm::rmsim {
namespace {

const workload::SimDb& db() { return qosrm::testing::shared_db(); }

workload::WorkloadMix mix2(const char* a, const char* b) {
  workload::WorkloadMix mix;
  mix.name = std::string(a) + "+" + b;
  mix.scenario = workload::Scenario::One;
  mix.app_ids = {db().suite().index_of(a), db().suite().index_of(b)};
  return mix;
}

rm::RmConfig cfg(rm::RmPolicy policy,
                 rm::PerfModelKind model = rm::PerfModelKind::Model3) {
  rm::RmConfig c;
  c.policy = policy;
  c.model = model;
  return c;
}

TEST(IntervalSim, RunsToInstructionBound) {
  const IntervalSimulator sim(db());
  const RunResult r = sim.run(mix2("mcf", "libquantum"), cfg(rm::RmPolicy::Idle));
  const double interval = db().system().interval_instructions;
  const double bound =
      std::max(db().suite().app(r.cores[0].app).length_intervals(),
               db().suite().app(r.cores[1].app).length_intervals()) *
      interval;
  for (const CoreResult& c : r.cores) {
    EXPECT_GE(c.executed_instructions, bound);
    EXPECT_EQ(c.executed_instructions,
              static_cast<double>(c.intervals) * interval);
  }
}

TEST(IntervalSim, IdleRmNeverViolatesQos) {
  const IntervalSimulator sim(db());
  const RunResult r = sim.run(mix2("mcf", "xalancbmk"), cfg(rm::RmPolicy::Idle));
  EXPECT_EQ(r.total_violations(), 0u);
  EXPECT_EQ(r.rm_invocations, 0u);
}

TEST(IntervalSim, EnergyAndTimePositive) {
  const IntervalSimulator sim(db());
  const RunResult r = sim.run(mix2("gcc", "namd"), cfg(rm::RmPolicy::Rm3));
  EXPECT_GT(r.total_energy_j(), 0.0);
  EXPECT_GT(r.wall_time_s, 0.0);
  EXPECT_GT(r.uncore_energy_j, 0.0);
  EXPECT_NEAR(r.uncore_energy_j,
              db().power().uncore_power(2) * r.wall_time_s, 1e-9);
}

TEST(IntervalSim, ActiveRmInvokedOncePerBoundary) {
  const IntervalSimulator sim(db());
  const RunResult r = sim.run(mix2("mcf", "libquantum"), cfg(rm::RmPolicy::Rm2));
  // One invocation per completed interval except final ones per core.
  EXPECT_GE(r.rm_invocations, r.total_intervals() - 2 * 2);
  EXPECT_GT(r.rm_ops, 0u);
}

TEST(IntervalSim, DeterministicRuns) {
  const IntervalSimulator sim(db());
  const RunResult a = sim.run(mix2("mcf", "libquantum"), cfg(rm::RmPolicy::Rm3));
  const RunResult b = sim.run(mix2("mcf", "libquantum"), cfg(rm::RmPolicy::Rm3));
  EXPECT_DOUBLE_EQ(a.total_energy_j(), b.total_energy_j());
  EXPECT_EQ(a.total_violations(), b.total_violations());
  EXPECT_DOUBLE_EQ(a.wall_time_s, b.wall_time_s);
}

TEST(IntervalSim, ObserverSeesEveryInterval) {
  const IntervalSimulator sim(db());
  std::uint64_t observed = 0;
  double energy_sum = 0.0;
  const RunResult r =
      sim.run(mix2("povray", "sjeng"), cfg(rm::RmPolicy::Idle),
              [&](const IntervalObservation& obs) {
                ++observed;
                energy_sum += obs.energy_j;
                EXPECT_GE(obs.core, 0);
                EXPECT_LT(obs.core, 2);
                EXPECT_GT(obs.duration_s, 0.0);
              });
  EXPECT_EQ(observed, r.total_intervals());
  double counted = 0.0;
  for (const CoreResult& c : r.cores) counted += c.counted_energy_j;
  EXPECT_NEAR(energy_sum, counted, counted * 1e-9);
}

TEST(IntervalSim, OverheadsIncreaseEnergy) {
  SimOptions with;
  with.model_overheads = true;
  SimOptions without;
  without.model_overheads = false;
  const IntervalSimulator sim_with(db(), with);
  const IntervalSimulator sim_without(db(), without);
  const auto mix = mix2("mcf", "libquantum");
  const RunResult a = sim_with.run(mix, cfg(rm::RmPolicy::Rm3));
  const RunResult b = sim_without.run(mix, cfg(rm::RmPolicy::Rm3));
  EXPECT_GE(a.total_energy_j(), b.total_energy_j());
}

TEST(IntervalSim, ShorterAppRestartsUntilBound) {
  // povray (32 intervals) paired with mcf (64): povray must restart and
  // execute as many intervals as the longer app requires.
  const IntervalSimulator sim(db());
  const RunResult r = sim.run(mix2("povray", "mcf"), cfg(rm::RmPolicy::Idle));
  const int povray = db().suite().index_of("povray");
  ASSERT_EQ(r.cores[0].app, povray);
  EXPECT_GT(r.cores[0].intervals,
            static_cast<std::uint64_t>(
                db().suite().app(povray).length_intervals()));
}

/// Violation statistics recomputed from the observer stream against the
/// alpha-relaxed target (Eq. 6 with T_base * alpha as the reference).
struct ViolationTally {
  std::uint64_t count = 0;
  double sum = 0.0;
  double max = 0.0;
};

ViolationTally expected_violations(const RunResult& r, double alpha,
                                   double epsilon,
                                   const std::vector<IntervalObservation>& obs) {
  (void)r;
  ViolationTally t;
  for (const IntervalObservation& o : obs) {
    const double target = db().baseline_time(o.app, o.phase) * alpha;
    if (o.duration_s > target * (1.0 + epsilon)) {
      ++t.count;
      const double v = (o.duration_s - target) / target;
      t.sum += v;
      t.max = std::max(t.max, v);
    }
  }
  return t;
}

// Regression for the alpha-relative accounting fix: with a relaxed QoS
// constraint (alpha = 1.1) BOTH the violation condition and the Eq. 6
// magnitude must be measured against the alpha-relaxed target. The old code
// triggered on the relaxed target but accumulated (T - T_base) / T_base,
// overstating every magnitude by roughly the relaxation factor.
TEST(IntervalSim, ViolationMagnitudeMeasuredAgainstAlphaRelaxedTarget) {
  SimOptions opt;
  opt.qos_alpha_override = 1.1;
  const IntervalSimulator sim(db(), opt);
  std::vector<IntervalObservation> observations;
  // Model1 ignores MLP entirely, so its mispredictions produce violations
  // even under a relaxed constraint.
  const RunResult r =
      sim.run(mix2("mcf", "xalancbmk"), cfg(rm::RmPolicy::Rm3, rm::PerfModelKind::Model1),
              [&](const IntervalObservation& o) { observations.push_back(o); });

  const ViolationTally expect =
      expected_violations(r, 1.1, kQosEpsilon, observations);
  ASSERT_GT(expect.count, 0u) << "mix produces no violations at alpha=1.1; "
                                 "the regression test would be vacuous";

  std::uint64_t count = 0;
  double sum = 0.0;
  double max = 0.0;
  for (const CoreResult& c : r.cores) {
    count += c.qos_violations;
    sum += c.violation_sum;
    max = std::max(max, c.violation_max);
  }
  EXPECT_EQ(count, expect.count);
  EXPECT_DOUBLE_EQ(sum, expect.sum);
  EXPECT_DOUBLE_EQ(max, expect.max);

  // The base-relative (buggy) magnitude is strictly larger for every
  // violating interval; equality with the alpha-relative tally pins the fix.
  const ViolationTally base_relative =
      expected_violations(r, 1.0, (1.1 / 1.0) * (1.0 + kQosEpsilon) - 1.0,
                          observations);
  EXPECT_GT(base_relative.sum, expect.sum);
}

// At alpha = 1 the relaxed target IS the baseline time, so the fix must not
// move any number: magnitudes still equal the base-relative Eq. 6 values
// (this is why the alpha=1 golden CSV is unaffected by the fix).
TEST(IntervalSim, AlphaOneViolationAccountingUnchanged) {
  SimOptions opt;
  opt.qos_alpha_override = 1.0;
  const IntervalSimulator sim(db(), opt);
  std::vector<IntervalObservation> observations;
  const RunResult r =
      sim.run(mix2("mcf", "xalancbmk"), cfg(rm::RmPolicy::Rm3, rm::PerfModelKind::Model1),
              [&](const IntervalObservation& o) { observations.push_back(o); });
  const ViolationTally expect =
      expected_violations(r, 1.0, kQosEpsilon, observations);
  std::uint64_t count = 0;
  double sum = 0.0;
  for (const CoreResult& c : r.cores) {
    count += c.qos_violations;
    sum += c.violation_sum;
  }
  EXPECT_EQ(count, expect.count);
  EXPECT_DOUBLE_EQ(sum, expect.sum);

  // An explicit alpha=1 override and the database default (qos_alpha = 1)
  // must also be indistinguishable.
  const IntervalSimulator sim_default(db());
  const RunResult d = sim_default.run(mix2("mcf", "xalancbmk"),
                                      cfg(rm::RmPolicy::Rm3, rm::PerfModelKind::Model1));
  EXPECT_EQ(d.total_violations(), r.total_violations());
  EXPECT_DOUBLE_EQ(d.total_energy_j(), r.total_energy_j());
}

TEST(IntervalSim, ScratchReuseProducesIdenticalResults) {
  // One RunScratch threaded through several runs (different mixes, policies
  // and core states) must not change a single bit of any result.
  const IntervalSimulator sim(db());
  RunScratch scratch;
  const auto mix_a = mix2("mcf", "libquantum");
  const auto mix_b = mix2("gcc", "namd");
  const RunResult a1 = sim.run(mix_a, cfg(rm::RmPolicy::Rm3), {}, &scratch);
  const RunResult b1 = sim.run(mix_b, cfg(rm::RmPolicy::Rm2), {}, &scratch);
  const RunResult a2 = sim.run(mix_a, cfg(rm::RmPolicy::Rm3));
  const RunResult b2 = sim.run(mix_b, cfg(rm::RmPolicy::Rm2));
  EXPECT_EQ(a1.total_energy_j(), a2.total_energy_j());
  EXPECT_EQ(a1.wall_time_s, a2.wall_time_s);
  EXPECT_EQ(a1.total_violations(), a2.total_violations());
  EXPECT_EQ(a1.rm_ops, a2.rm_ops);
  EXPECT_EQ(b1.total_energy_j(), b2.total_energy_j());
  EXPECT_EQ(b1.wall_time_s, b2.wall_time_s);
  EXPECT_EQ(b1.total_violations(), b2.total_violations());
  EXPECT_EQ(b1.rm_ops, b2.rm_ops);
}

TEST(IntervalSim, ScratchRebindToAnotherDatabaseRefillsSnapshots) {
  // A kept snapshot names its cell by database address and interval key. A
  // second database built in the storage of the first has the same address
  // and the same keys, yet different counters (here: every LLC miss count
  // tripled), so a kernel (the state a RunScratch keeps) rebound to it must
  // refill every snapshot rather than keep the first database's counters as
  // a same-cell refresh. Seating the same apps at the baseline setting
  // revisits exactly the cells the first binding filled.
  const std::vector<std::vector<workload::PhaseStats>> stats =
      qosrm::testing::miss_scaled_stats(db(), 1.0);
  const std::vector<std::vector<workload::PhaseStats>> missier =
      qosrm::testing::miss_scaled_stats(db(), 3.0);
  const int apps[] = {db().suite().index_of("mcf"),
                      db().suite().index_of("libquantum")};

  struct Decision {
    std::uint64_t ops = 0;
    std::vector<workload::Setting> settings;
  };
  // Seats both apps, invokes the RM once for core 0, reads the decision.
  const auto decide = [&](IntervalKernel& kernel, const workload::SimDb& sdb) {
    rm::ResourceManager manager(cfg(rm::RmPolicy::Rm3), sdb.system(), sdb.power());
    kernel.bind(sdb, SimOptions{}, manager);
    for (int k = 0; k < 2; ++k) kernel.seat(k, apps[k]);
    kernel.invoke(0);
    EXPECT_TRUE(kernel.core(0).pending == manager.setting(0));
    return Decision{kernel.rm_ops(), qosrm::testing::settings_of(manager)};
  };

  std::optional<workload::SimDb> slot;
  IntervalKernel reused;
  const workload::SimDb* first = &slot.emplace(
      db().suite(), db().system(), db().power(), db().phase_options(), stats);
  const Decision on_first = decide(reused, *slot);
  slot.reset();
  const workload::SimDb* second = &slot.emplace(
      db().suite(), db().system(), db().power(), db().phase_options(), missier);
  ASSERT_EQ(first, second);

  IntervalKernel fresh_second;
  const Decision on_second = decide(fresh_second, *slot);
  // Precondition: the two databases lead to different decisions, so stale
  // counters would show.
  ASSERT_FALSE(on_first.ops == on_second.ops && on_first.settings == on_second.settings);
  const Decision rebound = decide(reused, *slot);
  EXPECT_EQ(rebound.ops, on_second.ops);
  EXPECT_TRUE(rebound.settings == on_second.settings);
}

// An invocation hands its decision to the invoking core alone. A departure
// followed by a re-seat of the same app resets the core's pending setting
// to the baseline, and the invocation that follows replays the same cell:
// the manager skips the global step, yet the re-seated core must adopt its
// decided (non-baseline) setting again.
TEST(IntervalKernel, ReseatedCoreAdoptsAnUnchangedDecision) {
  rm::ResourceManager manager(cfg(rm::RmPolicy::Rm3), db().system(), db().power());
  IntervalKernel kernel;
  kernel.bind(db(), SimOptions{}, manager);
  const int apps[] = {db().suite().index_of("mcf"),
                      db().suite().index_of("libquantum")};
  for (int k = 0; k < 2; ++k) kernel.seat(k, apps[k]);
  kernel.invoke(0);
  const workload::Setting base = workload::baseline_setting(db().system());
  EXPECT_TRUE(kernel.core(1).pending == base);  // invoke(0) writes core 0 only
  const workload::Setting decided = manager.setting(1);
  ASSERT_FALSE(decided == base);  // precondition: a lost adoption would show

  kernel.vacate(1);
  kernel.seat(1, apps[1]);
  EXPECT_TRUE(kernel.core(1).pending == base);
  const std::uint64_t replays = manager.stats().cell_replays;
  const std::uint64_t skips = manager.stats().dp_skips;
  kernel.invoke(1);
  EXPECT_EQ(manager.stats().cell_replays, replays + 1);
  EXPECT_EQ(manager.stats().dp_skips, skips + 1);  // the kept allocation
  EXPECT_TRUE(kernel.core(1).pending == decided);
}

TEST(IntervalSim, SavingsAgainstSelfIsZero) {
  const IntervalSimulator sim(db());
  const RunResult idle = sim.run(mix2("gcc", "wrf"), cfg(rm::RmPolicy::Idle));
  EXPECT_DOUBLE_EQ(energy_savings(idle, idle), 0.0);
}

TEST(IntervalSim, ActiveRmSavesEnergyOnFavourableMix) {
  const IntervalSimulator sim(db());
  const auto mix = mix2("mcf", "libquantum");
  const RunResult idle = sim.run(mix, cfg(rm::RmPolicy::Idle));
  const RunResult rm3 = sim.run(mix, cfg(rm::RmPolicy::Rm3));
  EXPECT_GT(energy_savings(rm3, idle), 0.05);
}

}  // namespace
}  // namespace qosrm::rmsim

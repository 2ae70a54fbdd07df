// Colocation under QoS: a datacenter-style scenario on a 4-core system.
//
// Two latency-critical, cache-sensitive services (mcf-, xalancbmk-like)
// colocate with two streaming batch analytics jobs (bwaves-, libquantum-
// like). Every application carries a hard QoS constraint (no slower than
// the even-share baseline). The example runs the idle RM, prior-art RM2 and
// the proposed RM3, prints a timeline of the settings RM3 picks, and
// reports energy and QoS outcomes - the deployment story the paper's
// introduction motivates.
#include <cstdio>
#include <map>

#include "common/cli.hh"
#include "common/table.hh"
#include "rmsim/experiment.hh"

using namespace qosrm;

int main(int argc, char** argv) {
  (void)CliArgs(argc, argv, {});

  arch::SystemConfig system;
  system.cores = 4;
  const power::PowerModel power;
  std::printf("building simulation database (27 apps x phases)...\n");
  const workload::SimDb db(workload::spec_suite(), system, power);

  workload::WorkloadMix mix;
  mix.name = "colocation";
  mix.scenario = workload::Scenario::One;
  const char* services[] = {"mcf", "xalancbmk", "bwaves", "libquantum"};
  for (const char* name : services) {
    mix.app_ids.push_back(db.suite().index_of(name));
  }

  rmsim::ExperimentRunner runner(db);

  std::printf("\ncolocated workload: LC services {mcf, xalancbmk} + batch "
              "{bwaves, libquantum}\n\n");
  AsciiTable outcome({"RM", "Energy [J]", "Savings", "QoS violations",
                      "worst violation"});
  for (const rm::RmPolicy policy :
       {rm::RmPolicy::Idle, rm::RmPolicy::Rm2, rm::RmPolicy::Rm3}) {
    rm::RmConfig cfg;
    cfg.policy = policy;
    cfg.model = rm::PerfModelKind::Model3;
    const rmsim::SavingsResult r = runner.run(mix, cfg);
    double worst = 0.0;
    for (const rmsim::CoreResult& c : r.run.cores) {
      worst = std::max(worst, c.violation_max);
    }
    outcome.add_row({rm::rm_policy_name(policy),
                     AsciiTable::num(r.run.total_energy_j(), 2),
                     AsciiTable::pct(r.savings),
                     std::to_string(r.run.total_violations()) + "/" +
                         std::to_string(r.run.total_intervals()),
                     AsciiTable::pct(worst)});
  }
  outcome.print();

  // Steady-state settings chosen by RM3: aggregate the most common setting
  // per core over the run.
  std::printf("\nRM3 steady-state settings per service:\n");
  rm::RmConfig cfg;
  cfg.policy = rm::RmPolicy::Rm3;
  cfg.model = rm::PerfModelKind::Model3;
  std::map<int, std::map<std::string, int>> setting_votes;
  const rmsim::IntervalSimulator sim(db);
  (void)sim.run(mix, cfg, [&](const rmsim::IntervalObservation& obs) {
    char key[48];
    std::snprintf(key, sizeof(key), "%s @ %.2f GHz, %2d ways",
                  arch::core_size_name(obs.setting.c).data(),
                  arch::VfTable::frequency_hz(obs.setting.f_idx) / 1e9,
                  obs.setting.w);
    ++setting_votes[obs.core][key];
  });
  AsciiTable settings({"Core", "Service", "Dominant setting", "Share"});
  for (const auto& [core, votes] : setting_votes) {
    int total = 0, best = 0;
    std::string best_key;
    for (const auto& [key, count] : votes) {
      total += count;
      if (count > best) {
        best = count;
        best_key = key;
      }
    }
    settings.add_row({std::to_string(core), services[core], best_key,
                      AsciiTable::pct(static_cast<double>(best) / total, 0)});
  }
  settings.print();

  std::printf("\nReading: the cache-sensitive services absorb LLC ways from\n"
              "the streaming jobs; the batch jobs upsize to L cores to keep\n"
              "their memory parallelism and drop to low VF - everyone meets\n"
              "QoS while system energy falls.\n");
  return 0;
}

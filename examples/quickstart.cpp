// Quickstart: build the simulation database, classify two applications,
// and compare the three resource managers on a 2-core QoS workload.
//
//   $ ./examples/quickstart [--app1=mcf] [--app2=libquantum]
//
// This walks the whole public API surface in ~60 lines: SpecSuite -> SimDb
// -> classification -> WorkloadMix -> ExperimentRunner -> savings.
#include <cstdio>

#include "common/cli.hh"
#include "rmsim/experiment.hh"
#include "workload/classify.hh"

using namespace qosrm;

constexpr CliFlag kFlags[] = {
    {"app1", CliFlag::kText, "NAME", "mcf", {}, "application on core 0"},
    {"app2", CliFlag::kText, "NAME", "libquantum", {},
     "application on core 1"},
    {"trace", CliFlag::kInt, "N", "0", {},
     "print the first N interval decisions of each policy"},
};

int main(int argc, char** argv) {
  const CliArgs args(argc, argv, kFlags);
  const std::string app1 = args.get("app1");
  const std::string app2 = args.get("app2");

  // 1. The application suite and a 2-core system (paper Table I).
  const workload::SpecSuite& suite = workload::spec_suite();
  arch::SystemConfig system;
  system.cores = 2;

  // 2. Characterize every phase once (the "Sniper+McPAT database").
  std::printf("building simulation database...\n");
  const power::PowerModel power;
  const workload::SimDb db(suite, system, power);

  // 3. Classify the two applications with the paper's criteria.
  for (const std::string& name : {app1, app2}) {
    const int idx = suite.index_of(name);
    if (idx < 0) {
      std::fprintf(stderr, "unknown application: %s\n", name.c_str());
      return 1;
    }
    const workload::AppClassification cls = workload::classify_app(db, idx);
    std::printf("%-12s -> %s  (MPKI@8w %.2f, MLP S/M/L %.2f/%.2f/%.2f)\n",
                name.c_str(), workload::category_name(cls.category()),
                cls.mpki_base, cls.mlp_s, cls.mlp_m, cls.mlp_l);
  }

  // 4. Run the workload under RM1/RM2/RM3 and report savings vs the idle RM.
  workload::WorkloadMix mix;
  mix.name = "quickstart";
  mix.scenario = workload::Scenario::One;
  mix.app_ids = {suite.index_of(app1), suite.index_of(app2)};

  rmsim::ExperimentRunner runner(db);
  const auto trace_limit = args.get_int("trace");
  for (const rm::RmPolicy policy :
       {rm::RmPolicy::Rm1, rm::RmPolicy::Rm2, rm::RmPolicy::Rm3}) {
    rm::RmConfig config;
    config.policy = policy;
    config.model = rm::PerfModelKind::Model3;
    const rmsim::SavingsResult r = runner.run(mix, config);
    double vio_sum = 0.0;
    double vio_max = 0.0;
    for (const rmsim::CoreResult& c : r.run.cores) {
      vio_sum += c.violation_sum;
      vio_max = std::max(vio_max, c.violation_max);
    }
    const auto n_vio = r.run.total_violations();
    std::printf(
        "%-4s energy %8.3f J  savings %6.2f%%  violations %llu/%llu "
        "(mean %.2f%%, max %.2f%%)\n",
        rm::rm_policy_name(policy), r.run.total_energy_j(), r.savings * 100.0,
        static_cast<unsigned long long>(n_vio),
        static_cast<unsigned long long>(r.run.total_intervals()),
        n_vio ? vio_sum / static_cast<double>(n_vio) * 100.0 : 0.0,
        vio_max * 100.0);

    // Optional: dump the first --trace interval decisions of this policy.
    if (trace_limit > 0) {
      std::int64_t shown = 0;
      rmsim::IntervalSimulator sim(db);
      (void)sim.run(mix, config, [&](const rmsim::IntervalObservation& obs) {
        if (shown++ >= trace_limit) return;
        std::printf("  t=%7.1fms core%d app%d phase%d  %s@%.2fGHz w=%-2d  "
                    "dur=%5.1fms e=%6.1fmJ\n",
                    obs.start_s * 1e3, obs.core, obs.app, obs.phase,
                    arch::core_size_name(obs.setting.c).data(),
                    arch::VfTable::frequency_hz(obs.setting.f_idx) / 1e9,
                    obs.setting.w, obs.duration_s * 1e3, obs.energy_j * 1e3);
      });
    }
  }
  return 0;
}

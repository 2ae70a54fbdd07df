// Phase timeline: visualize how RM3 adapts a core's setting as the
// application moves through its phases.
//
//   $ ./examples/phase_timeline [--app=mcf] [--partner=libquantum]
//                               [--intervals=48]
//
// Prints one row per interval of the observed core: the phase that ran,
// the setting the RM had chosen, the interval's time vs the QoS bound, and
// an ASCII energy bar - making the control loop's behaviour (phase change
// -> one-interval lag -> new setting) directly visible.
#include <algorithm>
#include <cstdio>
#include <vector>

#include "common/cli.hh"
#include "rmsim/experiment.hh"

using namespace qosrm;

constexpr CliFlag kFlags[] = {
    {"app", CliFlag::kText, "NAME", "mcf", {}, "application on core 0"},
    {"partner", CliFlag::kText, "NAME", "libquantum", {},
     "application on core 1"},
    {"intervals", CliFlag::kInt, "N", "48", {}, "intervals of core 0 shown"},
};

int main(int argc, char** argv) {
  const CliArgs args(argc, argv, kFlags);
  const std::string app_name = args.get("app");
  const std::string partner_name = args.get("partner");
  const auto max_rows = args.get_int("intervals");

  arch::SystemConfig system;
  system.cores = 2;
  const power::PowerModel power;
  std::printf("building simulation database...\n");
  const workload::SimDb db(workload::spec_suite(), system, power);

  const int app = db.suite().index_of(app_name);
  const int partner = db.suite().index_of(partner_name);
  if (app < 0 || partner < 0) {
    std::fprintf(stderr, "unknown application\n");
    return 1;
  }

  workload::WorkloadMix mix;
  mix.name = "timeline";
  mix.scenario = workload::Scenario::One;
  mix.app_ids = {app, partner};

  rm::RmConfig cfg;
  cfg.policy = rm::RmPolicy::Rm3;
  cfg.model = rm::PerfModelKind::Model3;

  struct Row {
    int phase;
    workload::Setting setting;
    double duration_s;
    double base_s;
    double energy_j;
  };
  std::vector<Row> rows;
  double idle_energy = 0.0;  // per-interval baseline energy for the bar scale

  const rmsim::IntervalSimulator sim(db);
  (void)sim.run(mix, cfg, [&](const rmsim::IntervalObservation& obs) {
    if (obs.core != 0 || static_cast<std::int64_t>(rows.size()) >= max_rows) {
      return;
    }
    const double base_s = db.baseline_time(obs.app, obs.phase);
    rows.push_back({obs.phase, obs.setting, obs.duration_s, base_s, obs.energy_j});
    idle_energy = std::max(
        idle_energy,
        db.energy(obs.app, obs.phase, workload::baseline_setting(system)).total_j());
  });

  std::printf("\ncore 0 runs %s (partner: %s), RM3/Model3; QoS bound = "
              "baseline time per phase\n\n",
              app_name.c_str(), partner_name.c_str());
  std::printf("%-4s %-6s %-18s %-9s %-9s %-5s %s\n", "intv", "phase", "setting",
              "time", "bound", "QoS", "energy (# = 5% of baseline)");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    char setting[32];
    std::snprintf(setting, sizeof(setting), "%s @ %.2fGHz %2dw",
                  arch::core_size_name(r.setting.c).data(),
                  arch::VfTable::frequency_hz(r.setting.f_idx) / 1e9,
                  r.setting.w);
    const bool ok = r.duration_s <= r.base_s * 1.002;
    const int bars = static_cast<int>(r.energy_j / idle_energy * 20.0);
    std::printf("%-4zu p%-5d %-18s %6.1fms %6.1fms  %-4s %s\n", i, r.phase,
                setting, r.duration_s * 1e3, r.base_s * 1e3, ok ? "ok" : "VIOL",
                std::string(static_cast<std::size_t>(std::max(0, bars)), '#')
                    .c_str());
  }

  std::printf("\nNote the one-interval adaptation lag after each phase\n"
              "change: the RM tunes interval i+1 from interval i's counters.\n");
  return 0;
}

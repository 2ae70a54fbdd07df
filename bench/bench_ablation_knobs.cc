// Ablation: which resource knob buys what?
//
// Decomposes RM3's savings by enabling the control knobs one at a time on
// top of LLC partitioning:
//
//   w        - partitioning only (RM1)
//   w + f    - partitioning + per-core DVFS (RM2, prior art)
//   w + c    - partitioning + core resizing, NO DVFS
//   w + f + c - the full proposed RM3
//
// The paper argues DVFS compensation is quadratic while resizing is roughly
// linear; this bench quantifies how much of RM3's advantage comes from the
// resize knob alone versus the interaction of both knobs.
#include <cstdio>

#include "common/cli.hh"
#include "common/csv.hh"
#include "rmsim/experiment.hh"
#include "rmsim/report.hh"

using namespace qosrm;

constexpr CliFlag kFlags[] = {
    {"cores", CliFlag::kInt, "N", "4", {}, "cores per generated workload"},
    {"per-scenario", CliFlag::kInt, "N", "3", {},
     "workload mixes per scenario"},
    {"csv", CliFlag::kText, "PATH", "", {},
     "per-mix savings of every knob set as CSV (optional)"},
};

int main(int argc, char** argv) {
  const CliArgs args(argc, argv, kFlags);
  const int cores = args.get_int32("cores");
  const int per_scenario = args.get_int32("per-scenario");
  const std::string csv_path = args.get("csv");
  if (!probe_outputs({{"csv", csv_path}})) return 1;

  arch::SystemConfig system;
  system.cores = cores;
  const power::PowerModel power;
  const workload::SimDb db(workload::spec_suite(), system, power);
  rmsim::ExperimentRunner runner(db);

  workload::WorkloadGenOptions gen;
  gen.cores = cores;
  gen.per_scenario = per_scenario;
  const auto mixes = generate_workloads(workload::spec_suite(), gen);

  struct Variant {
    const char* name;
    rm::LocalOptOptions knobs;
  };
  const Variant variants[] = {
      {"w", {false, false}},
      {"w+f", {true, false}},
      {"w+c", {false, true}},
      {"w+f+c", {true, true}},
  };

  std::printf("=== Ablation: resource knobs (%d-core, Model3) ===\n\n", cores);

  std::vector<std::vector<std::string>> csv_rows;
  std::vector<rmsim::SavingsGridRow> rows;
  std::array<double, 4> per_variant_total{};
  for (const auto& mix : mixes) {
    rmsim::SavingsGridRow row;
    row.workload = mix.name;
    row.scenario = mix.scenario;
    for (std::size_t v = 0; v < 4; ++v) {
      rm::RmConfig cfg;
      cfg.policy = rm::RmPolicy::Rm3;  // active policy; knobs drive the search
      cfg.model = rm::PerfModelKind::Model3;
      cfg.knobs = variants[v].knobs;
      const rmsim::SavingsResult r = runner.run(mix, cfg);
      row.savings.push_back(r.savings);
      per_variant_total[v] += r.savings;
      csv_rows.push_back({mix.name, rmsim::scenario_label(mix.scenario),
                          variants[v].name, std::to_string(r.savings)});
    }
    rows.push_back(std::move(row));
  }
  rmsim::savings_grid(rows, {"w", "w+f", "w+c", "w+f+c"}).print();

  const auto n = static_cast<double>(mixes.size());
  std::printf("\nmean savings: w %.1f%%   w+f %.1f%%   w+c %.1f%%   w+f+c %.1f%%\n",
              per_variant_total[0] / n * 100.0, per_variant_total[1] / n * 100.0,
              per_variant_total[2] / n * 100.0, per_variant_total[3] / n * 100.0);
  std::printf("knob synergy (w+f+c vs best single extension): %+.1f%%\n",
              (per_variant_total[3] -
               std::max(per_variant_total[1], per_variant_total[2])) /
                  n * 100.0);
  if (args.has("csv") &&
      !write_output("csv", csv_path,
                    csv_text({"workload", "scenario", "knobs", "savings"},
                             csv_rows))) {
    return 1;
  }
  return 0;
}

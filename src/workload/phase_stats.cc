#include "workload/phase_stats.hh"

#include <algorithm>

#include "cache/miss_curve.hh"
#include "cache/mlp_atd.hh"
#include "cache/mlp_oracle.hh"
#include "common/check.hh"

namespace qosrm::workload {

double PhaseStats::mpki(int w) const noexcept {
  if (interval_instructions <= 0.0) return 0.0;
  const int clamped = std::clamp(w, 1, max_ways());
  return misses[static_cast<std::size_t>(clamped - 1)] /
         (interval_instructions / 1000.0);
}

double PhaseStats::mlp_true(arch::CoreSize c, int w) const noexcept {
  const int clamped = std::clamp(w, 1, max_ways());
  const double m = misses[static_cast<std::size_t>(clamped - 1)];
  const double lm = lm_true[static_cast<std::size_t>(arch::core_size_index(c))]
                           [static_cast<std::size_t>(clamped - 1)];
  if (lm <= 0.0) return 1.0;
  return std::max(1.0, m / lm);
}

double PhaseStats::writebacks(int w) const noexcept {
  const int clamped = std::clamp(w, 1, max_ways());
  return misses[static_cast<std::size_t>(clamped - 1)] * write_frac;
}

double PhaseStats::dram_accesses(int w) const noexcept {
  const int clamped = std::clamp(w, 1, max_ways());
  return misses[static_cast<std::size_t>(clamped - 1)] * (1.0 + write_frac);
}

arch::IntervalCharacteristics PhaseStats::characteristics() const noexcept {
  arch::IntervalCharacteristics chars;
  chars.instructions = interval_instructions;
  chars.ilp = ilp;
  chars.cpi_branch = cpi_branch;
  chars.cpi_private_cache = cpi_cache;
  return chars;
}

arch::MemoryBehaviour PhaseStats::memory_truth(arch::CoreSize c, int w,
                                               double mem_latency_s) const noexcept {
  const int clamped = std::clamp(w, 1, max_ways());
  arch::MemoryBehaviour mem;
  mem.llc_misses = misses[static_cast<std::size_t>(clamped - 1)];
  mem.leading_misses = lm_true[static_cast<std::size_t>(arch::core_size_index(c))]
                              [static_cast<std::size_t>(clamped - 1)];
  mem.mem_latency_s = mem_latency_s;
  return mem;
}

CharacterizationSystem characterization_system(const arch::SystemConfig& system) {
  return {system.interval_instructions, system.llc.ways_per_core_baseline,
          system.mem_latency_s};
}

cache::ArrivalParams arrival_params(const CharacterizationSystem& system) {
  cache::ArrivalParams arrival;
  arrival.core = arch::kBaselineCoreSize;
  arrival.ways = system.baseline_ways;
  arrival.dispatch_ipc = 2.0;
  arrival.mem_latency_cycles =
      system.mem_latency_s *
      arch::VfTable::frequency_hz(arch::VfTable::kBaselineIndex);
  return arrival;
}

PhaseStats characterize_phase(const PhaseParams& phase,
                              const CharacterizationSystem& system,
                              const PhaseStatsOptions& options, std::uint64_t seed,
                              int lane_width) {
  const SynthesizedTrace trace = synthesize_trace(phase, options.synth, seed);
  const auto& accesses = trace.accesses;
  const auto& recency = trace.recency;
  const int max_ways = options.synth.max_ways;

  PhaseStats stats;
  stats.interval_instructions = system.interval_instructions;
  stats.scale = system.interval_instructions / trace.represented_instructions;
  stats.ilp = phase.ilp;
  stats.cpi_branch = phase.cpi_branch;
  stats.cpi_cache = phase.cpi_cache;
  stats.write_frac = phase.write_frac;
  stats.llc_accesses = static_cast<double>(accesses.size()) * stats.scale;

  // 1. Exact program-order recency annotation -> ground-truth miss curve.
  const cache::MissCurve curve = cache::MissCurve::from_recency(recency, max_ways);
  stats.misses.resize(static_cast<std::size_t>(max_ways));
  for (int w = 1; w <= max_ways; ++w) {
    stats.misses[static_cast<std::size_t>(w - 1)] = curve.misses(w) * stats.scale;
  }

  // 2. Oracle leading misses per core size and allocation (ground truth).
  stats.lm_true = cache::MlpOracle::leading_miss_curves(accesses, recency, max_ways,
                                                      lane_width);
  for (std::vector<double>& lm : stats.lm_true) {
    for (double& v : lm) v *= stats.scale;
  }

  // 3. Hardware estimate: emulate the out-of-order arrival stream at the
  //    baseline configuration and run the MLP-ATD counters over it.
  const std::vector<std::uint32_t> order =
      cache::emulate_arrival_order(accesses, recency, arrival_params(system));

  cache::MlpAtdConfig atd_cfg;
  atd_cfg.sets = options.synth.sets;
  atd_cfg.max_ways = max_ways;
  atd_cfg.min_ways = 1;
  atd_cfg.sample_period = options.atd_sample_period;
  atd_cfg.index_bits = options.mlp_index_bits;
  cache::MlpAtd mlp_atd(atd_cfg);
  mlp_atd.observe_in_order(accesses, order, lane_width);

  for (int c_idx = 0; c_idx < arch::kNumCoreSizes; ++c_idx) {
    const arch::CoreSize c = arch::kAllCoreSizes[c_idx];
    std::vector<double> lm(static_cast<std::size_t>(max_ways), 0.0);
    for (int w = 1; w <= max_ways; ++w) {
      lm[static_cast<std::size_t>(w - 1)] = mlp_atd.leading_misses(c, w) * stats.scale;
    }
    stats.lm_atd[static_cast<std::size_t>(c_idx)] = std::move(lm);
  }

  return stats;
}

}  // namespace qosrm::workload

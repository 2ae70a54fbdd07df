// Per-phase characterization: runs the canonical trace of a phase through
// the cache substrate once and extracts everything the timing/energy models
// and the resource managers need, for every core size and LLC allocation:
//
//   * exact miss curve M(w)                      (the trace synthesizer's
//                                                 shadow directory)
//   * ground-truth leading misses LM_true(c, w)  (MlpOracle)
//   * hardware-estimated LM_atd(c, w)            (MlpAtd over the emulated
//                                                 out-of-order arrival stream)
//
// Counts are scaled from the trace's represented instruction span to the RM
// interval (paper: 100M instructions).
#ifndef QOSRM_WORKLOAD_PHASE_STATS_HH
#define QOSRM_WORKLOAD_PHASE_STATS_HH

#include <array>
#include <cstdint>
#include <vector>

#include "arch/core_config.hh"
#include "arch/core_model.hh"
#include "arch/system_config.hh"
#include "cache/arrival.hh"
#include "common/simd.hh"
#include "workload/app_profile.hh"
#include "workload/trace_synth.hh"

namespace qosrm::workload {

struct PhaseStats {
  // Interval-scaled counts, indexed by [w-1] for w in [1, max_ways] and by
  // core_size_index for c.
  std::vector<double> misses;                                   ///< M(w)
  std::array<std::vector<double>, arch::kNumCoreSizes> lm_true; ///< LM(c,w)
  std::array<std::vector<double>, arch::kNumCoreSizes> lm_atd;  ///< estimate

  double interval_instructions = 0.0;  ///< instructions per interval
  double llc_accesses = 0.0;           ///< LLC accesses, interval-scaled
  double write_frac = 0.0;             ///< dirty-block share of the phase
  double scale = 1.0;                  ///< interval / represented instructions

  // Core-side characteristics copied from the phase parameters.
  double ilp = 1.0;
  double cpi_branch = 0.0;
  double cpi_cache = 0.0;

  [[nodiscard]] int max_ways() const noexcept {
    return static_cast<int>(misses.size());
  }
  [[nodiscard]] double mpki(int w) const noexcept;

  /// Writebacks per interval at allocation w: in steady state every evicted
  /// dirty block is written back, i.e. write_frac of the fills.
  [[nodiscard]] double writebacks(int w) const noexcept;

  /// DRAM transactions per interval at allocation w (fills + writebacks) -
  /// the MA quantity of paper Eq. 5.
  [[nodiscard]] double dram_accesses(int w) const noexcept;

  /// Ground-truth MLP at (c, w): M(w) / LM_true(c, w), >= 1.
  [[nodiscard]] double mlp_true(arch::CoreSize c, int w) const noexcept;

  /// IntervalCharacteristics view for the ground-truth timing model.
  [[nodiscard]] arch::IntervalCharacteristics characteristics() const noexcept;

  /// MemoryBehaviour at (c, w) using ground-truth leading misses.
  [[nodiscard]] arch::MemoryBehaviour memory_truth(arch::CoreSize c, int w,
                                                   double mem_latency_s) const noexcept;
};

struct PhaseStatsOptions {
  TraceSynthConfig synth{};
  int mlp_index_bits = 10;       ///< MLP-ATD instruction-index width
  int atd_sample_period = 1;     ///< set sampling inside the hardware models
};

/// The system values a phase characterization reads. Two systems with equal
/// values characterize every phase to the same bytes, whatever their core
/// count or bandwidth partitioning.
struct CharacterizationSystem {
  double interval_instructions = 0.0;  ///< SystemConfig::interval_instructions
  int baseline_ways = 0;               ///< llc.ways_per_core_baseline
  double mem_latency_s = 0.0;          ///< SystemConfig::mem_latency_s

  bool operator==(const CharacterizationSystem&) const = default;
};

[[nodiscard]] CharacterizationSystem characterization_system(
    const arch::SystemConfig& system);

/// Inputs of the out-of-order arrival emulation that feeds the MLP-ATD: the
/// baseline core at the system's baseline per-core allocation, dispatching
/// 2 instructions per cycle, with the system's DRAM latency counted in
/// baseline-clock cycles (130 ns x 2 GHz = 260).
[[nodiscard]] cache::ArrivalParams arrival_params(const CharacterizationSystem& system);

/// Characterizes one phase: synthesizes the trace (deterministic in `seed`)
/// and extracts interval-scaled statistics for the given system. The
/// leading-miss kernels run at `lane_width` lanes per block, which changes
/// no bit of the result.
[[nodiscard]] PhaseStats characterize_phase(const PhaseParams& phase,
                                            const CharacterizationSystem& system,
                                            const PhaseStatsOptions& options,
                                            std::uint64_t seed,
                                            int lane_width = simd::lane_width());

}  // namespace qosrm::workload

#endif  // QOSRM_WORKLOAD_PHASE_STATS_HH

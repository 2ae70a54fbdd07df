// The paper's proposed ATD extension for online MLP estimation (Fig. 4).
//
// One leading-miss (LM) counter is kept per (core size, LLC allocation)
// pair: 3 core sizes x 16 allocations = 48 counters per core. Every LLC
// access carries a quantized instruction index (paper: 10 bits, window = 4x
// the maximum ROB). For each counter, a miss at allocation w is classified:
//
//   * leading miss (LM)  - begins a new group of overlapping accesses; its
//                          full memory latency stalls the core;
//   * overlapping (OV)   - its latency hides under the current leading miss.
//
// Heuristic (paper Section III-C): a miss is OV iff
//   1. its distance to the last LM is below the ROB size of the core
//      configuration, and
//   2. it does not arrive out of order (distance smaller than the previous
//      OV distance), which indicates a data dependency on the last LM.
//
// The structure embeds its own (possibly sampled) tag directory so the
// miss-at-w predicate is produced exactly the way the hardware would. The
// per-(c, w) counter registers are 32-bit lanes (cache/lanes.hh) that every
// access updates branch-free, which bounds counter_bits to [8, 32]. The lane
// state is width-independent: observe_in_order() walks it in blocks of
// simd::lane_width() lanes, observe() in 4-lane blocks, to the same counts.
#ifndef QOSRM_CACHE_MLP_ATD_HH
#define QOSRM_CACHE_MLP_ATD_HH

#include <cstdint>
#include <span>
#include <vector>

#include "arch/core_config.hh"
#include "cache/access.hh"
#include "cache/lanes.hh"
#include "cache/lru_stack.hh"
#include "common/simd.hh"

namespace qosrm::cache {

struct MlpAtdConfig {
  int sets = 4096;
  int max_ways = 16;
  int min_ways = 1;       ///< smallest tracked allocation
  int sample_period = 1;  ///< set-sampling period (1 = every set)
  int index_bits = 10;    ///< quantized instruction-index width (paper: 10)
  int counter_bits = 27;  ///< LM counter width (paper: 27)

  /// 2^index_bits; 64-bit so the 32-bit index width is well defined.
  [[nodiscard]] std::uint64_t index_window() const noexcept {
    return std::uint64_t{1} << index_bits;
  }
  [[nodiscard]] std::uint64_t counter_max() const noexcept {
    return (counter_bits >= 64) ? ~0ULL : ((1ULL << counter_bits) - 1);
  }
  [[nodiscard]] int num_allocations() const noexcept {
    return max_ways - min_ways + 1;
  }
};

class MlpAtd {
 public:
  explicit MlpAtd(const MlpAtdConfig& config);

  /// Observes one LLC access in ATD ARRIVAL order (the order loads reach the
  /// LLC under the currently running configuration). Updates the embedded
  /// tag directory and all (c, w) leading-miss counters.
  void observe(const LlcAccess& access);

  /// observe(accesses[order[0]]), observe(accesses[order[1]]), ... in one
  /// call, at `lane_width` lanes per block (4 or 16, see
  /// simd::lane_width_available), which changes no count.
  void observe_in_order(std::span<const LlcAccess> accesses,
                        std::span<const std::uint32_t> order,
                        int lane_width = simd::lane_width());

  /// Leading-miss count estimated for core size `c` and allocation `w`,
  /// scaled by the set-sampling period.
  [[nodiscard]] double leading_misses(arch::CoreSize c, int w) const;

  /// Clears all counters and per-counter registers; tag state is preserved
  /// (interval boundary behaviour).
  void reset_counters();

  [[nodiscard]] const MlpAtdConfig& config() const noexcept { return cfg_; }

  /// Storage cost of the mechanism in bits (paper Section III-E estimates
  /// < 300 bytes/core): LM counters + last-LM-index + last-OV-distance
  /// registers. Excludes the baseline ATD tag storage.
  [[nodiscard]] std::uint64_t extension_storage_bits() const noexcept;

 private:
  [[nodiscard]] std::size_t lane(int c_idx, int w) const noexcept;

  /// The observe_in_order() loop at W lanes per block.
  template <int W>
  void observe_lanes(std::span<const LlcAccess> accesses,
                     std::span<const std::uint32_t> order);
  /// observe_lanes<16>, compiled for AVX-512F (only where the wide kernels
  /// are compiled; see common/simd.hh).
  void observe_lanes_wide(std::span<const LlcAccess> accesses,
                          std::span<const std::uint32_t> order);

  MlpAtdConfig cfg_;
  std::vector<LruStack> sampled_sets_;
  // Lane k = (w - min_ways) * kNumCoreSizes + c_idx, padded to whole wide
  // blocks with never-missing lanes. Constants:
  LaneArray ways_;  // allocation w of the lane
  LaneArray rob_;   // ROB size of the lane's core
  // Per-lane registers (the paper's Fig. 4 state). last_ov_dist == 0 means
  // no overlapped miss since the last LM; has_lm lanes are all-ones or zero.
  LaneArray lm_count_;
  LaneArray last_lm_index_;
  LaneArray last_ov_dist_;
  LaneArray has_lm_;
};

}  // namespace qosrm::cache

#endif  // QOSRM_CACHE_MLP_ATD_HH

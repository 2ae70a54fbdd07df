// Ground-truth leading-miss analysis.
//
// Unlike the hardware heuristic (MlpAtd), the oracle sees the trace in
// program order with TRUE dependency flags and unbounded-precision
// instruction indices. A miss is overlapped iff
//   * an earlier leading miss is still outstanding (the load's dispatch
//     distance to it is below the ROB size),
//   * the load is not serialized behind a missing producer (true dependency),
//   * the load/store queue still has room in the current overlap group.
//
// The oracle defines LM(c, w) for the ground-truth timing model
// (arch::evaluate_interval) and is the accuracy reference for the MLP-ATD
// ablation benches. Every (core size, allocation) pair is one 32-bit lane of
// a single pass over the trace, walked in blocks of simd::lane_width() lanes
// (cache/lanes.hh); DESIGN.md explains why the lane form is exact at either
// width.
#ifndef QOSRM_CACHE_MLP_ORACLE_HH
#define QOSRM_CACHE_MLP_ORACLE_HH

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "arch/core_config.hh"
#include "cache/access.hh"
#include "common/simd.hh"

namespace qosrm::cache {

class MlpOracle {
 public:
  /// Leading-miss counts per core size (indexed by core_size_index) and
  /// allocation (element w-1, w in [1, max_ways]), from one pass over
  /// `trace`. `recency` is the program-order LRU recency annotation of
  /// `trace`; an access misses at w iff recency >= w (misses_at). Instruction
  /// indices must be non-decreasing (program order). `lane_width` (4 or 16,
  /// see simd::lane_width_available) changes no count, only the wall time.
  [[nodiscard]] static std::array<std::vector<double>, arch::kNumCoreSizes>
  leading_miss_curves(std::span<const LlcAccess> trace,
                      std::span<const std::uint8_t> recency, int max_ways,
                      int lane_width = simd::lane_width());

  /// Ground-truth leading-miss count for core size `c` at allocation `w`:
  /// one entry of leading_miss_curves(trace, recency, w, lane_width).
  [[nodiscard]] static double leading_misses(std::span<const LlcAccess> trace,
                                             std::span<const std::uint8_t> recency,
                                             arch::CoreSize c, int w,
                                             int lane_width = simd::lane_width());
};

}  // namespace qosrm::cache

#endif  // QOSRM_CACHE_MLP_ORACLE_HH

// The W = 16 instantiation returns 64-byte vectors from always_inline
// helpers compiled without AVX-512F; GCC's -Wpsabi note about that ABI
// concerns no real call and is reported at the end of the instantiation,
// outside any push/pop region, so it is off for the whole file.
#pragma GCC diagnostic ignored "-Wpsabi"

#include "cache/mlp_atd.hh"

#include <algorithm>

#include "common/check.hh"

namespace qosrm::cache {

MlpAtd::MlpAtd(const MlpAtdConfig& config) : cfg_(config) {
  QOSRM_CHECK(cfg_.sets > 0);
  QOSRM_CHECK(cfg_.max_ways > 0 && cfg_.max_ways < kRecencyMiss);
  QOSRM_CHECK(cfg_.min_ways >= 1 && cfg_.min_ways <= cfg_.max_ways);
  QOSRM_CHECK(cfg_.sample_period >= 1);
  QOSRM_CHECK(cfg_.index_bits >= 4 && cfg_.index_bits <= 32);
  QOSRM_CHECK_MSG(cfg_.counter_bits >= 8 && cfg_.counter_bits <= 32,
                  "counter_bits must be in [8, 32] (32-bit counter lanes)");
  const int sampled = (cfg_.sets + cfg_.sample_period - 1) / cfg_.sample_period;
  sampled_sets_.reserve(static_cast<std::size_t>(sampled));
  for (int i = 0; i < sampled; ++i) sampled_sets_.emplace_back(cfg_.max_ways);

  const auto lanes =
      static_cast<std::size_t>(arch::kNumCoreSizes * cfg_.num_allocations());
  ways_ = lane_array(lanes, kNeverMissWays);
  rob_ = lane_array(lanes, 0);
  for (int w = cfg_.min_ways; w <= cfg_.max_ways; ++w) {
    for (int c_idx = 0; c_idx < arch::kNumCoreSizes; ++c_idx) {
      const std::size_t k = lane(c_idx, w);
      ways_[k] = static_cast<std::uint32_t>(w);
      rob_[k] =
          static_cast<std::uint32_t>(arch::core_params(arch::kAllCoreSizes[c_idx]).rob);
    }
  }
  lm_count_ = lane_array(lanes, 0);
  last_lm_index_ = lane_array(lanes, 0);
  last_ov_dist_ = lane_array(lanes, 0);
  has_lm_ = lane_array(lanes, 0);
}

template <int W>
[[gnu::always_inline]] inline void MlpAtd::observe_lanes(
    std::span<const LlcAccess> accesses, std::span<const std::uint32_t> order) {
  const auto period = static_cast<std::uint32_t>(cfg_.sample_period);
  // The instruction index is transmitted quantized: the low index_bits of the
  // dynamic instruction count (paper: 10 bits = a 1024-instruction window,
  // 4x the largest ROB).
  const auto index_mask = static_cast<std::uint32_t>(cfg_.index_window() - 1);
  const U32xW<W> mask = splat<W>(index_mask);
  const U32xW<W> count_max = splat<W>(static_cast<std::uint32_t>(cfg_.counter_max()));
  const std::uint32_t* const ways = ways_.data();
  const std::uint32_t* const rob = rob_.data();
  std::uint32_t* const lm_count = lm_count_.data();
  std::uint32_t* const last_lm_index = last_lm_index_.data();
  std::uint32_t* const last_ov_dist = last_ov_dist_.data();
  std::uint32_t* const has_lm = has_lm_.data();

  for (const std::uint32_t i : order) {
    QOSRM_DCHECK(i < accesses.size());
    const LlcAccess& access = accesses[i];
    QOSRM_DCHECK(access.set < static_cast<std::uint32_t>(cfg_.sets));
    // Every set is sampled at period 1, which spares the division.
    std::uint32_t set_idx = access.set;
    if (period != 1) {
      if (set_idx % period != 0) continue;
      set_idx /= period;
    }
    const std::uint8_t pos = sampled_sets_[set_idx].access(access.tag);

    const U32xW<W> q =
        splat<W>(static_cast<std::uint32_t>(access.inst_index) & index_mask);
    const U32xW<W> r = splat<W>(pos);
    // Lanes that hit leave their counter untouched, so only the missing
    // prefix of the w-major lanes is walked.
    const std::size_t touched = lane_blocks<W>(missing_prefix_lanes(
                                    pos, cfg_.min_ways, cfg_.max_ways,
                                    arch::kNumCoreSizes)) *
                                W;
    for (std::size_t l = 0; l < touched; l += W) {
      // Predicted to miss at allocation w <=> recency position >= w.
      const U32xW<W> miss = ~lt_small<W>(r, load<W>(ways + l));
      // Distance in the quantized index space (wraps modulo the window).
      const U32xW<W> last_lm = load<W>(last_lm_index + l);
      const U32xW<W> dist = (q - last_lm) & mask;
      // Overlapped: an LM is on record, the distance is inside the ROB
      // window and it grows past the previous OV distance (in-order
      // arrival). The last test also rejects dist == 0 (aliased), as
      // last_ov_dist >= 0. A first miss, a miss beyond the ROB and an
      // out-of-order arrival (a likely dependency on the last LM) all lead.
      const U32xW<W> had_lm = load<W>(has_lm + l);
      const U32xW<W> last_ov = load<W>(last_ov_dist + l);
      const U32xW<W> overlapped =
          miss & had_lm & lt<W>(dist, load<W>(rob + l)) & lt<W>(last_ov, dist);
      const U32xW<W> leading = miss & ~overlapped;
      const U32xW<W> count = load<W>(lm_count + l);
      // Saturating +1: a leading lane below the maximum subtracts all-ones.
      store<W>(lm_count + l, count - (leading & lt<W>(count, count_max)));
      store<W>(last_lm_index + l, select<W>(leading, q, last_lm));
      store<W>(has_lm + l, had_lm | leading);
      store<W>(last_ov_dist + l, select<W>(overlapped, dist, last_ov & ~leading));
    }
  }
}

#ifdef QOSRM_SIMD_HAVE_AVX2
__attribute__((target("avx512f"))) void MlpAtd::observe_lanes_wide(
    std::span<const LlcAccess> accesses, std::span<const std::uint32_t> order) {
  observe_lanes<simd::kWideLanes>(accesses, order);
}
#endif

void MlpAtd::observe(const LlcAccess& access) {
  const std::uint32_t only = 0;
  observe_lanes<simd::kNarrowLanes>({&access, 1}, {&only, 1});
}

void MlpAtd::observe_in_order(std::span<const LlcAccess> accesses,
                              std::span<const std::uint32_t> order, int lane_width) {
  QOSRM_CHECK_MSG(simd::lane_width_available(lane_width),
                  "lane width not compiled or not supported by this CPU");
#ifdef QOSRM_SIMD_HAVE_AVX2
  if (lane_width == simd::kWideLanes) {
    observe_lanes_wide(accesses, order);
    return;
  }
#endif
  observe_lanes<simd::kNarrowLanes>(accesses, order);
}

double MlpAtd::leading_misses(arch::CoreSize c, int w) const {
  QOSRM_CHECK(w >= cfg_.min_ways && w <= cfg_.max_ways);
  const std::size_t k = lane(arch::core_size_index(c), w);
  return static_cast<double>(lm_count_[k]) * static_cast<double>(cfg_.sample_period);
}

void MlpAtd::reset_counters() {
  for (LaneArray* regs : {&lm_count_, &last_lm_index_, &last_ov_dist_, &has_lm_}) {
    std::fill(regs->begin(), regs->end(), 0u);
  }
}

std::uint64_t MlpAtd::extension_storage_bits() const noexcept {
  // Per counter: lm_count (counter_bits) + last LM index (index_bits) +
  // last OV distance (index_bits) + 2 presence flags.
  const std::uint64_t per_counter = static_cast<std::uint64_t>(cfg_.counter_bits) +
                                    2ULL * static_cast<std::uint64_t>(cfg_.index_bits) +
                                    2ULL;
  return per_counter * static_cast<std::uint64_t>(arch::kNumCoreSizes) *
         static_cast<std::uint64_t>(cfg_.num_allocations());
}

std::size_t MlpAtd::lane(int c_idx, int w) const noexcept {
  return static_cast<std::size_t>(w - cfg_.min_ways) *
             static_cast<std::size_t>(arch::kNumCoreSizes) +
         static_cast<std::size_t>(c_idx);
}

}  // namespace qosrm::cache

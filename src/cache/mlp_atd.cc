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

  const int lanes = arch::kNumCoreSizes * cfg_.num_allocations();
  const std::size_t blocks = lane_blocks(static_cast<std::size_t>(lanes));
  ways_.assign(blocks, splat(kNeverMissWays));
  rob_.assign(blocks, splat(0));
  for (int w = cfg_.min_ways; w <= cfg_.max_ways; ++w) {
    for (int c_idx = 0; c_idx < arch::kNumCoreSizes; ++c_idx) {
      const std::size_t k = lane(c_idx, w);
      ways_[k / kLaneWidth][k % kLaneWidth] = static_cast<std::uint32_t>(w);
      rob_[k / kLaneWidth][k % kLaneWidth] =
          static_cast<std::uint32_t>(arch::core_params(arch::kAllCoreSizes[c_idx]).rob);
    }
  }
  lm_count_.assign(blocks, splat(0));
  last_lm_index_.assign(blocks, splat(0));
  last_ov_dist_.assign(blocks, splat(0));
  has_lm_.assign(blocks, splat(0));
}

void MlpAtd::observe(const LlcAccess& access) {
  QOSRM_DCHECK(access.set < static_cast<std::uint32_t>(cfg_.sets));
  if (access.set % static_cast<std::uint32_t>(cfg_.sample_period) != 0) return;

  const std::uint32_t set_idx =
      access.set / static_cast<std::uint32_t>(cfg_.sample_period);
  const std::uint8_t pos = sampled_sets_[set_idx].access(access.tag);

  // The instruction index is transmitted quantized: the low index_bits of the
  // dynamic instruction count (paper: 10 bits = a 1024-instruction window,
  // 4x the largest ROB).
  const std::uint32_t index_mask =
      static_cast<std::uint32_t>(cfg_.index_window() - 1);
  const U32x4 q = splat(static_cast<std::uint32_t>(access.inst_index) & index_mask);
  const U32x4 r = splat(pos);
  const U32x4 mask = splat(index_mask);
  const U32x4 count_max = splat(static_cast<std::uint32_t>(cfg_.counter_max()));

  // Lanes that hit leave their counter untouched, so only the missing
  // prefix of the w-major lanes is walked.
  const std::size_t touched = lane_blocks(missing_prefix_lanes(
      pos, cfg_.min_ways, cfg_.max_ways, arch::kNumCoreSizes));
  for (std::size_t b = 0; b < touched; ++b) {
    // Predicted to miss at allocation w <=> recency position >= w.
    const U32x4 miss = ~lt_small(r, ways_[b]);
    // Distance in the quantized index space (wraps modulo the window).
    const U32x4 dist = (q - last_lm_index_[b]) & mask;
    // Overlapped: an LM is on record, the distance is inside the ROB window
    // and it grows past the previous OV distance (in-order arrival). The
    // last test also rejects dist == 0 (aliased), as last_ov_dist >= 0. A
    // first miss, a miss beyond the ROB and an out-of-order arrival (a
    // likely dependency on the last LM) all lead.
    const U32x4 overlapped = miss & has_lm_[b] & lt(dist, rob_[b]) &
                             lt(last_ov_dist_[b], dist);
    const U32x4 leading = miss & ~overlapped;
    lm_count_[b] -= leading & lt(lm_count_[b], count_max);  // saturating +1
    last_lm_index_[b] = select(leading, q, last_lm_index_[b]);
    has_lm_[b] |= leading;
    last_ov_dist_[b] = select(overlapped, dist, last_ov_dist_[b] & ~leading);
  }
}

double MlpAtd::leading_misses(arch::CoreSize c, int w) const {
  QOSRM_CHECK(w >= cfg_.min_ways && w <= cfg_.max_ways);
  const std::size_t k = lane(arch::core_size_index(c), w);
  return static_cast<double>(lm_count_[k / kLaneWidth][k % kLaneWidth]) *
         static_cast<double>(cfg_.sample_period);
}

void MlpAtd::reset_counters() {
  for (std::vector<U32x4>* regs :
       {&lm_count_, &last_lm_index_, &last_ov_dist_, &has_lm_}) {
    std::fill(regs->begin(), regs->end(), splat(0));
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

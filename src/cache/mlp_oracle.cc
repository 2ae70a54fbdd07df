#include "cache/mlp_oracle.hh"

#include <algorithm>
#include <limits>

#include "cache/lanes.hh"
#include "common/check.hh"

namespace qosrm::cache {

namespace {

/// Instructions-since-last-leading-miss saturation. The per-lane distance
/// only meets `< rob`, and every ROB is far smaller, so clamping a distance
/// to this value never changes a window test, for any trace length.
constexpr std::uint32_t kSinceSaturated = 1u << 30;

/// The 32-bit clock is rebased once it passes this, so clock + one
/// (saturated) step never wraps.
constexpr std::uint32_t kRebaseAt = 1u << 31;

}  // namespace

std::array<std::vector<double>, arch::kNumCoreSizes> MlpOracle::leading_miss_curves(
    std::span<const LlcAccess> trace, std::span<const std::uint8_t> recency,
    int max_ways) {
  QOSRM_CHECK(trace.size() == recency.size());
  QOSRM_CHECK(max_ways >= 1 && max_ways < kRecencyMiss);
  QOSRM_CHECK_MSG(trace.size() < std::numeric_limits<std::uint32_t>::max(),
                  "leading-miss counts are 32-bit lanes");

  // Lane k = (w - 1) * kNumCoreSizes + c_idx; padding lanes never miss.
  constexpr std::size_t kSizes = arch::kNumCoreSizes;
  const std::size_t lanes = kSizes * static_cast<std::size_t>(max_ways);
  const std::size_t blocks = lane_blocks(lanes);
  std::vector<U32x4> ways(blocks, splat(kNeverMissWays));
  std::vector<U32x4> rob(blocks, splat(0));
  std::vector<U32x4> group_cap(blocks, splat(0));  // lsq - 1
  for (std::size_t k = 0; k < lanes; ++k) {
    const arch::CoreParams& core = arch::core_params(arch::kAllCoreSizes[k % kSizes]);
    QOSRM_CHECK(core.lsq >= 1 && core.rob >= 1 &&
                static_cast<std::uint32_t>(core.rob) <= kSinceSaturated);
    ways[k / kLaneWidth][k % kLaneWidth] = static_cast<std::uint32_t>(k / kSizes) + 1;
    rob[k / kLaneWidth][k % kLaneWidth] = static_cast<std::uint32_t>(core.rob);
    group_cap[k / kLaneWidth][k % kLaneWidth] = static_cast<std::uint32_t>(core.lsq - 1);
  }

  // Per-lane state: leading misses so far, the clock at the last leading
  // miss, and misses outstanding in the current overlap group. `clock` counts
  // instructions with each step saturated, so clock - lm_clock is the lane's
  // instructions since its last leading miss, exact below kSinceSaturated.
  // A rebase clamps larger distances to kSinceSaturated, so the clock never
  // wraps. Starting at distance kSinceSaturated = no leading miss yet.
  std::vector<U32x4> lm(blocks, splat(0));
  std::vector<U32x4> lm_clock(blocks, splat(0));
  std::vector<U32x4> group(blocks, splat(0));
  std::uint32_t clock = kSinceSaturated;

  // Recency of the previous access: 0 hits at every w, so the first access
  // is never serialized.
  std::uint32_t prev_recency = 0;
  std::uint64_t prev_inst = trace.empty() ? 0 : trace.front().inst_index;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const LlcAccess& a = trace[i];
    QOSRM_CHECK_MSG(a.inst_index >= prev_inst,
                    "oracle trace must be in program order");
    if (clock > kRebaseAt) {
      // Re-zero at clock - kSinceSaturated, clamping older leading misses to
      // that distance.
      const U32x4 base = splat(clock - kSinceSaturated);
      for (U32x4& t : lm_clock) t = select(lt(t, base), base, t) - base;
      clock = kSinceSaturated;
    }
    clock += static_cast<std::uint32_t>(
        std::min<std::uint64_t>(a.inst_index - prev_inst, kSinceSaturated));
    prev_inst = a.inst_index;

    const U32x4 r = splat(recency[i]);
    const U32x4 prev_r = splat(prev_recency);
    const U32x4 dep = splat(a.depends_on_prev ? ~0u : 0u);
    const U32x4 now = splat(clock);
    prev_recency = recency[i];

    // Lanes that hit keep their state, so only the missing prefix is walked.
    const std::size_t touched =
        lane_blocks(missing_prefix_lanes(recency[i], 1, max_ways, kSizes));
    for (std::size_t b = 0; b < touched; ++b) {
      const U32x4 miss = ~lt_small(r, ways[b]);
      // Serialized behind a producer that missed at the same w.
      const U32x4 serialized = dep & ~lt_small(prev_r, ways[b]);
      const U32x4 overlapped = miss & ~serialized & lt(now - lm_clock[b], rob[b]) &
                               lt_small(group[b], group_cap[b]);
      const U32x4 leading = miss & ~overlapped;
      lm[b] -= leading;  // all-ones lanes add 1
      group[b] = select(leading, splat(1), group[b] - overlapped);
      lm_clock[b] = select(leading, now, lm_clock[b]);
    }
  }

  std::array<std::vector<double>, arch::kNumCoreSizes> curves;
  for (std::size_t c_idx = 0; c_idx < kSizes; ++c_idx) {
    std::vector<double>& curve = curves[c_idx];
    curve.resize(static_cast<std::size_t>(max_ways));
    for (std::size_t w = 1; w <= curve.size(); ++w) {
      const std::size_t k = (w - 1) * kSizes + c_idx;
      curve[w - 1] = static_cast<double>(lm[k / kLaneWidth][k % kLaneWidth]);
    }
  }
  return curves;
}

double MlpOracle::leading_misses(std::span<const LlcAccess> trace,
                                 std::span<const std::uint8_t> recency,
                                 arch::CoreSize c, int w) {
  return leading_miss_curves(trace, recency, w)[static_cast<std::size_t>(
      arch::core_size_index(c))][static_cast<std::size_t>(w - 1)];
}

}  // namespace qosrm::cache

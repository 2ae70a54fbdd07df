// The W = 16 instantiation returns 64-byte vectors from always_inline
// helpers compiled without AVX-512F; GCC's -Wpsabi note about that ABI
// concerns no real call and is reported at the end of the instantiation,
// outside any push/pop region, so it is off for the whole file.
#pragma GCC diagnostic ignored "-Wpsabi"

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

/// Lane k = (w - 1) * kNumCoreSizes + c_idx; padding lanes never miss.
/// Constants: the lane's allocation, its core's ROB size and LSQ size - 1.
/// State: leading misses so far, the clock at the last leading miss, and
/// misses outstanding in the current overlap group.
struct OracleLanes {
  explicit OracleLanes(std::size_t lanes)
      : ways(lane_array(lanes, kNeverMissWays)),
        rob(lane_array(lanes, 0)),
        group_cap(lane_array(lanes, 0)),
        lm(lane_array(lanes, 0)),
        lm_clock(lane_array(lanes, 0)),
        group(lane_array(lanes, 0)) {}

  LaneArray ways, rob, group_cap;
  LaneArray lm, lm_clock, group;
};

/// One pass over the trace at lane width W. `clock` counts instructions
/// with each step saturated, so clock - lm_clock is the lane's instructions
/// since its last leading miss, exact below kSinceSaturated. A rebase clamps
/// larger distances to kSinceSaturated, so the clock never wraps. Starting
/// at distance kSinceSaturated = no leading miss yet.
template <int W>
[[gnu::always_inline]] inline void oracle_pass(std::span<const LlcAccess> trace,
                                               std::span<const std::uint8_t> recency,
                                               int max_ways, OracleLanes& s) {
  constexpr int kSizes = arch::kNumCoreSizes;
  const std::uint32_t* const ways = s.ways.data();
  const std::uint32_t* const rob = s.rob.data();
  const std::uint32_t* const group_cap = s.group_cap.data();
  std::uint32_t* const lm = s.lm.data();
  std::uint32_t* const lm_clock = s.lm_clock.data();
  std::uint32_t* const group = s.group.data();
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
      const U32xW<W> base = splat<W>(clock - kSinceSaturated);
      for (std::size_t l = 0; l < s.lm_clock.size(); l += W) {
        const U32xW<W> t = load<W>(lm_clock + l);
        store<W>(lm_clock + l, select<W>(lt<W>(t, base), base, t) - base);
      }
      clock = kSinceSaturated;
    }
    clock += static_cast<std::uint32_t>(
        std::min<std::uint64_t>(a.inst_index - prev_inst, kSinceSaturated));
    prev_inst = a.inst_index;

    const U32xW<W> r = splat<W>(recency[i]);
    const U32xW<W> prev_r = splat<W>(prev_recency);
    const U32xW<W> dep = splat<W>(a.depends_on_prev ? ~0u : 0u);
    const U32xW<W> now = splat<W>(clock);
    prev_recency = recency[i];

    // Lanes that hit keep their state, so only the missing prefix is walked.
    const std::size_t touched =
        lane_blocks<W>(missing_prefix_lanes(recency[i], 1, max_ways, kSizes)) * W;
    for (std::size_t l = 0; l < touched; l += W) {
      const U32xW<W> w = load<W>(ways + l);
      const U32xW<W> miss = ~lt_small<W>(r, w);
      // Serialized behind a producer that missed at the same w.
      const U32xW<W> serialized = dep & ~lt_small<W>(prev_r, w);
      const U32xW<W> g = load<W>(group + l);
      const U32xW<W> t = load<W>(lm_clock + l);
      const U32xW<W> overlapped = miss & ~serialized &
                                  lt<W>(now - t, load<W>(rob + l)) &
                                  lt_small<W>(g, load<W>(group_cap + l));
      const U32xW<W> leading = miss & ~overlapped;
      store<W>(lm + l, load<W>(lm + l) - leading);  // all-ones lanes add 1
      store<W>(group + l, select<W>(leading, splat<W>(1), g - overlapped));
      store<W>(lm_clock + l, select<W>(leading, now, t));
    }
  }
}

#ifdef QOSRM_SIMD_HAVE_AVX2
__attribute__((target("avx512f"))) void oracle_pass_wide(
    std::span<const LlcAccess> trace, std::span<const std::uint8_t> recency,
    int max_ways, OracleLanes& s) {
  oracle_pass<simd::kWideLanes>(trace, recency, max_ways, s);
}
#endif

}  // namespace

std::array<std::vector<double>, arch::kNumCoreSizes> MlpOracle::leading_miss_curves(
    std::span<const LlcAccess> trace, std::span<const std::uint8_t> recency,
    int max_ways, int lane_width) {
  QOSRM_CHECK(trace.size() == recency.size());
  QOSRM_CHECK(max_ways >= 1 && max_ways < kRecencyMiss);
  QOSRM_CHECK_MSG(trace.size() < std::numeric_limits<std::uint32_t>::max(),
                  "leading-miss counts are 32-bit lanes");
  QOSRM_CHECK_MSG(simd::lane_width_available(lane_width),
                  "lane width not compiled or not supported by this CPU");

  constexpr std::size_t kSizes = arch::kNumCoreSizes;
  const std::size_t lanes = kSizes * static_cast<std::size_t>(max_ways);
  OracleLanes s(lanes);
  for (std::size_t k = 0; k < lanes; ++k) {
    const arch::CoreParams& core = arch::core_params(arch::kAllCoreSizes[k % kSizes]);
    QOSRM_CHECK(core.lsq >= 1 && core.rob >= 1 &&
                static_cast<std::uint32_t>(core.rob) <= kSinceSaturated);
    s.ways[k] = static_cast<std::uint32_t>(k / kSizes) + 1;
    s.rob[k] = static_cast<std::uint32_t>(core.rob);
    s.group_cap[k] = static_cast<std::uint32_t>(core.lsq - 1);
  }

#ifdef QOSRM_SIMD_HAVE_AVX2
  if (lane_width == simd::kWideLanes) {
    oracle_pass_wide(trace, recency, max_ways, s);
  } else {
    oracle_pass<simd::kNarrowLanes>(trace, recency, max_ways, s);
  }
#else
  oracle_pass<simd::kNarrowLanes>(trace, recency, max_ways, s);
#endif

  std::array<std::vector<double>, arch::kNumCoreSizes> curves;
  for (std::size_t c_idx = 0; c_idx < kSizes; ++c_idx) {
    std::vector<double>& curve = curves[c_idx];
    curve.resize(static_cast<std::size_t>(max_ways));
    for (std::size_t w = 1; w <= curve.size(); ++w) {
      curve[w - 1] = static_cast<double>(s.lm[(w - 1) * kSizes + c_idx]);
    }
  }
  return curves;
}

double MlpOracle::leading_misses(std::span<const LlcAccess> trace,
                                 std::span<const std::uint8_t> recency,
                                 arch::CoreSize c, int w, int lane_width) {
  return leading_miss_curves(trace, recency, w, lane_width)[static_cast<std::size_t>(
      arch::core_size_index(c))][static_cast<std::size_t>(w - 1)];
}

}  // namespace qosrm::cache

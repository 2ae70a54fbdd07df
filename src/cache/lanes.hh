// Fixed-width 32-bit lane blocks for the per-(core size, allocation)
// leading-miss kernels (MlpOracle, MlpAtd).
//
// Both structures keep one small state machine per (c, w) pair and advance
// all of them on every access. Laying the pairs out as lanes of 4 x u32
// blocks (GCC/Clang vector extensions, SSE2 on x86-64, NEON on AArch64)
// turns the per-pair branches into mask arithmetic that the compiler emits
// as plain vector code in any translation unit, with no runtime dispatch.
// Lane counts are padded to a multiple of kLaneWidth with a lane whose
// allocation never misses (kNeverMissWays), so a padded lane never changes.
#ifndef QOSRM_CACHE_LANES_HH
#define QOSRM_CACHE_LANES_HH

#include <cstddef>
#include <cstdint>

namespace qosrm::cache {

using U32x4 = std::uint32_t __attribute__((vector_size(16)));

inline constexpr int kLaneWidth = 4;

/// An allocation no recency value reaches (recency <= kRecencyMiss = 255):
/// the padding lanes' way count.
inline constexpr std::uint32_t kNeverMissWays = 256;

/// Number of kLaneWidth blocks holding `lanes` lanes.
[[nodiscard]] constexpr std::size_t lane_blocks(std::size_t lanes) noexcept {
  return (lanes + kLaneWidth - 1) / kLaneWidth;
}

[[nodiscard]] inline U32x4 splat(std::uint32_t v) noexcept {
  return U32x4{v, v, v, v};
}

/// `a` in the lanes where `mask` is set, `b` elsewhere (`mask` lanes are
/// all-ones or zero).
[[nodiscard]] inline U32x4 select(U32x4 mask, U32x4 a, U32x4 b) noexcept {
  return (a & mask) | (b & ~mask);
}

/// Lane-wise unsigned a < b as an all-ones / zero mask.
[[nodiscard]] inline U32x4 lt(U32x4 a, U32x4 b) noexcept {
  return reinterpret_cast<U32x4>(a < b);
}

/// lt() for lanes known to be below 2^31: a signed compare, which SSE2 has
/// as one instruction (the unsigned one costs two extra bias operations).
[[nodiscard]] inline U32x4 lt_small(U32x4 a, U32x4 b) noexcept {
  using I32x4 = std::int32_t __attribute__((vector_size(16)));
  return reinterpret_cast<U32x4>(reinterpret_cast<I32x4>(a) <
                                 reinterpret_cast<I32x4>(b));
}

/// Lanes that miss at recency `recency` - allocations w in [min_ways,
/// min(recency, max_ways)] - in a w-major layout (lane = (w - min_ways) *
/// per_way + j). They form a prefix, so an access only touches the blocks
/// that prefix overlaps; every other lane hits and keeps its state.
[[nodiscard]] constexpr std::size_t missing_prefix_lanes(std::uint32_t recency,
                                                         int min_ways, int max_ways,
                                                         int per_way) noexcept {
  const int last = recency < static_cast<std::uint32_t>(max_ways)
                       ? static_cast<int>(recency)
                       : max_ways;
  return last < min_ways ? 0
                         : static_cast<std::size_t>((last - min_ways + 1) * per_way);
}

}  // namespace qosrm::cache

#endif  // QOSRM_CACHE_LANES_HH

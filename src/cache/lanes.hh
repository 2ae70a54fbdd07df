// Lane blocks for the per-(core size, allocation) leading-miss kernels
// (MlpOracle, MlpAtd).
//
// Both structures keep one small state machine per (c, w) pair and advance
// all of them on every access. Laying the pairs out as 32-bit lanes of
// W-wide blocks (GCC/Clang vector extensions) turns the per-pair branches
// into mask arithmetic. Each kernel is written once, as a template over W,
// and runs at one of two widths that simd::lane_width() picks at run time:
//
//   W = 4  - plain vector code in any translation unit (SSE2 on x86-64,
//            NEON on AArch64);
//   W = 16 - instantiated only inside __attribute__((target("avx512f")))
//            entry points, where a block is one zmm register.
//
// The helpers below are always_inline templates: a 16-lane helper never
// exists as an out-of-line copy, so its code is always generated inside
// the AVX-512F caller, and no function that a CPU without AVX-512F may run
// contains wide code. (Per-file -mavx512f would not give that: the linker
// may keep the AVX-512 copy of an inline function compiled in two files.)
// They take vectors by reference; returning a 64-byte vector from a
// function compiled without AVX-512F still draws -Wpsabi (an ABI warning
// that concerns no real call), which each file that instantiates W = 16
// turns off as a whole.
//
// Lane state lives in LaneArrays: u32 arrays padded to whole 16-lane blocks
// and 64-byte aligned, so both widths walk the same arrays. Padding lanes get
// an allocation that never misses (kNeverMissWays), so they never change.
#ifndef QOSRM_CACHE_LANES_HH
#define QOSRM_CACHE_LANES_HH

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>
#include <vector>

#include "common/simd.hh"

namespace qosrm::cache {

/// The vector type behind U32xW (GCC drops vector_size on an alias template
/// whose size depends on a template parameter, not on a member typedef).
template <int W>
struct LaneBlock {
  typedef std::uint32_t type __attribute__((vector_size(4 * W)));
};

/// One block of W u32 lanes.
template <int W>
using U32xW = typename LaneBlock<W>::type;

/// An allocation no recency value reaches (recency <= kRecencyMiss = 255):
/// the padding lanes' way count.
inline constexpr std::uint32_t kNeverMissWays = 256;

/// Number of W-lane blocks holding `lanes` lanes.
template <int W>
[[nodiscard]] constexpr std::size_t lane_blocks(std::size_t lanes) noexcept {
  return (lanes + W - 1) / W;
}

/// Allocates on 64-byte boundaries: one wide block, one cache line.
template <class T>
struct BlockAlignedAllocator {
  using value_type = T;
  static constexpr std::align_val_t kAlign{64};

  BlockAlignedAllocator() = default;
  template <class U>
  explicit BlockAlignedAllocator(const BlockAlignedAllocator<U>&) noexcept {}

  [[nodiscard]] T* allocate(std::size_t n) {
    return static_cast<T*>(::operator new(n * sizeof(T), kAlign));
  }
  void deallocate(T* p, std::size_t n) noexcept {
    ::operator delete(p, n * sizeof(T), kAlign);
  }
  friend bool operator==(const BlockAlignedAllocator&,
                         const BlockAlignedAllocator&) noexcept {
    return true;
  }
};

/// One u32 per lane, walked in blocks of either width.
using LaneArray = std::vector<std::uint32_t, BlockAlignedAllocator<std::uint32_t>>;

/// A LaneArray for `lanes` lanes, padded to whole wide blocks, every lane
/// (padding included) set to `fill`.
[[nodiscard]] inline LaneArray lane_array(std::size_t lanes, std::uint32_t fill) {
  return LaneArray(lane_blocks<simd::kWideLanes>(lanes) * simd::kWideLanes, fill);
}

template <int W>
[[gnu::always_inline]] inline U32xW<W> load(const std::uint32_t* lanes) noexcept {
  U32xW<W> v;
  std::memcpy(&v, lanes, sizeof v);
  return v;
}

template <int W>
[[gnu::always_inline]] inline void store(std::uint32_t* lanes,
                                         const U32xW<W>& v) noexcept {
  std::memcpy(lanes, &v, sizeof v);
}

template <int W>
[[gnu::always_inline]] inline U32xW<W> splat(std::uint32_t v) noexcept {
#if defined(__clang__)
  return U32xW<W>{} + v;
#else
  // One lane broadcast by an all-zero shuffle. GCC lowers the equivalent
  // U32xW<W>{} + v lane by lane when the helper's own target lacks the
  // width, and inlining does not undo that.
  return __builtin_shuffle(U32xW<W>{v}, U32xW<W>{});
#endif
}

/// `a` in the lanes where `mask` is set, `b` elsewhere (`mask` lanes are
/// all-ones or zero).
template <int W>
[[gnu::always_inline]] inline U32xW<W> select(const U32xW<W>& mask, const U32xW<W>& a,
                                              const U32xW<W>& b) noexcept {
  return (a & mask) | (b & ~mask);
}

/// Lane-wise unsigned a < b as an all-ones / zero mask.
template <int W>
[[gnu::always_inline]] inline U32xW<W> lt(const U32xW<W>& a,
                                          const U32xW<W>& b) noexcept {
  return reinterpret_cast<U32xW<W>>(a < b);
}

/// lt() for lanes known to be below 2^31: a signed compare, which SSE2 has
/// as one instruction (the unsigned one costs two extra bias operations).
template <int W>
[[gnu::always_inline]] inline U32xW<W> lt_small(const U32xW<W>& a,
                                                const U32xW<W>& b) noexcept {
  typedef std::int32_t I32xW __attribute__((vector_size(4 * W)));
  return reinterpret_cast<U32xW<W>>(reinterpret_cast<I32xW>(a) <
                                    reinterpret_cast<I32xW>(b));
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

// The unit of work for every cache-level model: one LLC access (a load that
// missed the private L1/L2 hierarchy), in program order.
#ifndef QOSRM_CACHE_ACCESS_HH
#define QOSRM_CACHE_ACCESS_HH

#include <cstdint>

namespace qosrm::cache {

/// Recency annotation value for an access that hits no recency position
/// (cold miss or beyond the maximum associativity).
inline constexpr std::uint8_t kRecencyMiss = 0xFF;

/// True if an access annotated with LRU recency position `recency` misses
/// under a w-way allocation. By the stack-inclusion property one annotation
/// answers this for every w: recency >= w (kRecencyMiss = infinity).
[[nodiscard]] constexpr bool misses_at(std::uint8_t recency, int w) noexcept {
  return recency == kRecencyMiss || static_cast<int>(recency) >= w;
}

/// One LLC access of one application, in program order.
struct LlcAccess {
  /// Cumulative dynamic instruction index of the load (program order).
  std::uint64_t inst_index = 0;
  /// LLC set index.
  std::uint32_t set = 0;
  /// Block tag (unique within the set).
  std::uint64_t tag = 0;
  /// True if this load is data-dependent on the immediately preceding load
  /// in the trace (address computed from its result, e.g. pointer chasing).
  bool depends_on_prev = false;
};

}  // namespace qosrm::cache

#endif  // QOSRM_CACHE_ACCESS_HH

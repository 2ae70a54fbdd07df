// Exact recency profiling of an access stream.
//
// Annotates every access with the LRU recency position it hits in a
// max_ways-associative cache. By the stack-inclusion property the annotation
// determines hit/miss for EVERY allocation w simultaneously:
// access misses in a w-way allocation  <=>  recency >= w (kRecencyMiss = inf).
//
// This is the ground truth the miss curves and the leading-miss counters are
// built on.
#ifndef QOSRM_CACHE_RECENCY_HH
#define QOSRM_CACHE_RECENCY_HH

#include <cstdint>
#include <span>
#include <vector>

#include "cache/access.hh"
#include "cache/lru_stack.hh"

namespace qosrm::cache {

class RecencyProfiler {
 public:
  /// `sets` LRU stacks of `max_ways` each.
  RecencyProfiler(int sets, int max_ways);

  /// Processes `trace` in the given order (empty `order` = program order) and
  /// returns the recency position of each access, indexed by trace position.
  [[nodiscard]] std::vector<std::uint8_t> annotate(
      std::span<const LlcAccess> trace, std::span<const std::uint32_t> order = {});

 private:
  std::uint8_t observe(const LlcAccess& access);

  std::vector<LruStack> sets_;
};

/// True if the annotated access misses under a w-way allocation.
[[nodiscard]] constexpr bool misses_at(std::uint8_t recency, int w) noexcept {
  return recency == kRecencyMiss || static_cast<int>(recency) >= w;
}

}  // namespace qosrm::cache

#endif  // QOSRM_CACHE_RECENCY_HH

// True-LRU recency stack for one cache set.
//
// The stack order gives each resident tag a recency position (0 = MRU).
// Because LRU has the stack-inclusion property, an access that hits position
// r hits in every cache with at least r+1 ways - the foundation for ATD-based
// miss-curve estimation (Qureshi & Patt, MICRO'06).
#ifndef QOSRM_CACHE_LRU_STACK_HH
#define QOSRM_CACHE_LRU_STACK_HH

#include <cstdint>
#include <vector>

#include "cache/access.hh"

namespace qosrm::cache {

class LruStack {
 public:
  /// Creates an empty stack with capacity `ways` (> 0).
  explicit LruStack(int ways);

  /// Looks up `tag`: returns its recency position before the access
  /// (0 = MRU) or kRecencyMiss if absent, then promotes the tag to MRU,
  /// inserting it and evicting the LRU entry if the stack is full.
  std::uint8_t access(std::uint64_t tag);

  /// Promotes the tag at recency position `pos` (< occupancy()) to MRU and
  /// returns `pos`: access(tag_at(pos)) without the tag search.
  std::uint8_t promote(int pos);

  /// Resident tag at recency position `pos` (< occupancy()).
  [[nodiscard]] std::uint64_t tag_at(int pos) const;

  [[nodiscard]] int occupancy() const noexcept { return static_cast<int>(stack_.size()); }

 private:
  int ways_;
  // MRU at front. Associativities are <= 16 in this library, so a linear
  // vector beats pointer-chasing list/maps on every relevant size.
  std::vector<std::uint64_t> stack_;
};

}  // namespace qosrm::cache

#endif  // QOSRM_CACHE_LRU_STACK_HH

#include "cache/lru_stack.hh"

#include "common/check.hh"

namespace qosrm::cache {

LruStack::LruStack(int ways) : ways_(ways) {
  QOSRM_CHECK(ways > 0 && ways < kRecencyMiss);
  stack_.reserve(static_cast<std::size_t>(ways));
}

std::uint8_t LruStack::access(std::uint64_t tag) {
  for (std::size_t i = 0; i < stack_.size(); ++i) {
    if (stack_[i] == tag) return promote(static_cast<int>(i));
  }
  // Miss: insert at MRU, evicting LRU if full.
  if (static_cast<int>(stack_.size()) == ways_) stack_.pop_back();
  stack_.insert(stack_.begin(), tag);
  return kRecencyMiss;
}

std::uint8_t LruStack::promote(int pos) {
  QOSRM_DCHECK(pos >= 0 && pos < occupancy());
  const auto i = static_cast<std::size_t>(pos);
  const std::uint64_t tag = stack_[i];
  for (std::size_t j = i; j > 0; --j) stack_[j] = stack_[j - 1];
  stack_[0] = tag;
  return static_cast<std::uint8_t>(pos);
}

std::uint64_t LruStack::tag_at(int pos) const {
  QOSRM_CHECK(pos >= 0 && pos < occupancy());
  return stack_[static_cast<std::size_t>(pos)];
}

}  // namespace qosrm::cache

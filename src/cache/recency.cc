#include "cache/recency.hh"

#include "common/check.hh"

namespace qosrm::cache {

RecencyProfiler::RecencyProfiler(int sets, int max_ways) {
  QOSRM_CHECK(sets > 0);
  sets_.reserve(static_cast<std::size_t>(sets));
  for (int i = 0; i < sets; ++i) sets_.emplace_back(max_ways);
}

std::vector<std::uint8_t> RecencyProfiler::annotate(
    std::span<const LlcAccess> trace, std::span<const std::uint32_t> order) {
  std::vector<std::uint8_t> recency(trace.size(), kRecencyMiss);
  if (order.empty()) {
    for (std::size_t i = 0; i < trace.size(); ++i) recency[i] = observe(trace[i]);
  } else {
    QOSRM_CHECK(order.size() == trace.size());
    for (const std::uint32_t pos : order) recency[pos] = observe(trace[pos]);
  }
  return recency;
}

std::uint8_t RecencyProfiler::observe(const LlcAccess& access) {
  QOSRM_DCHECK(access.set < sets_.size());
  return sets_[access.set].access(access.tag);
}

}  // namespace qosrm::cache

// Exact recency profiling of an access stream: the reference annotation.
//
// Annotates every access with the LRU recency position it hits in a
// max_ways-associative cache. By the stack-inclusion property the annotation
// determines hit/miss for EVERY allocation w simultaneously:
// access misses in a w-way allocation  <=>  recency >= w (kRecencyMiss = inf).
//
// The cold characterization reads the same annotation from the shadow
// directory of workload::synthesize_trace; the tests check it, and the
// oracle and arrival-order kernels built on it, against this profiler.
#ifndef QOSRM_TESTS_SUPPORT_RECENCY_REF_HH
#define QOSRM_TESTS_SUPPORT_RECENCY_REF_HH

#include <cstdint>
#include <span>
#include <vector>

#include "cache/access.hh"
#include "cache/lru_stack.hh"
#include "common/check.hh"

namespace qosrm::cache {

class RecencyProfiler {
 public:
  /// `sets` LRU stacks of `max_ways` each.
  RecencyProfiler(int sets, int max_ways) {
    QOSRM_CHECK(sets > 0);
    sets_.reserve(static_cast<std::size_t>(sets));
    for (int i = 0; i < sets; ++i) sets_.emplace_back(max_ways);
  }

  /// Processes `trace` in program order and returns the recency position of
  /// each access.
  [[nodiscard]] std::vector<std::uint8_t> annotate(std::span<const LlcAccess> trace) {
    std::vector<std::uint8_t> recency(trace.size(), kRecencyMiss);
    for (std::size_t i = 0; i < trace.size(); ++i) {
      QOSRM_CHECK(trace[i].set < sets_.size());
      recency[i] = sets_[trace[i].set].access(trace[i].tag);
    }
    return recency;
  }

 private:
  std::vector<LruStack> sets_;
};

}  // namespace qosrm::cache

#endif  // QOSRM_TESTS_SUPPORT_RECENCY_REF_HH

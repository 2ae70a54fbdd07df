// Scalar references for the lane-parallel leading-miss kernels: a per-(c, w)
// walk of the ground-truth oracle and the per-counter MLP-ATD heuristic with
// an array-of-structs Counter, as the library computed them before the lane
// kernels. The randomized equivalence suite checks every (c, w) count of
// cache::MlpOracle and cache::MlpAtd against these.
#ifndef QOSRM_TESTS_SUPPORT_MLP_REF_HH
#define QOSRM_TESTS_SUPPORT_MLP_REF_HH

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "arch/core_config.hh"
#include "cache/access.hh"
#include "cache/lru_stack.hh"
#include "cache/mlp_atd.hh"
#include "common/check.hh"

namespace qosrm::cache {

/// Ground-truth leading misses at (c, w): one branchy pass per allocation.
inline double ref_oracle_leading_misses(std::span<const LlcAccess> trace,
                                        std::span<const std::uint8_t> recency,
                                        arch::CoreSize c, int w) {
  QOSRM_CHECK(trace.size() == recency.size());
  const arch::CoreParams& core = arch::core_params(c);
  const std::uint64_t rob = static_cast<std::uint64_t>(core.rob);
  const int lsq = core.lsq;

  double lm = 0.0;
  bool has_last_lm = false;
  std::uint64_t last_lm_index = 0;
  int group_outstanding = 0;
  bool prev_load_missed = false;

  for (std::size_t i = 0; i < trace.size(); ++i) {
    const LlcAccess& a = trace[i];
    if (!misses_at(recency[i], w)) {
      prev_load_missed = false;
      continue;
    }
    const bool serialized = a.depends_on_prev && prev_load_missed;
    const bool within_window =
        has_last_lm && (a.inst_index - last_lm_index) < rob;
    const bool lsq_room = group_outstanding + 1 < lsq;
    if (within_window && !serialized && lsq_room) {
      ++group_outstanding;
    } else {
      lm += 1.0;
      has_last_lm = true;
      last_lm_index = a.inst_index;
      group_outstanding = 1;
    }
    prev_load_missed = true;
  }
  return lm;
}

/// The MLP-ATD heuristic with one branchy Counter per (core size,
/// allocation). Same configuration semantics and accessors as MlpAtd.
class RefMlpAtd {
 public:
  explicit RefMlpAtd(const MlpAtdConfig& config) : cfg_(config) {
    const int sampled =
        (cfg_.sets + cfg_.sample_period - 1) / cfg_.sample_period;
    for (int i = 0; i < sampled; ++i) sampled_sets_.emplace_back(cfg_.max_ways);
    counters_.assign(static_cast<std::size_t>(arch::kNumCoreSizes) *
                         static_cast<std::size_t>(cfg_.num_allocations()),
                     Counter{});
  }

  void observe(const LlcAccess& access) {
    if (access.set % static_cast<std::uint32_t>(cfg_.sample_period) != 0) return;
    const std::uint32_t set_idx =
        access.set / static_cast<std::uint32_t>(cfg_.sample_period);
    const std::uint8_t pos = sampled_sets_[set_idx].access(access.tag);
    const std::uint32_t q_index =
        static_cast<std::uint32_t>(access.inst_index) & mask();
    for (int c_idx = 0; c_idx < arch::kNumCoreSizes; ++c_idx) {
      const int rob = arch::core_params(arch::kAllCoreSizes[c_idx]).rob;
      for (int w = cfg_.min_ways; w <= cfg_.max_ways; ++w) {
        if (misses_at(pos, w)) update(counters_[index(c_idx, w)], rob, q_index);
      }
    }
  }

  [[nodiscard]] double leading_misses(arch::CoreSize c, int w) const {
    return static_cast<double>(
               counters_[index(arch::core_size_index(c), w)].lm_count) *
           static_cast<double>(cfg_.sample_period);
  }

  void reset_counters() {
    std::fill(counters_.begin(), counters_.end(), Counter{});
  }

 private:
  struct Counter {
    std::uint64_t lm_count = 0;
    std::uint32_t last_lm_index = 0;
    std::uint32_t last_ov_dist = 0;
    bool has_last_lm = false;
    bool has_ov = false;
  };

  /// Quantized-index mask, computed in 64 bits so 32-bit indices are defined.
  [[nodiscard]] std::uint32_t mask() const noexcept {
    return static_cast<std::uint32_t>((std::uint64_t{1} << cfg_.index_bits) - 1);
  }

  [[nodiscard]] std::size_t index(int c_idx, int w) const noexcept {
    return static_cast<std::size_t>(c_idx) *
               static_cast<std::size_t>(cfg_.num_allocations()) +
           static_cast<std::size_t>(w - cfg_.min_ways);
  }

  void update(Counter& ctr, int rob, std::uint32_t q_index) noexcept {
    auto count_lm = [&] {
      if (ctr.lm_count < cfg_.counter_max()) ++ctr.lm_count;
      ctr.last_lm_index = q_index;
      ctr.has_last_lm = true;
      ctr.has_ov = false;
      ctr.last_ov_dist = 0;
    };
    if (!ctr.has_last_lm) {
      count_lm();
      return;
    }
    const std::uint32_t dist = (q_index - ctr.last_lm_index) & mask();
    if (dist != 0 && dist < static_cast<std::uint32_t>(rob)) {
      if (!ctr.has_ov || dist > ctr.last_ov_dist) {
        ctr.has_ov = true;
        ctr.last_ov_dist = dist;
      } else {
        count_lm();
      }
    } else {
      count_lm();
    }
  }

  MlpAtdConfig cfg_;
  std::vector<LruStack> sampled_sets_;
  std::vector<Counter> counters_;
};

}  // namespace qosrm::cache

#endif  // QOSRM_TESTS_SUPPORT_MLP_REF_HH

#include "workload/trace_synth.hh"

#include <algorithm>
#include <array>
#include <cmath>

#include "cache/lru_stack.hh"
#include "common/check.hh"
#include "common/rng.hh"

namespace qosrm::workload {

namespace {

/// An instruction gap with the given mean is 1 + a draw of this, so
/// consecutive loads never share an index; a mean <= 1 always gives a gap
/// of 1 without consuming a random number.
GeometricDraw gap_draw(double mean) {
  return GeometricDraw(mean > 1.0 ? 1.0 / mean : 1.0);
}

}  // namespace

SynthesizedTrace synthesize_trace(const PhaseParams& phase,
                                  const TraceSynthConfig& config,
                                  std::uint64_t seed) {
  QOSRM_CHECK(config.sets > 0);
  QOSRM_CHECK(config.max_ways > 0);
  QOSRM_CHECK(phase.lpki > 0.0);
  QOSRM_CHECK(phase.burst_size >= 1.0);
  QOSRM_CHECK(phase.reuse.total() > 0.0);

  Rng rng(seed);
  const auto n_target = static_cast<std::size_t>(
      std::max(1.0, phase.lpki * config.represented_instructions / 1000.0));

  // Mean instruction budget per burst so the overall density matches lpki.
  const double mean_gap = 1000.0 / phase.lpki;
  const double intra_gap = std::min(phase.intra_gap, mean_gap);
  // Instructions consumed inside one burst of B loads: (B-1) intra gaps;
  // the remainder of the burst budget becomes the inter-burst gap.
  const double burst_budget = phase.burst_size * mean_gap;
  const double inter_gap =
      std::max(1.0, burst_budget - intra_gap * (phase.burst_size - 1.0));

  const GeometricDraw inter_gap_draw = gap_draw(inter_gap);
  const GeometricDraw intra_gap_draw = gap_draw(intra_gap);

  // Reuse-position sampling weights: 16 recency positions + cold.
  std::array<double, 17> weights{};
  for (int r = 0; r < 16; ++r) weights[static_cast<std::size_t>(r)] =
      phase.reuse.hit_weight[static_cast<std::size_t>(r)];
  weights[16] = phase.reuse.cold_weight;
  const WeightedDraw reuse_draw(weights);

  // Shadow tag directory: realizes a sampled reuse position exactly by
  // re-touching the tag at that position.
  std::vector<cache::LruStack> shadow;
  shadow.reserve(static_cast<std::size_t>(config.sets));
  for (int s = 0; s < config.sets; ++s) shadow.emplace_back(config.max_ways);

  SynthesizedTrace out;
  out.accesses.reserve(n_target);
  out.recency.reserve(n_target);

  std::uint64_t inst = 0;
  std::uint64_t next_tag = 1;  // unique cold tags

  while (out.accesses.size() < n_target) {
    const auto burst_len = static_cast<std::size_t>(std::max<std::int64_t>(
        1, rng.uniform_int(1, 2 * static_cast<std::int64_t>(
                                  std::llround(phase.burst_size)) -
                                  1)));
    for (std::size_t k = 0; k < burst_len && out.accesses.size() < n_target; ++k) {
      inst += 1 + (k == 0 ? inter_gap_draw : intra_gap_draw)(rng);

      cache::LlcAccess a;
      a.inst_index = inst;
      a.set = static_cast<std::uint32_t>(rng.uniform_u64(
          static_cast<std::uint64_t>(config.sets)));
      a.depends_on_prev = k > 0 && rng.bernoulli(phase.dep_frac);

      const std::size_t pick = reuse_draw(rng);
      cache::LruStack& stack = shadow[a.set];
      if (pick >= 16 || static_cast<int>(pick) >= stack.occupancy()) {
        a.tag = next_tag++;  // cold / first touch
        out.recency.push_back(stack.access(a.tag));
      } else {
        a.tag = stack.tag_at(static_cast<int>(pick));
        out.recency.push_back(stack.promote(static_cast<int>(pick)));
      }
      out.accesses.push_back(a);
    }
  }

  out.represented_instructions =
      std::max(config.represented_instructions, static_cast<double>(inst));
  return out;
}

}  // namespace qosrm::workload

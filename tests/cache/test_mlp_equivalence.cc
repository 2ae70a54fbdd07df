// Randomized equivalence of the lane-parallel leading-miss kernels against
// the scalar references in tests/support/mlp_ref.hh: every (core size,
// allocation) count of MlpOracle and MlpAtd must match exactly, over traces
// with dependency chains, cold misses, gaps of 2^30+ instructions, indices
// crossing 2^32, and every MLP-ATD configuration axis (set sampling, index
// width, saturating counters, min_ways > 1, mid-stream counter resets).
// Every case runs at each lane width: `Suite.Case` at the narrow width,
// which every build runs, and `SuiteWide.Case` at 16 lanes, skipped where
// the wide kernels are not compiled or the CPU lacks AVX-512F.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "cache/mlp_atd.hh"
#include "cache/mlp_oracle.hh"
#include "common/rng.hh"
#include "common/simd.hh"
#include "support/mlp_ref.hh"
#include "support/recency_ref.hh"

namespace qosrm::cache {
namespace {

/// Defines `suite.name` (narrow lanes) and `suite##Wide.name` (wide lanes)
/// over one body that reads its width from `lane_width`.
#define LANE_WIDTH_TEST(suite, name)                                      \
  void suite##_##name(int lane_width);                                    \
  TEST(suite, name) { suite##_##name(simd::kNarrowLanes); }               \
  TEST(suite##Wide, name) {                                               \
    if (!simd::lane_width_available(simd::kWideLanes)) {                  \
      GTEST_SKIP() << "16-lane kernels not compiled or not supported";    \
    }                                                                     \
    suite##_##name(simd::kWideLanes);                                     \
  }                                                                       \
  void suite##_##name(int lane_width)

struct TraceShape {
  std::uint64_t start = 0;   ///< first instruction index
  bool huge_gaps = false;    ///< sprinkle gaps of 2^30 .. 3 * 2^30
  double cold_prob = 0.2;    ///< share of never-seen tags
  double chain_prob = 0.05;  ///< chance an independent load starts a chain
  std::uint64_t max_gap = 300;  ///< ordinary gaps are 1..max_gap
};

/// Program-order trace over `sets` sets whose reused tags come from a pool
/// of 2 * max_ways per set, so hits spread over every recency position.
std::vector<LlcAccess> random_trace(Rng& rng, int n, int sets, int max_ways,
                                    const TraceShape& shape) {
  std::vector<LlcAccess> trace;
  std::uint64_t inst = shape.start;
  std::uint64_t cold_tag = 1ULL << 40;
  int chain_left = 0;
  for (int i = 0; i < n; ++i) {
    const std::uint64_t kind = rng.uniform_u64(100);
    if (shape.huge_gaps && kind < 4) {
      inst += (1ULL << 30) + rng.uniform_u64(1ULL << 31);
    } else if (kind < 30) {
      inst += rng.uniform_u64(6);  // includes equal indices
    } else {
      inst += 1 + rng.uniform_u64(shape.max_gap);  // 300 straddles every ROB
    }
    if (chain_left == 0 && rng.bernoulli(shape.chain_prob)) {
      chain_left = 1 + static_cast<int>(rng.uniform_u64(12));
    }
    const bool dep = chain_left > 0 || rng.bernoulli(0.1);
    if (chain_left > 0) --chain_left;
    const std::uint64_t tag =
        rng.bernoulli(shape.cold_prob)
            ? cold_tag++
            : rng.uniform_u64(2 * static_cast<std::uint64_t>(max_ways));
    trace.push_back({inst, static_cast<std::uint32_t>(rng.uniform_u64(
                               static_cast<std::uint64_t>(sets))),
                     tag, dep});
  }
  return trace;
}

/// Arrival order with bounded reordering: each access is displaced by up to
/// 6 positions, as an out-of-order core delivers loads to the LLC.
std::vector<std::uint32_t> jittered_order(Rng& rng, std::size_t n) {
  std::vector<std::pair<std::uint64_t, std::uint32_t>> keyed;
  for (std::size_t i = 0; i < n; ++i) {
    keyed.emplace_back(i + rng.uniform_u64(7), static_cast<std::uint32_t>(i));
  }
  std::sort(keyed.begin(), keyed.end());
  std::vector<std::uint32_t> order;
  for (const auto& [key, pos] : keyed) order.push_back(pos);
  return order;
}

void expect_oracle_matches_reference(const std::vector<LlcAccess>& trace,
                                     int sets, int max_ways, int lane_width) {
  RecencyProfiler profiler(sets, max_ways);
  const std::vector<std::uint8_t> recency = profiler.annotate(trace);
  const auto curves =
      MlpOracle::leading_miss_curves(trace, recency, max_ways, lane_width);
  for (const arch::CoreSize c : arch::kAllCoreSizes) {
    const auto& curve = curves[static_cast<std::size_t>(arch::core_size_index(c))];
    ASSERT_EQ(curve.size(), static_cast<std::size_t>(max_ways));
    for (int w = 1; w <= max_ways; ++w) {
      ASSERT_EQ(curve[static_cast<std::size_t>(w - 1)],
                ref_oracle_leading_misses(trace, recency, c, w))
          << "c=" << arch::core_size_index(c) << " w=" << w;
    }
  }
}

LANE_WIDTH_TEST(MlpOracleEquivalence, MatchesPerAllocationWalkOnRandomTraces) {
  for (const int max_ways : {1, 5, 16, 20}) {
    for (const std::uint64_t seed : {1, 2, 3}) {
      SCOPED_TRACE(::testing::Message() << "max_ways=" << max_ways << " seed=" << seed);
      Rng rng(seed * 131 + static_cast<std::uint64_t>(max_ways));
      TraceShape shape;
      shape.chain_prob = 0.02 * static_cast<double>(seed);
      // Seed 3 packs misses densely enough to fill every LSQ.
      if (seed == 3) shape.max_gap = 6;
      expect_oracle_matches_reference(random_trace(rng, 3000, 4, max_ways, shape), 4,
                                      max_ways, lane_width);
    }
  }
}

LANE_WIDTH_TEST(MlpOracleEquivalence, ExactAcrossHugeGapsAndThe32BitBoundary) {
  for (const int max_ways : {1, 5, 16, 20}) {
    SCOPED_TRACE(::testing::Message() << "max_ways=" << max_ways);
    Rng rng(77 + static_cast<std::uint64_t>(max_ways));
    TraceShape shape;
    shape.start = (1ULL << 32) - 5000;  // crosses 2^32 within the first gaps
    shape.huge_gaps = true;             // drives the clock through rebases
    expect_oracle_matches_reference(random_trace(rng, 4000, 2, max_ways, shape), 2,
                                    max_ways, lane_width);
  }
}

LANE_WIDTH_TEST(MlpOracleEquivalence, DistancesPast2To32NeverAlias) {
  // A leading miss, then a miss 2^32 + 10 instructions later: in one step,
  // and after four hits 2^30 instructions apart. The distance is far beyond
  // every ROB; a 32-bit distance (truncated indices or steps, or a wrapping
  // clock) would see 10 and overlap it.
  const std::uint64_t g = 1ULL << 30;
  const std::vector<std::vector<LlcAccess>> traces = {
      {{0, 0, 1, false}, {4 * g + 10, 0, 3, false}},
      {{0, 0, 1, false},
       {g, 0, 2, false},
       {2 * g, 0, 2, false},
       {3 * g, 0, 2, false},
       {4 * g, 0, 2, false},
       {4 * g + 10, 0, 3, false}}};
  for (const std::vector<LlcAccess>& trace : traces) {
    std::vector<std::uint8_t> recency(trace.size(), 0);
    recency.front() = recency.back() = kRecencyMiss;
    const auto curves = MlpOracle::leading_miss_curves(trace, recency, 4, lane_width);
    for (const arch::CoreSize c : arch::kAllCoreSizes) {
      for (int w = 1; w <= 4; ++w) {
        EXPECT_EQ(ref_oracle_leading_misses(trace, recency, c, w), 2.0);
        EXPECT_EQ(curves[static_cast<std::size_t>(arch::core_size_index(c))]
                        [static_cast<std::size_t>(w - 1)],
                  2.0)
            << trace.size() << " accesses";
      }
    }
  }
}

LANE_WIDTH_TEST(MlpOracleEquivalence, AllColdDependencyChains) {
  Rng rng(5);
  TraceShape shape;
  shape.cold_prob = 1.0;
  shape.chain_prob = 0.5;
  expect_oracle_matches_reference(random_trace(rng, 2000, 1, 16, shape), 1, 16,
                                  lane_width);
}

LANE_WIDTH_TEST(MlpOracleEquivalence, PointQueryIsOneCurveEntry) {
  Rng rng(9);
  const auto trace = random_trace(rng, 1500, 4, 16, TraceShape{});
  RecencyProfiler profiler(4, 16);
  const auto recency = profiler.annotate(trace);
  for (const arch::CoreSize c : arch::kAllCoreSizes) {
    for (const int w : {1, 7, 16}) {
      EXPECT_EQ(MlpOracle::leading_misses(trace, recency, c, w, lane_width),
                ref_oracle_leading_misses(trace, recency, c, w));
    }
  }
}

LANE_WIDTH_TEST(MlpOracleEquivalence, EmptyTraceHasNoLeadingMisses) {
  const auto curves = MlpOracle::leading_miss_curves({}, {}, 4, lane_width);
  for (const auto& curve : curves) {
    EXPECT_EQ(curve, std::vector<double>(4, 0.0));
  }
}

void expect_atd_matches_reference(const MlpAtd& atd, const RefMlpAtd& ref,
                                  const MlpAtdConfig& cfg) {
  for (int w = cfg.min_ways; w <= cfg.max_ways; ++w) {
    for (const arch::CoreSize c : arch::kAllCoreSizes) {
      ASSERT_EQ(atd.leading_misses(c, w), ref.leading_misses(c, w))
          << "c=" << arch::core_size_index(c) << " w=" << w;
    }
  }
}

/// Feeds one jittered arrival stream to both implementations, comparing
/// every counter at a third of the way, at a mid-stream reset_counters()
/// and at the end. The first and last thirds go through observe_in_order()
/// at `lane_width`, the middle one access by access through observe(), so
/// the lane state also carries over between widths.
void check_atd_config(const MlpAtdConfig& cfg, std::uint64_t seed,
                      const TraceShape& shape, int lane_width) {
  SCOPED_TRACE(::testing::Message()
               << "max_ways=" << cfg.max_ways << " min_ways=" << cfg.min_ways
               << " sample_period=" << cfg.sample_period
               << " index_bits=" << cfg.index_bits
               << " counter_bits=" << cfg.counter_bits << " seed=" << seed
               << " lane_width=" << lane_width);
  Rng rng(seed);
  const auto trace = random_trace(rng, 3000, cfg.sets, cfg.max_ways, shape);
  const auto order = jittered_order(rng, trace.size());
  const std::size_t third = order.size() / 3 + 1;
  const std::size_t two_thirds = 2 * order.size() / 3 + 1;
  MlpAtd atd(cfg);
  RefMlpAtd ref(cfg);
  const auto ref_observe = [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) ref.observe(trace[order[i]]);
  };

  atd.observe_in_order(trace, std::span(order).first(third), lane_width);
  ref_observe(0, third);
  expect_atd_matches_reference(atd, ref, cfg);
  for (std::size_t i = third; i < two_thirds; ++i) atd.observe(trace[order[i]]);
  ref_observe(third, two_thirds);
  expect_atd_matches_reference(atd, ref, cfg);
  atd.reset_counters();
  ref.reset_counters();
  atd.observe_in_order(trace, std::span(order).subspan(two_thirds), lane_width);
  ref_observe(two_thirds, order.size());
  expect_atd_matches_reference(atd, ref, cfg);
}

LANE_WIDTH_TEST(MlpAtdEquivalence, MatchesCounterReferenceAcrossConfigurations) {
  std::uint64_t seed = 100;
  for (const int max_ways : {1, 5, 16, 20}) {
    for (const int min_ways : {1, 3}) {
      if (min_ways > max_ways) continue;
      for (const int sample_period : {1, 4}) {
        for (const int index_bits : {4, 10, 32}) {
          MlpAtdConfig cfg;
          cfg.sets = 8;
          cfg.max_ways = max_ways;
          cfg.min_ways = min_ways;
          cfg.sample_period = sample_period;
          cfg.index_bits = index_bits;
          check_atd_config(cfg, ++seed, TraceShape{}, lane_width);
        }
      }
    }
  }
}

LANE_WIDTH_TEST(MlpAtdEquivalence, SaturatingNarrowCounters) {
  // 3000 mostly-cold accesses far apart: every miss leads, so an 8-bit
  // counter saturates at 255 long before the stream ends.
  TraceShape shape;
  shape.cold_prob = 0.9;
  shape.huge_gaps = true;
  for (const int counter_bits : {8, 32}) {
    MlpAtdConfig cfg;
    cfg.sets = 2;
    cfg.counter_bits = counter_bits;
    check_atd_config(cfg, 7, shape, lane_width);
  }
}

LANE_WIDTH_TEST(MlpAtdEquivalence, IndicesCrossing32BitsAtEveryIndexWidth) {
  TraceShape shape;
  shape.start = (1ULL << 32) - 5000;
  shape.huge_gaps = true;
  for (const int index_bits : {4, 10, 32}) {
    MlpAtdConfig cfg;
    cfg.sets = 4;
    cfg.max_ways = 16;
    cfg.index_bits = index_bits;
    check_atd_config(cfg, 11, shape, lane_width);
  }
}

}  // namespace
}  // namespace qosrm::cache

// Property tests for the classic partitioning-only baselines
// (rm/baseline_policies.hh): UCP against a brute-force optimum on small way
// counts, FCP's slowdown-equalization invariant, and the deterministic
// class-based allocation.
#include "rm/baseline_policies.hh"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <random>
#include <vector>

namespace qosrm::rm {
namespace {

using workload::PartClass;

/// Random non-increasing convex miss curve over n_alloc allocations:
/// marginal gains are positive and diminishing, the regime where greedy
/// lookahead provably matches the exhaustive optimum.
std::vector<double> convex_curve(std::mt19937& rng, int n_alloc) {
  std::uniform_real_distribution<double> gain(0.0, 10.0);
  std::vector<double> deltas(static_cast<std::size_t>(n_alloc - 1));
  for (double& d : deltas) d = gain(rng);
  std::sort(deltas.begin(), deltas.end(), std::greater<>());  // diminishing
  std::vector<double> curve(static_cast<std::size_t>(n_alloc));
  curve[0] = 100.0 + gain(rng);
  for (int i = 1; i < n_alloc; ++i) {
    curve[static_cast<std::size_t>(i)] =
        curve[static_cast<std::size_t>(i - 1)] -
        deltas[static_cast<std::size_t>(i - 1)];
  }
  return curve;
}

/// Random non-increasing (but not necessarily convex) curve.
std::vector<double> monotone_curve(std::mt19937& rng, int n_alloc) {
  std::uniform_real_distribution<double> gain(0.0, 10.0);
  std::vector<double> curve(static_cast<std::size_t>(n_alloc));
  curve[0] = 100.0 + gain(rng);
  for (int i = 1; i < n_alloc; ++i) {
    curve[static_cast<std::size_t>(i)] =
        curve[static_cast<std::size_t>(i - 1)] - gain(rng);
  }
  return curve;
}

double total_misses(const std::vector<double>& miss,
                    const std::vector<int>& ways, int min_ways, int n_alloc) {
  double total = 0.0;
  for (std::size_t j = 0; j < ways.size(); ++j) {
    total += miss[j * static_cast<std::size_t>(n_alloc) +
                  static_cast<std::size_t>(ways[j] - min_ways)];
  }
  return total;
}

/// Exhaustive minimum total misses over every partition that gives each core
/// between min_ways and max_ways with exactly `total_ways` in total.
double brute_force_min(const std::vector<double>& miss, int cores,
                       int min_ways, int max_ways, int total_ways) {
  const int n_alloc = max_ways - min_ways + 1;
  double best = std::numeric_limits<double>::infinity();
  // Odometer over every per-core allocation in [min_ways, max_ways].
  std::vector<int> ways(static_cast<std::size_t>(cores), min_ways);
  for (;;) {
    if (std::accumulate(ways.begin(), ways.end(), 0) == total_ways) {
      best = std::min(best, total_misses(miss, ways, min_ways, n_alloc));
    }
    std::size_t j = 0;
    while (j < ways.size() && ways[j] == max_ways) ways[j++] = min_ways;
    if (j == ways.size()) return best;
    ++ways[j];
  }
}

TEST(UcpPartition, MatchesBruteForceOnConvexCurves) {
  std::mt19937 rng(20260808);
  const int cores = 3, min_ways = 1, max_ways = 6;
  const int n_alloc = max_ways - min_ways + 1;
  const std::vector<std::uint8_t> active(static_cast<std::size_t>(cores), 1);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<double> miss;
    for (int j = 0; j < cores; ++j) {
      const std::vector<double> c = convex_curve(rng, n_alloc);
      miss.insert(miss.end(), c.begin(), c.end());
    }
    const int total_ways = 3 * cores + static_cast<int>(rng() % 7);  // [9, 15]
    std::vector<int> ways(static_cast<std::size_t>(cores), 0);
    ucp_partition(miss, active, min_ways, max_ways, total_ways, ways);
    const double got = total_misses(miss, ways, min_ways, n_alloc);
    const double want =
        brute_force_min(miss, cores, min_ways, max_ways, total_ways);
    EXPECT_NEAR(got, want, 1e-9 * want) << "trial " << trial;
  }
}

TEST(UcpPartition, ValidDeterministicPartitionOnMonotoneCurves) {
  std::mt19937 rng(7);
  const int cores = 4, min_ways = 2, max_ways = 8;
  const int n_alloc = max_ways - min_ways + 1;
  const std::vector<std::uint8_t> active(static_cast<std::size_t>(cores), 1);
  for (int trial = 0; trial < 100; ++trial) {
    std::vector<double> miss;
    for (int j = 0; j < cores; ++j) {
      const std::vector<double> c = monotone_curve(rng, n_alloc);
      miss.insert(miss.end(), c.begin(), c.end());
    }
    const int total_ways = 16;
    std::vector<int> ways(static_cast<std::size_t>(cores), 0);
    std::uint64_t ops = 0;
    ucp_partition(miss, active, min_ways, max_ways, total_ways, ways, &ops);
    EXPECT_EQ(std::accumulate(ways.begin(), ways.end(), 0), total_ways);
    for (const int w : ways) {
      EXPECT_GE(w, min_ways);
      EXPECT_LE(w, max_ways);
    }
    EXPECT_GT(ops, 0u);
    // Pure function of the curves: a replay lands on the same partition.
    std::vector<int> replay(static_cast<std::size_t>(cores), 0);
    ucp_partition(miss, active, min_ways, max_ways, total_ways, replay);
    EXPECT_EQ(ways, replay);
  }
}

TEST(UcpPartition, InactiveCoresPinnedAtMinimum) {
  std::mt19937 rng(11);
  const int cores = 4, min_ways = 2, max_ways = 8, total_ways = 16;
  const int n_alloc = max_ways - min_ways + 1;
  std::vector<double> miss;
  for (int j = 0; j < cores; ++j) {
    const std::vector<double> c = convex_curve(rng, n_alloc);
    miss.insert(miss.end(), c.begin(), c.end());
  }
  const std::vector<std::uint8_t> active = {1, 0, 1, 0};
  std::vector<int> ways(static_cast<std::size_t>(cores), 0);
  ucp_partition(miss, active, min_ways, max_ways, total_ways, ways);
  EXPECT_EQ(ways[1], min_ways);
  EXPECT_EQ(ways[3], min_ways);
  EXPECT_LE(ways[0] + ways[1] + ways[2] + ways[3], total_ways);
}

TEST(FcpPartition, EqualizesSlowdowns) {
  // Greedy fairness invariant: no core may end more slowed down than any
  // other core was just before receiving its last way - otherwise that way
  // should have gone to the former.
  std::mt19937 rng(20200522);
  const int cores = 4, min_ways = 2, max_ways = 10;
  const int n_alloc = max_ways - min_ways + 1;
  const std::vector<std::uint8_t> active(static_cast<std::size_t>(cores), 1);
  for (int trial = 0; trial < 100; ++trial) {
    std::vector<double> time_s;
    std::vector<double> t_ref;
    for (int j = 0; j < cores; ++j) {
      const std::vector<double> c = monotone_curve(rng, n_alloc);
      time_s.insert(time_s.end(), c.begin(), c.end());
      t_ref.push_back(50.0 + static_cast<double>(rng() % 100));
    }
    const int total_ways = 24;
    std::vector<int> ways(static_cast<std::size_t>(cores), 0);
    fcp_partition(time_s, t_ref, active, min_ways, max_ways, total_ways, ways);
    EXPECT_EQ(std::accumulate(ways.begin(), ways.end(), 0), total_ways);
    const auto slowdown = [&](int j, int w) {
      return time_s[static_cast<std::size_t>(j) *
                        static_cast<std::size_t>(n_alloc) +
                    static_cast<std::size_t>(w - min_ways)] /
             t_ref[static_cast<std::size_t>(j)];
    };
    for (int j = 0; j < cores; ++j) {
      // A core saturated at max_ways may stay more slowed down than the
      // rest - no transfer can help it - so the invariant quantifies over
      // cores that still had headroom when every other core won its ways.
      if (ways[static_cast<std::size_t>(j)] >= max_ways) continue;
      for (int k = 0; k < cores; ++k) {
        if (ways[static_cast<std::size_t>(k)] <= min_ways) continue;
        EXPECT_LE(slowdown(j, ways[static_cast<std::size_t>(j)]),
                  slowdown(k, ways[static_cast<std::size_t>(k)] - 1) + 1e-12)
            << "trial " << trial << " j=" << j << " k=" << k;
      }
    }
  }
}

TEST(ClassPartPartition, SensitiveTierSharesTheBudget) {
  const std::vector<PartClass> cls = {PartClass::Sensitive, PartClass::Light,
                                      PartClass::Sensitive,
                                      PartClass::Streaming};
  const std::vector<std::uint8_t> active(4, 1);
  std::vector<int> ways(4, 0);
  // total 32, everyone starts at 2 -> budget 24 split between cores 0 and 2
  // until they saturate at max_ways=10 (16 ways), the remaining 8 spill
  // round-robin over the light/streaming tier.
  classpart_partition(cls, active, 2, 10, 32, ways);
  EXPECT_EQ(ways[0], 10);
  EXPECT_EQ(ways[2], 10);
  EXPECT_EQ(ways[1], 6);
  EXPECT_EQ(ways[3], 6);
}

TEST(ClassPartPartition, LightAndStreamingPinnedWhileSensitiveHasHeadroom) {
  const std::vector<PartClass> cls = {PartClass::Sensitive, PartClass::Light,
                                      PartClass::Streaming,
                                      PartClass::Sensitive};
  const std::vector<std::uint8_t> active(4, 1);
  std::vector<int> ways(4, 0);
  // budget 8 fits inside the sensitive tier; light/streaming stay at min.
  classpart_partition(cls, active, 2, 16, 16, ways);
  EXPECT_EQ(ways[0], 6);
  EXPECT_EQ(ways[3], 6);
  EXPECT_EQ(ways[1], 2);
  EXPECT_EQ(ways[2], 2);
}

TEST(ClassPartPartition, AllStreamingDealsRoundRobin) {
  const std::vector<PartClass> cls(4, PartClass::Streaming);
  const std::vector<std::uint8_t> active(4, 1);
  std::vector<int> ways(4, 0);
  classpart_partition(cls, active, 2, 16, 18, ways);
  // 10 extra ways round-robin by core index: 3 for cores 0-1, 2 for 2-3.
  EXPECT_EQ(ways[0], 5);
  EXPECT_EQ(ways[1], 5);
  EXPECT_EQ(ways[2], 4);
  EXPECT_EQ(ways[3], 4);
}

TEST(ClassifyPartClass, TaxonomyMatchesTableIIRules) {
  using workload::classify_part_class;
  // Below the MPKI floor -> light, regardless of curve shape.
  EXPECT_EQ(classify_part_class(0.1, 0.5, 0.05), PartClass::Light);
  // High MPKI, flat curve -> streaming.
  EXPECT_EQ(classify_part_class(10.0, 10.5, 9.8), PartClass::Streaming);
  // High MPKI, >20% swing -> sensitive.
  EXPECT_EQ(classify_part_class(10.0, 14.0, 9.0), PartClass::Sensitive);
}

}  // namespace
}  // namespace qosrm::rm

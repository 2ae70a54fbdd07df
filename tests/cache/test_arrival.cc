#include "cache/arrival.hh"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "common/rng.hh"

namespace qosrm::cache {
namespace {

std::vector<std::uint8_t> all_miss(std::size_t n) {
  return std::vector<std::uint8_t>(n, kRecencyMiss);
}

TEST(Arrival, IndependentLoadsArriveInProgramOrder) {
  std::vector<LlcAccess> trace = {
      {10, 0, 1, false}, {20, 0, 2, false}, {30, 0, 3, false}};
  const auto order = emulate_arrival_order(trace, all_miss(3), {});
  EXPECT_EQ(order, (std::vector<std::uint32_t>{0, 1, 2}));
}

TEST(Arrival, DependentLoadBehindMissIsDelayed) {
  // Load 1 depends on load 0 (a miss): its arrival is pushed past load 2.
  std::vector<LlcAccess> trace = {
      {10, 0, 1, false}, {20, 0, 2, true}, {30, 0, 3, false}};
  ArrivalParams params;
  params.mem_latency_cycles = 200;
  params.dispatch_ipc = 2.0;
  const auto order = emulate_arrival_order(trace, all_miss(3), params);
  EXPECT_EQ(order, (std::vector<std::uint32_t>{0, 2, 1}));
}

TEST(Arrival, DependentLoadBehindHitIsNotDelayed) {
  std::vector<LlcAccess> trace = {
      {10, 0, 1, false}, {20, 0, 2, true}, {30, 0, 3, false}};
  std::vector<std::uint8_t> recency = {0, kRecencyMiss, kRecencyMiss};  // 0 hits
  const auto order = emulate_arrival_order(trace, recency, {});
  EXPECT_EQ(order, (std::vector<std::uint32_t>{0, 1, 2}));
}

TEST(Arrival, ChainDelaysAccumulate) {
  // 0 -> 1 -> 2 chained behind misses: 2 arrives after the independent 3
  // even though 3 dispatches much later.
  std::vector<LlcAccess> trace = {
      {10, 0, 1, false}, {20, 0, 2, true}, {30, 0, 3, true}, {500, 0, 4, false}};
  ArrivalParams params;
  params.mem_latency_cycles = 300;
  params.dispatch_ipc = 2.0;
  const auto order = emulate_arrival_order(trace, all_miss(4), params);
  // Dispatch cycles: 5, 10, 15, 250. Chain delays: 0, 300, 600, 0.
  // Arrival times: 5, 310, 615, 250 -> order 0, 3, 1, 2.
  EXPECT_EQ(order, (std::vector<std::uint32_t>{0, 3, 1, 2}));
}

TEST(Arrival, IndependentLoadResetsChain) {
  std::vector<LlcAccess> trace = {
      {10, 0, 1, false}, {20, 0, 2, true}, {40, 0, 3, false}, {50, 0, 4, true}};
  ArrivalParams params;
  params.mem_latency_cycles = 100;
  const auto order = emulate_arrival_order(trace, all_miss(4), params);
  // Arrivals: 5, 110, 20, 125: order 0, 2, 1, 3.
  EXPECT_EQ(order, (std::vector<std::uint32_t>{0, 2, 1, 3}));
}

TEST(Arrival, AllocationDecidesWhoMisses) {
  // With a generous allocation the producer hits, so the consumer is not
  // delayed; with a tiny one it is.
  std::vector<LlcAccess> trace = {{10, 0, 1, false},  // recency 3
                                  {20, 0, 2, true},
                                  {30, 0, 3, false}};
  std::vector<std::uint8_t> recency = {3, kRecencyMiss, kRecencyMiss};
  ArrivalParams big;
  big.ways = 8;
  EXPECT_EQ(emulate_arrival_order(trace, recency, big),
            (std::vector<std::uint32_t>{0, 1, 2}));
  ArrivalParams tiny;
  tiny.ways = 2;
  EXPECT_EQ(emulate_arrival_order(trace, recency, tiny),
            (std::vector<std::uint32_t>{0, 2, 1}));
}

TEST(Arrival, PermutationIsComplete) {
  std::vector<LlcAccess> trace;
  for (int i = 0; i < 100; ++i) {
    trace.push_back({static_cast<std::uint64_t>(10 * i + 1), 0,
                     static_cast<std::uint64_t>(i), i % 3 == 1});
  }
  const auto order = emulate_arrival_order(trace, all_miss(100), {});
  std::vector<bool> seen(100, false);
  for (const std::uint32_t pos : order) {
    ASSERT_LT(pos, 100u);
    EXPECT_FALSE(seen[pos]);
    seen[pos] = true;
  }
}

// Only the delayed loads are sorted and then merged into the on-time ones;
// the result must equal the plain stable sort by arrival time, ties in
// program order included. Half-cycle dispatch steps against a whole-cycle
// latency make equal arrival times common, and a dependence probability
// near 1 with mostly-missing loads builds chains thousands of loads deep.
TEST(Arrival, MatchesStableSortReference) {
  Rng rng(2020);
  for (const double dep_prob : {0.0, 0.3, 0.9, 0.999, 1.0}) {
    for (const double miss_prob : {0.0, 0.5, 0.97}) {
      const std::size_t n = 20000;
      std::vector<LlcAccess> trace(n);
      std::vector<std::uint8_t> recency(n);
      std::uint64_t inst = 0;
      for (std::size_t i = 0; i < n; ++i) {
        inst += rng.uniform_u64(4);  // repeated indices too
        trace[i] = {inst, 0, i, i > 0 && rng.bernoulli(dep_prob)};
        recency[i] = rng.bernoulli(miss_prob) ? kRecencyMiss : 0;
      }
      ArrivalParams params;
      params.mem_latency_cycles = 3.0;
      params.dispatch_ipc = 2.0;
      params.ways = 1;

      std::vector<double> arrival(n);
      double delay = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        if (!trace[i].depends_on_prev) {
          delay = 0.0;
        } else if (misses_at(recency[i - 1], params.ways)) {
          delay += params.mem_latency_cycles;
        }
        arrival[i] = static_cast<double>(trace[i].inst_index) / params.dispatch_ipc + delay;
      }
      std::vector<std::uint32_t> expected(n);
      std::iota(expected.begin(), expected.end(), 0u);
      std::stable_sort(expected.begin(), expected.end(),
                       [&](std::uint32_t x, std::uint32_t y) {
                         return arrival[x] < arrival[y];
                       });
      EXPECT_EQ(emulate_arrival_order(trace, recency, params), expected)
          << "dep_prob=" << dep_prob << " miss_prob=" << miss_prob;
    }
  }
}

}  // namespace
}  // namespace qosrm::cache

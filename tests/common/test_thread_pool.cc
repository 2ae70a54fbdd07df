#include "common/thread_pool.hh"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

namespace qosrm {
namespace {

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  std::vector<std::atomic<int>> hits(1000);
  parallel_for(4, hits.size(),
               [&](std::size_t, std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, EmptyRangeIsNoop) {
  std::atomic<int> calls{0};
  parallel_for(4, 0, [&](std::size_t, std::size_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 0);
}

TEST(ParallelFor, OneLaneStaysOnTheCallingThread) {
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::size_t> order;
  parallel_for(1, 50, [&](std::size_t lane, std::size_t i) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    EXPECT_EQ(lane, 0u);
    order.push_back(i);
  });
  ASSERT_EQ(order.size(), 50u);
  for (std::size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
}

TEST(ParallelFor, NeverStartsMoreThreadsThanIndices) {
  std::mutex mu;
  std::set<std::thread::id> ids;
  parallel_for(8, 3, [&](std::size_t, std::size_t) {
    const std::lock_guard<std::mutex> lock(mu);
    ids.insert(std::this_thread::get_id());
  });
  EXPECT_GE(ids.size(), 1u);
  EXPECT_LE(ids.size(), 3u);
}

TEST(ParallelFor, EachLaneIsOneThreadBelowTheLaneCount) {
  // Per-lane state indexed by `lane` needs no lock: every call with one lane
  // value comes from one thread, and the lane is below the lane count.
  constexpr std::size_t kLanes = 3;
  std::mutex mu;
  std::vector<std::set<std::thread::id>> threads_of(kLanes);
  std::vector<int> calls_of(kLanes, 0);
  std::vector<std::atomic<int>> hits(200);
  parallel_for(kLanes, hits.size(), [&](std::size_t lane, std::size_t i) {
    ASSERT_LT(lane, kLanes);
    hits[i].fetch_add(1);
    const std::lock_guard<std::mutex> lock(mu);
    threads_of[lane].insert(std::this_thread::get_id());
    ++calls_of[lane];
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  int total = 0;
  for (std::size_t lane = 0; lane < kLanes; ++lane) {
    EXPECT_LE(threads_of[lane].size(), 1u) << "lane " << lane;
    total += calls_of[lane];
  }
  EXPECT_EQ(total, 200);
  // Lane 0 is the calling thread.
  if (!threads_of[0].empty()) {
    EXPECT_EQ(*threads_of[0].begin(), std::this_thread::get_id());
  }
}

TEST(PoolThreads, CapsAtTheItemCountAndIsAtLeastOne) {
  EXPECT_EQ(pool_threads(4, 100), 4u);
  EXPECT_EQ(pool_threads(4, 2), 2u);
  EXPECT_EQ(pool_threads(4, 0), 1u);
  // 0 asks for the hardware concurrency (at least one lane).
  const std::size_t hw = std::max(1u, std::thread::hardware_concurrency());
  EXPECT_EQ(pool_threads(0, hw + 10), hw);
}

}  // namespace
}  // namespace qosrm

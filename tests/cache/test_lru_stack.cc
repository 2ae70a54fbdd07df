#include "cache/lru_stack.hh"

#include <gtest/gtest.h>

#include "common/rng.hh"

namespace qosrm::cache {
namespace {

TEST(LruStack, ColdAccessMisses) {
  LruStack s(4);
  EXPECT_EQ(s.access(1), kRecencyMiss);
  EXPECT_EQ(s.occupancy(), 1);
}

TEST(LruStack, RepeatAccessHitsMru) {
  LruStack s(4);
  s.access(1);
  EXPECT_EQ(s.access(1), 0);
}

TEST(LruStack, RecencyPositionsReflectAccessOrder) {
  LruStack s(4);
  s.access(1);
  s.access(2);
  s.access(3);
  // Stack is now [3, 2, 1]; touching 1 hits at position 2.
  EXPECT_EQ(s.access(1), 2);
  // Stack is now [1, 3, 2].
  EXPECT_EQ(s.tag_at(0), 1u);
  EXPECT_EQ(s.tag_at(1), 3u);
  EXPECT_EQ(s.tag_at(2), 2u);
}

TEST(LruStack, EvictsLeastRecentlyUsed) {
  LruStack s(2);
  s.access(1);
  s.access(2);
  s.access(3);  // evicts 1
  ASSERT_EQ(s.occupancy(), 2);
  EXPECT_EQ(s.tag_at(0), 3u);
  EXPECT_EQ(s.tag_at(1), 2u);
  EXPECT_EQ(s.access(1), kRecencyMiss);
}

TEST(LruStack, OccupancyCapsAtWays) {
  LruStack s(3);
  for (std::uint64_t t = 0; t < 10; ++t) s.access(t);
  EXPECT_EQ(s.occupancy(), 3);
}

// The stack-inclusion property is what makes ATD-based miss curves valid:
// a hit at position r in a large stack is a hit in every stack with > r ways.
TEST(LruStack, StackInclusionProperty) {
  Rng rng(123);
  LruStack big(8);
  LruStack small(3);
  for (int i = 0; i < 5000; ++i) {
    const std::uint64_t tag = rng.uniform_u64(12);
    const std::uint8_t pos_big = big.access(tag);
    const std::uint8_t pos_small = small.access(tag);
    const bool hit_small = pos_small != kRecencyMiss;
    const bool big_says_hit_small =
        pos_big != kRecencyMiss && static_cast<int>(pos_big) < 3;
    EXPECT_EQ(hit_small, big_says_hit_small) << "at access " << i;
  }
}

TEST(LruStack, SameStreamSamePositionsAcrossCapacities) {
  // Positions < min(ways) agree between differently sized stacks.
  Rng rng(7);
  LruStack a(16), b(6);
  for (int i = 0; i < 3000; ++i) {
    const std::uint64_t tag = rng.uniform_u64(10);
    const std::uint8_t pa = a.access(tag);
    const std::uint8_t pb = b.access(tag);
    if (pb != kRecencyMiss) {
      EXPECT_EQ(pa, pb);
    } else if (pa != kRecencyMiss) {
      EXPECT_GE(static_cast<int>(pa), 6);
    }
  }
}

}  // namespace
}  // namespace qosrm::cache

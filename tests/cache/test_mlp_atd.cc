#include "cache/mlp_atd.hh"

#include <gtest/gtest.h>

#include <vector>

namespace qosrm::cache {
namespace {

MlpAtdConfig tiny_config() {
  MlpAtdConfig cfg;
  cfg.sets = 1;
  cfg.max_ways = 16;
  cfg.min_ways = 1;
  cfg.index_bits = 10;
  return cfg;
}

/// Feeds accesses that ALL miss (unique tags) with the given instruction
/// indices, in the given arrival order.
void feed_misses(MlpAtd& atd, const std::vector<std::uint64_t>& inst_indices) {
  std::uint64_t tag = 1000;
  for (const std::uint64_t idx : inst_indices) {
    atd.observe({idx, 0, tag++, false});
  }
}

// ---------------------------------------------------------------------------
// Paper Fig. 4, literally: loads LD1(inst 5), LD2(inst 20), LD3(inst 33),
// LD4(inst 90); ATD arrival order LD1, LD3, LD2, LD4 (LD2 delayed by a data
// dependency on LD1). All predicted to miss.
//
//   Core S (ROB 64): LD1 LM; LD3 dist 28 < 64 -> OV; LD2 dist 15 < 28 ->
//   out-of-order -> dependency -> LM; LD4 dist 70 > 64 -> LM.   => 3 LMs
//   Core M (ROB 128): same until LD4: dist 70 < 128 -> OV.      => 2 LMs
// ---------------------------------------------------------------------------
TEST(MlpAtd, PaperFigure4WalkthroughCoreS) {
  MlpAtd atd(tiny_config());
  feed_misses(atd, {5, 33, 20, 90});
  EXPECT_DOUBLE_EQ(atd.leading_misses(arch::CoreSize::S, 16), 3.0);
}

TEST(MlpAtd, PaperFigure4WalkthroughCoreM) {
  MlpAtd atd(tiny_config());
  feed_misses(atd, {5, 33, 20, 90});
  EXPECT_DOUBLE_EQ(atd.leading_misses(arch::CoreSize::M, 16), 2.0);
}

TEST(MlpAtd, PaperFigure4WalkthroughCoreL) {
  MlpAtd atd(tiny_config());
  feed_misses(atd, {5, 33, 20, 90});
  // ROB 256: LD4 also overlaps; only LD1 and the dependent LD2 lead.
  EXPECT_DOUBLE_EQ(atd.leading_misses(arch::CoreSize::L, 16), 2.0);
}

TEST(MlpAtd, FirstMissIsAlwaysLeading) {
  MlpAtd atd(tiny_config());
  feed_misses(atd, {100});
  for (const arch::CoreSize c : arch::kAllCoreSizes) {
    EXPECT_DOUBLE_EQ(atd.leading_misses(c, 16), 1.0);
  }
}

TEST(MlpAtd, InOrderBurstWithinRobOverlaps) {
  MlpAtd atd(tiny_config());
  feed_misses(atd, {10, 20, 30, 40});  // distances 10,20,30 all < 64
  EXPECT_DOUBLE_EQ(atd.leading_misses(arch::CoreSize::S, 16), 1.0);
}

TEST(MlpAtd, BeyondRobStartsNewGroup) {
  MlpAtd atd(tiny_config());
  feed_misses(atd, {10, 100, 400});  // 90 > 64 and 300 > 256
  EXPECT_DOUBLE_EQ(atd.leading_misses(arch::CoreSize::S, 16), 3.0);
  EXPECT_DOUBLE_EQ(atd.leading_misses(arch::CoreSize::M, 16), 2.0);  // 90 < 128
  EXPECT_DOUBLE_EQ(atd.leading_misses(arch::CoreSize::L, 16), 2.0);  // 300 > 256
}

TEST(MlpAtd, OutOfOrderArrivalFlaggedAsDependencyPerCounter) {
  MlpAtd atd(tiny_config());
  // Arrival: 10, then 50 (OV dist 40), then 30 (dist 20 < 40 -> LM).
  feed_misses(atd, {10, 50, 30});
  EXPECT_DOUBLE_EQ(atd.leading_misses(arch::CoreSize::S, 16), 2.0);
}

TEST(MlpAtd, HitsDoNotTouchCounters) {
  MlpAtd atd(tiny_config());
  atd.observe({10, 0, 7, false});   // cold miss -> LM at every w
  atd.observe({20, 0, 7, false});   // hits at recency 0 -> misses nowhere
  for (int w = 1; w <= 16; ++w) {
    EXPECT_DOUBLE_EQ(atd.leading_misses(arch::CoreSize::L, w), 1.0) << w;
  }
}

TEST(MlpAtd, PerAllocationMissPredicateDiffers) {
  MlpAtd atd(tiny_config());
  // Build up a set with tags A,B; touching A at recency position 1 counts as
  // a miss for w=1 but a hit for w>=2.
  atd.observe({10, 0, 1, false});   // A cold
  atd.observe({200, 0, 2, false});  // B cold (new LM group at S, dist 190)
  atd.observe({420, 0, 1, false});  // A at recency 1: miss only for w=1
  EXPECT_DOUBLE_EQ(atd.leading_misses(arch::CoreSize::S, 1), 3.0);
  EXPECT_DOUBLE_EQ(atd.leading_misses(arch::CoreSize::S, 2), 2.0);
}

TEST(MlpAtd, IndexQuantizationAliasesLongDistances) {
  // Window = 2^10 = 1024. A distance of 1024+32 aliases to 32 < ROB, so the
  // hardware wrongly counts OV - the documented pessimism of 10-bit indices.
  MlpAtd atd(tiny_config());
  feed_misses(atd, {0, 1056});
  EXPECT_DOUBLE_EQ(atd.leading_misses(arch::CoreSize::S, 16), 1.0);

  // With more index bits the same pattern is classified correctly.
  MlpAtdConfig wide = tiny_config();
  wide.index_bits = 16;
  MlpAtd atd_wide(wide);
  feed_misses(atd_wide, {0, 1056});
  EXPECT_DOUBLE_EQ(atd_wide.leading_misses(arch::CoreSize::S, 16), 2.0);
}

TEST(MlpAtd, ResetClearsCountersKeepsTags) {
  MlpAtd atd(tiny_config());
  atd.observe({10, 0, 7, false});
  atd.reset_counters();
  EXPECT_DOUBLE_EQ(atd.leading_misses(arch::CoreSize::S, 16), 0.0);
  // Tag 7 is still resident: re-touching it is a hit, not a new LM.
  atd.observe({20, 0, 7, false});
  EXPECT_DOUBLE_EQ(atd.leading_misses(arch::CoreSize::S, 16), 0.0);
}

TEST(MlpAtd, SetSamplingScalesEstimates) {
  MlpAtdConfig cfg = tiny_config();
  cfg.sets = 4;
  cfg.sample_period = 2;  // observe sets 0 and 2
  MlpAtd atd(cfg);
  atd.observe({10, 0, 1, false});   // sampled
  atd.observe({20, 1, 2, false});   // not sampled
  atd.observe({600, 2, 3, false});  // sampled
  EXPECT_DOUBLE_EQ(atd.leading_misses(arch::CoreSize::S, 16), 2.0 * 2.0);
}

TEST(MlpAtd, CounterSaturatesAtConfiguredWidth) {
  MlpAtdConfig cfg = tiny_config();
  cfg.counter_bits = 8;  // max 255
  MlpAtd atd(cfg);
  std::uint64_t inst = 0;
  for (int i = 0; i < 300; ++i) {
    inst += 2000;  // always beyond every ROB -> every miss is leading
    atd.observe({inst, 0, 10000 + static_cast<std::uint64_t>(i), false});
  }
  EXPECT_DOUBLE_EQ(atd.leading_misses(arch::CoreSize::L, 16), 255.0);
}

TEST(MlpAtd, IndexBits32IsWellDefined) {
  // A 32-bit index keeps the full low word: the Fig. 4 stream classifies as
  // with 10 bits, and a distance of 2^32 + 32 aliases to 32 (< ROB).
  MlpAtdConfig cfg = tiny_config();
  cfg.index_bits = 32;
  EXPECT_EQ(cfg.index_window(), std::uint64_t{1} << 32);
  MlpAtd atd(cfg);
  feed_misses(atd, {5, 33, 20, 90});
  EXPECT_DOUBLE_EQ(atd.leading_misses(arch::CoreSize::S, 16), 3.0);
  EXPECT_DOUBLE_EQ(atd.leading_misses(arch::CoreSize::M, 16), 2.0);

  MlpAtd aliased(cfg);
  feed_misses(aliased, {0, (std::uint64_t{1} << 32) + 32});
  EXPECT_DOUBLE_EQ(aliased.leading_misses(arch::CoreSize::S, 16), 1.0);
}

TEST(MlpAtdDeathTest, RejectsCounterBitsOutsideLaneWidth) {
  // LM counters are 32-bit lanes; the paper's 27 bits fit, 0 would count
  // nothing and widths past 32 would overflow the lane.
  for (const int bits : {-1, 0, 7, 33, 64}) {
    MlpAtdConfig cfg = tiny_config();
    cfg.counter_bits = bits;
    EXPECT_DEATH(MlpAtd{cfg}, "counter_bits") << bits;
  }
  for (const int bits : {8, 27, 32}) {
    MlpAtdConfig cfg = tiny_config();
    cfg.counter_bits = bits;
    EXPECT_EQ(MlpAtd(cfg).config().counter_bits, bits);
  }
}

}  // namespace
}  // namespace qosrm::cache

#include "rm/global_opt.hh"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <limits>
#include <string>

#include "common/rng.hh"
#include "support/global_opt_ref.hh"

namespace qosrm::rm {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

EnergyCurve curve(int min_ways, std::vector<double> energy) {
  return {min_ways, std::move(energy)};
}

std::vector<EnergyCurve> random_curves(Rng& rng, int cores) {
  std::vector<EnergyCurve> curves;
  for (int c = 0; c < cores; ++c) {
    EnergyCurve cu;
    cu.min_ways = 1 + static_cast<int>(rng.uniform_u64(3));
    const int len = 3 + static_cast<int>(rng.uniform_u64(13));
    for (int i = 0; i < len; ++i) {
      cu.energy.push_back(rng.bernoulli(0.25) ? kInf : rng.uniform(1.0, 50.0));
    }
    curves.push_back(std::move(cu));
  }
  return curves;
}

TEST(GlobalOpt, SingleCoreTakesWholeBudget) {
  const std::vector<EnergyCurve> curves = {curve(2, {5, 4, 3, 2, 1})};
  const auto r = ref::optimize(curves, 4);
  ASSERT_TRUE(r.feasible);
  EXPECT_EQ(r.ways, (std::vector<int>{4}));
  EXPECT_DOUBLE_EQ(r.total_energy, 3.0);
}

TEST(GlobalOpt, TwoCoreConvolutionPicksMinimum) {
  // Budget 6: (2,4)=9+1=10, (3,3)=5+10=15, (4,2)=1+9=10; ties resolve
  // to the first split found (2,4).
  const std::vector<EnergyCurve> curves = {curve(2, {9, 5, 1}),
                                           curve(2, {9, 10, 1})};
  const auto r = ref::optimize(curves, 6);
  ASSERT_TRUE(r.feasible);
  EXPECT_EQ(r.ways, (std::vector<int>{2, 4}));
  EXPECT_DOUBLE_EQ(r.total_energy, 10.0);
}

TEST(GlobalOpt, InfeasibleEntriesAreSkipped) {
  const std::vector<EnergyCurve> curves = {curve(2, {kInf, 5, 1}),
                                           curve(2, {1, kInf, kInf})};
  // Budget 6: (3,3) and (2,4) hit infinities; only (4,2) = 1 + 1 works.
  const auto r = ref::optimize(curves, 6);
  ASSERT_TRUE(r.feasible);
  EXPECT_EQ(r.ways, (std::vector<int>{4, 2}));
  EXPECT_DOUBLE_EQ(r.total_energy, 2.0);
}

TEST(GlobalOpt, WhollyInfeasibleBudgetReported) {
  const std::vector<EnergyCurve> curves = {curve(2, {kInf, kInf}),
                                           curve(2, {1, 1})};
  EXPECT_FALSE(ref::optimize(curves, 5).feasible);
}

TEST(GlobalOpt, BudgetOutsideReachIsInfeasible) {
  const std::vector<EnergyCurve> curves = {curve(2, {1, 1}), curve(2, {1, 1})};
  EXPECT_FALSE(ref::optimize(curves, 3).feasible);  // min is 4
  EXPECT_FALSE(ref::optimize(curves, 7).feasible);  // max is 6
  EXPECT_TRUE(ref::optimize(curves, 4).feasible);
  EXPECT_TRUE(ref::optimize(curves, 6).feasible);
}

TEST(GlobalOpt, AllocationAlwaysSumsToBudget) {
  Rng rng(31);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<EnergyCurve> curves;
    const int cores = 2 + static_cast<int>(rng.uniform_u64(5));
    for (int c = 0; c < cores; ++c) {
      std::vector<double> e;
      for (int w = 2; w <= 16; ++w) e.push_back(rng.uniform(1.0, 100.0));
      curves.push_back(curve(2, std::move(e)));
    }
    const int budget = 8 * cores;
    const auto r = ref::optimize(curves, budget);
    ASSERT_TRUE(r.feasible);
    int total = 0;
    for (const int w : r.ways) {
      EXPECT_GE(w, 2);
      EXPECT_LE(w, 16);
      total += w;
    }
    EXPECT_EQ(total, budget);
  }
}

// The pairwise-reduction optimizer must agree with exhaustive search.
class GlobalOptVsBruteForce : public ::testing::TestWithParam<int> {};

TEST_P(GlobalOptVsBruteForce, MatchesExhaustiveSearch) {
  const int cores = GetParam();
  Rng rng(static_cast<std::uint64_t>(cores) * 7919);
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<EnergyCurve> curves;
    for (int c = 0; c < cores; ++c) {
      std::vector<double> e;
      for (int w = 2; w <= 16; ++w) {
        // Sprinkle infeasible entries to stress the backtracking.
        e.push_back(rng.bernoulli(0.15) ? kInf : rng.uniform(1.0, 50.0));
      }
      curves.push_back(curve(2, std::move(e)));
    }
    const int budget = 8 * cores;
    const auto fast = ref::optimize(curves, budget);
    const auto slow = ref::brute_force(curves, budget);
    ASSERT_EQ(fast.feasible, slow.feasible) << "trial " << trial;
    if (fast.feasible) {
      EXPECT_NEAR(fast.total_energy, slow.total_energy, 1e-9) << "trial " << trial;
      // Verify the reported allocation really attains the reported energy.
      double check = 0.0;
      for (int c = 0; c < cores; ++c) {
        check += curves[static_cast<std::size_t>(c)]
                     .energy[static_cast<std::size_t>(fast.ways[static_cast<std::size_t>(c)] - 2)];
      }
      EXPECT_NEAR(check, fast.total_energy, 1e-9);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(CoreCounts, GlobalOptVsBruteForce,
                         ::testing::Values(2, 3, 4, 5));

TEST(GlobalOpt, OpsCountGrowsPolynomially) {
  // The paper's first advantage: polynomial complexity in the core count.
  auto ops_for = [](int cores) {
    std::vector<EnergyCurve> curves(
        static_cast<std::size_t>(cores),
        curve(2, std::vector<double>(15, 1.0)));
    std::uint64_t ops = 0;
    (void)ref::optimize(curves, 8 * cores, &ops);
    return ops;
  };
  const std::uint64_t ops2 = ops_for(2);
  const std::uint64_t ops4 = ops_for(4);
  const std::uint64_t ops8 = ops_for(8);
  EXPECT_LT(ops4, ops2 * 8);
  EXPECT_LT(ops8, ops4 * 8);
  EXPECT_GT(ops4, ops2);
  EXPECT_GT(ops8, ops4);
}

// The flat-buffer reduction must reproduce the old tree reduction EXACTLY
// (feasibility, bitwise total energy, chosen ways), and agree with
// exhaustive search where that is affordable.
TEST(GlobalOptEquivalence, FlatBufferMatchesTreeAndBruteForceOnRandomCurves) {
  Rng rng(20240707);
  for (int trial = 0; trial < 300; ++trial) {
    const int cores = 1 + static_cast<int>(rng.uniform_u64(7));
    const std::vector<EnergyCurve> curves = random_curves(rng, cores);
    int sum_lo = 0;
    int sum_hi = 0;
    for (const EnergyCurve& c : curves) {
      sum_lo += c.min_ways;
      sum_hi += c.max_ways();
    }
    // Budgets straddle the reachable range so infeasible/out-of-range
    // outcomes are exercised too.
    const int budget =
        sum_lo - 1 + static_cast<int>(rng.uniform_u64(
                         static_cast<std::uint64_t>(sum_hi - sum_lo + 3)));

    const GlobalOptResult fast = ref::optimize(curves, budget);
    const GlobalOptResult tree = ref::tree_optimize(curves, budget);
    ASSERT_EQ(fast.feasible, tree.feasible) << "trial " << trial;
    if (fast.feasible) {
      EXPECT_EQ(fast.total_energy, tree.total_energy) << "trial " << trial;
      EXPECT_EQ(fast.ways, tree.ways) << "trial " << trial;
    }

    if (cores <= 4) {
      const GlobalOptResult slow = ref::brute_force(curves, budget);
      ASSERT_EQ(fast.feasible, slow.feasible) << "trial " << trial;
      if (fast.feasible) {
        EXPECT_NEAR(fast.total_energy, slow.total_energy, 1e-9)
            << "trial " << trial;
        double attained = 0.0;
        for (int c = 0; c < cores; ++c) {
          const EnergyCurve& cu = curves[static_cast<std::size_t>(c)];
          const int w = fast.ways[static_cast<std::size_t>(c)];
          ASSERT_GE(w, cu.min_ways);
          ASSERT_LE(w, cu.max_ways());
          attained += cu.energy[static_cast<std::size_t>(w - cu.min_ways)];
        }
        EXPECT_NEAR(attained, fast.total_energy, 1e-9) << "trial " << trial;
      }
    }
  }
}

// One workspace driven through many differently-shaped problems must behave
// exactly like a fresh workspace per problem: nothing of a previous
// reduction (node metadata, energies, argmin splits) may leak into the next.
TEST(GlobalOptEquivalence, WorkspaceReuseDoesNotLeakStateBetweenCalls) {
  Rng rng(42);
  GlobalOptWorkspace reused_ws;
  GlobalOptResult reused_out;
  for (int trial = 0; trial < 100; ++trial) {
    const int cores = 1 + static_cast<int>(rng.uniform_u64(6));
    const std::vector<EnergyCurve> curves = random_curves(rng, cores);
    const std::vector<EnergyCurveView> views = views_of(curves);
    int sum_lo = 0;
    int sum_hi = 0;
    for (const EnergyCurve& c : curves) {
      sum_lo += c.min_ways;
      sum_hi += c.max_ways();
    }
    const int budget =
        sum_lo + static_cast<int>(rng.uniform_u64(
                     static_cast<std::uint64_t>(sum_hi - sum_lo + 1)));

    std::uint64_t reused_ops = 0;
    GlobalOptimizer::optimize_into(views, budget, reused_ws, reused_out,
                                   &reused_ops);

    GlobalOptWorkspace fresh_ws;
    GlobalOptResult fresh_out;
    std::uint64_t fresh_ops = 0;
    GlobalOptimizer::optimize_into(views, budget, fresh_ws, fresh_out,
                                   &fresh_ops);

    ASSERT_EQ(reused_out.feasible, fresh_out.feasible) << "trial " << trial;
    EXPECT_EQ(reused_out.total_energy, fresh_out.total_energy)
        << "trial " << trial;
    EXPECT_EQ(reused_out.ways, fresh_out.ways) << "trial " << trial;
    EXPECT_EQ(reused_ops, fresh_ops) << "trial " << trial;
  }
}

// One op is one FEASIBLE-pair DP step. Hand-counted case: curve a has
// feasible entries {w=3, w=4}, b has {w=2, w=4} (2*2 = 4 steps); their
// combination covers feasible totals {5, 6, 7, 8} and c has one feasible
// entry (4*1 = 4 steps) - 8 steps in total.
TEST(GlobalOpt, OpsCountIsOneFeasiblePairPerDpStep) {
  const std::vector<EnergyCurve> curves = {curve(2, {kInf, 5, 1}),
                                           curve(2, {1, kInf, 2}),
                                           curve(2, {2, kInf})};
  std::uint64_t ops = 0;
  const auto r = ref::optimize(curves, 8, &ops);
  ASSERT_TRUE(r.feasible);
  EXPECT_EQ(ops, 8u);
}

// An infeasible LEFT entry must be charged exactly like an infeasible RIGHT
// entry (the old implementation skipped the whole inner loop uncounted for
// the former but charged the latter).
TEST(GlobalOpt, OpsCountSymmetricUnderOperandSwap) {
  const EnergyCurve holes = curve(2, {kInf, 5, kInf, 1});
  const EnergyCurve full = curve(2, {1, 2, 3, 4});
  std::uint64_t ops_ab = 0;
  std::uint64_t ops_ba = 0;
  (void)ref::optimize(std::vector<EnergyCurve>{holes, full}, 8,
                                  &ops_ab);
  (void)ref::optimize(std::vector<EnergyCurve>{full, holes}, 8,
                                  &ops_ba);
  EXPECT_EQ(ops_ab, ops_ba);
  EXPECT_EQ(ops_ab, 8u);  // 2 feasible entries x 4 feasible entries
}

// ---------------------------------------------------------------------------
// SIMD dispatch equivalence: the AVX2 kernel must reproduce the scalar
// fallback BIT FOR BIT - feasibility, total energy, chosen ways and the op
// count - across core counts, odd way counts, and degenerate feasibility
// shapes. Runs through the explicit-level optimize_into overload; on hosts
// without AVX2 the vector half is skipped (the scalar-vs-tree and
// scalar-vs-brute-force tests above still pin the fallback).

void expect_levels_bitwise_equal(const std::vector<EnergyCurve>& curves,
                                 int budget, const char* what) {
  const std::vector<EnergyCurveView> views = views_of(curves);

  GlobalOptWorkspace scalar_ws;
  GlobalOptResult scalar_out;
  std::uint64_t scalar_ops = 0;
  const int shares = ways_only_shares(views);
  GlobalOptimizer::optimize_into(views, budget, shares, {}, scalar_ws,
                                 scalar_out, &scalar_ops, simd::Level::Scalar);

  GlobalOptWorkspace avx2_ws;
  GlobalOptResult avx2_out;
  std::uint64_t avx2_ops = 0;
  GlobalOptimizer::optimize_into(views, budget, shares, {}, avx2_ws, avx2_out,
                                 &avx2_ops, simd::Level::Avx2);

  ASSERT_EQ(scalar_out.feasible, avx2_out.feasible) << what;
  EXPECT_EQ(scalar_out.total_energy, avx2_out.total_energy) << what;
  EXPECT_EQ(scalar_out.ways, avx2_out.ways) << what;
  EXPECT_EQ(scalar_ops, avx2_ops) << what;
}

class GlobalOptSimdEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(GlobalOptSimdEquivalence, RandomCurvesMatchBitwiseAcrossLevels) {
  if (!avx2_available()) GTEST_SKIP() << "AVX2 kernel unavailable";
  const int cores = GetParam();
  Rng rng(static_cast<std::uint64_t>(cores) * 104729 + 7);
  for (int trial = 0; trial < 200; ++trial) {
    const std::vector<EnergyCurve> curves = random_curves(rng, cores);
    int sum_lo = 0;
    int sum_hi = 0;
    for (const EnergyCurve& c : curves) {
      sum_lo += c.min_ways;
      sum_hi += c.max_ways();
    }
    const int budget =
        sum_lo - 1 + static_cast<int>(rng.uniform_u64(
                         static_cast<std::uint64_t>(sum_hi - sum_lo + 3)));
    expect_levels_bitwise_equal(
        curves, budget,
        ("cores=" + std::to_string(cores) + " trial=" + std::to_string(trial))
            .c_str());
  }
}

TEST_P(GlobalOptSimdEquivalence, OddWayCountsMatchBitwiseAcrossLevels) {
  if (!avx2_available()) GTEST_SKIP() << "AVX2 kernel unavailable";
  const int cores = GetParam();
  Rng rng(static_cast<std::uint64_t>(cores) * 31337 + 11);
  // Odd curve lengths leave a 1..3-element scalar tail after every 4-lane
  // chunk - the seam the dense kernel must stitch exactly.
  for (const int len : {3, 5, 7, 9, 13, 15}) {
    std::vector<EnergyCurve> curves;
    for (int c = 0; c < cores; ++c) {
      EnergyCurve cu;
      cu.min_ways = 1 + static_cast<int>(rng.uniform_u64(3));
      for (int i = 0; i < len; ++i) {
        cu.energy.push_back(rng.bernoulli(0.2) ? kInf : rng.uniform(1.0, 50.0));
      }
      curves.push_back(std::move(cu));
    }
    int sum_lo = 0;
    int sum_hi = 0;
    for (const EnergyCurve& c : curves) {
      sum_lo += c.min_ways;
      sum_hi += c.max_ways();
    }
    for (int budget = sum_lo - 1; budget <= sum_hi + 1; ++budget) {
      expect_levels_bitwise_equal(
          curves, budget,
          ("cores=" + std::to_string(cores) + " len=" + std::to_string(len) +
           " budget=" + std::to_string(budget))
              .c_str());
    }
  }
}

TEST_P(GlobalOptSimdEquivalence, DegenerateFeasibilityTailsMatchAcrossLevels) {
  if (!avx2_available()) GTEST_SKIP() << "AVX2 kernel unavailable";
  const int cores = GetParam();

  // All-infeasible: every curve entry is infinite.
  {
    std::vector<EnergyCurve> curves(
        static_cast<std::size_t>(cores),
        curve(2, std::vector<double>(9, kInf)));
    expect_levels_bitwise_equal(curves, 5 * cores, "all-infeasible");
  }

  // One core all-infeasible, the rest feasible: the whole problem is
  // infeasible but the op accounting still covers the feasible combines.
  {
    std::vector<EnergyCurve> curves(
        static_cast<std::size_t>(cores),
        curve(2, std::vector<double>{4.0, 3.0, 2.0, 1.0, 2.0}));
    curves.back() = curve(2, std::vector<double>(5, kInf));
    expect_levels_bitwise_equal(curves, 4 * cores, "one-core-infeasible");
  }

  // Single feasible entry per curve, at the END of the row (the tail lane):
  // exactly one allocation is reachable.
  {
    std::vector<EnergyCurve> curves;
    for (int c = 0; c < cores; ++c) {
      std::vector<double> e(7, kInf);
      e.back() = 1.0 + c;
      curves.push_back(curve(2, std::move(e)));
    }
    expect_levels_bitwise_equal(curves, 8 * cores, "single-feasible-tail");
  }

  // Single feasible entry at the FRONT (lane 0 of the first chunk).
  {
    std::vector<EnergyCurve> curves;
    for (int c = 0; c < cores; ++c) {
      std::vector<double> e(7, kInf);
      e.front() = 1.0 + c;
      curves.push_back(curve(3, std::move(e)));
    }
    expect_levels_bitwise_equal(curves, 3 * cores, "single-feasible-front");
  }
}

// Leaves up to 40 ways wide, so a node's output rows span several 16-cell
// blocks of the vector kernel and end on every kind of seam: lengths are
// drawn so that pair spans (na + nb - 1) land on 0, 1 and 15 mod 16. Rows
// carry infinite holes inside their feasible spans, and some leaves are
// entirely infeasible. Core counts reach 4x the parameter (up to 64).
TEST_P(GlobalOptSimdEquivalence, WideLeavesSpanSeveralKernelBlocks) {
  if (!avx2_available()) GTEST_SKIP() << "AVX2 kernel unavailable";
  constexpr int kLengths[] = {8, 9, 16, 17, 24, 25, 33, 40};
  for (const int cores : {GetParam(), 4 * GetParam()}) {
    Rng rng(static_cast<std::uint64_t>(cores) * 7727 + 19);
    for (int trial = 0; trial < 24; ++trial) {
      std::vector<EnergyCurve> curves;
      for (int c = 0; c < cores; ++c) {
        EnergyCurve cu;
        cu.min_ways = 1 + static_cast<int>(rng.uniform_u64(3));
        const int len = kLengths[rng.uniform_u64(std::size(kLengths))];
        const bool dead = trial % 8 == 7 && c == cores / 2;
        for (int i = 0; i < len; ++i) {
          cu.energy.push_back(dead || rng.bernoulli(0.15) ? kInf
                                                         : rng.uniform(1.0, 50.0));
        }
        curves.push_back(std::move(cu));
      }
      int sum_lo = 0;
      int sum_hi = 0;
      for (const EnergyCurve& c : curves) {
        sum_lo += c.min_ways;
        sum_hi += c.max_ways();
      }
      const int budget =
          sum_lo + static_cast<int>(rng.uniform_u64(
                       static_cast<std::uint64_t>(sum_hi - sum_lo + 1)));
      expect_levels_bitwise_equal(
          curves, budget,
          ("cores=" + std::to_string(cores) + " trial=" + std::to_string(trial))
              .c_str());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(CoreCounts, GlobalOptSimdEquivalence,
                         ::testing::Values(2, 4, 8, 16));

// The root evaluates only its target cell, four pairs at a time under AVX2
// with a scalar tail. Two-leaf problems make the root the only combine, so
// every budget reads the vector root cell directly: row spans from 1 cell
// (shorter than one vector) to 11, with infinite holes inside them, one or
// three share rows, and energies drawn from a few integers so that many
// pairs tie on the minimum. Every budget in and around the reachable range
// must give the scalar result bit for bit: energy, split and ops.
TEST(GlobalOptSimdEquivalence, RootCellMatchesScalarOnShortAndHoledSpans) {
  if (!avx2_available()) GTEST_SKIP() << "AVX2 kernel unavailable";
  Rng rng(4242);
  int vector_budgets = 0;
  for (int trial = 0; trial < 300; ++trial) {
    const int num_shares = trial % 2 == 0 ? 1 : 3;
    const bool ties = trial % 3 == 0;
    std::vector<EnergyCurve> curves;
    for (int c = 0; c < 2; ++c) {
      EnergyCurve cu;
      cu.min_ways = 1 + static_cast<int>(rng.uniform_u64(2));
      cu.num_shares = num_shares;
      const int len = 1 + static_cast<int>(rng.uniform_u64(11));
      for (int i = 0; i < len * num_shares; ++i) {
        const bool hole = rng.bernoulli(0.25);
        const double e = ties ? static_cast<double>(1 + rng.uniform_u64(3))
                              : rng.uniform(1.0, 50.0);
        cu.energy.push_back(hole ? kInf : e);
      }
      curves.push_back(std::move(cu));
    }
    const std::vector<EnergyCurveView> views = views_of(curves);
    const int w_lo = curves[0].min_ways + curves[1].min_ways;
    const int w_hi = curves[0].max_ways() + curves[1].max_ways();
    const int b_lo = curves[0].min_shares + curves[1].min_shares;
    const int b_hi = curves[0].max_shares() + curves[1].max_shares();
    vector_budgets += std::min(curves[0].num_ways(), curves[1].num_ways()) >= 4 ? 1 : 0;
    for (int shares = b_lo - 1; shares <= b_hi + 1; ++shares) {
      for (int ways = w_lo - 1; ways <= w_hi + 1; ++ways) {
        const std::string what = "trial=" + std::to_string(trial) +
                                 " ways=" + std::to_string(ways) +
                                 " shares=" + std::to_string(shares);
        GlobalOptWorkspace scalar_ws;
        GlobalOptResult scalar_out;
        std::uint64_t scalar_ops = 0;
        GlobalOptimizer::optimize_into(views, ways, shares, {}, scalar_ws, scalar_out,
                                       &scalar_ops, simd::Level::Scalar);
        GlobalOptWorkspace avx2_ws;
        GlobalOptResult avx2_out;
        std::uint64_t avx2_ops = 0;
        GlobalOptimizer::optimize_into(views, ways, shares, {}, avx2_ws, avx2_out,
                                       &avx2_ops, simd::Level::Avx2);
        ASSERT_EQ(scalar_out.feasible, avx2_out.feasible) << what;
        EXPECT_EQ(std::bit_cast<std::uint64_t>(scalar_out.total_energy),
                  std::bit_cast<std::uint64_t>(avx2_out.total_energy))
            << what;
        EXPECT_EQ(scalar_out.ways, avx2_out.ways) << what;
        EXPECT_EQ(scalar_out.shares, avx2_out.shares) << what;
        EXPECT_EQ(scalar_ops, avx2_ops) << what;
      }
    }
  }
  EXPECT_GT(vector_budgets, 0);  // some problems reach the 4-lane loop
}

// Single-row nodes take the store-mode kernel: it writes a node's span
// outright, counts the finite cells in the same pass and splits a block's
// left cells over two accumulator sets once there are enough of them. Leaf
// 0's feasible span takes every length from 1 to 40, so node (0, 1) and
// the nodes above it see left spans on both sides of the two-chain
// threshold and of every block seam; the other leaves mix infinite holes,
// 1-cell spans, all-+inf rows and hole-free spans. After a from-scratch
// call at each dispatch level, every node must match the plain reduction
// (spans, counts, every cell bit for bit, +inf outside the spans), and
// the outcome and ops must be the reference's at budgets across the
// reachable range.
EnergyCurve store_mode_leaf(Rng& rng, int span_len) {
  EnergyCurve cu;
  cu.min_ways = 1 + static_cast<int>(rng.uniform_u64(3));
  const auto value = [&rng] {
    return rng.bernoulli(0.3) ? static_cast<double>(1 + rng.uniform_u64(4))
                              : rng.uniform(1.0, 50.0);
  };
  if (span_len > 0) {  // exactly span_len cells from first to last feasible
    const int first = static_cast<int>(rng.uniform_u64(4));
    cu.energy.assign(static_cast<std::size_t>(first + span_len +
                                              static_cast<int>(rng.uniform_u64(4))),
                     kInf);
    for (int k = 0; k < span_len; ++k) {
      const bool end = k == 0 || k == span_len - 1;
      cu.energy[static_cast<std::size_t>(first + k)] =
          end || !rng.bernoulli(0.15) ? value() : kInf;
    }
    return cu;
  }
  const int width = 1 + static_cast<int>(rng.uniform_u64(40));
  cu.energy.assign(static_cast<std::size_t>(width), kInf);
  switch (rng.uniform_u64(4)) {
    case 0:  // infinite holes anywhere
      for (double& e : cu.energy) e = rng.bernoulli(0.2) ? kInf : value();
      break;
    case 1:  // a 1-cell span
      cu.energy[rng.uniform_u64(static_cast<std::uint64_t>(width))] = value();
      break;
    case 2:  // all +inf
      break;
    default: {  // a hole-free span
      const int first = static_cast<int>(rng.uniform_u64(static_cast<std::uint64_t>(width)));
      const int last = first + static_cast<int>(rng.uniform_u64(
                                   static_cast<std::uint64_t>(width - first)));
      for (int w = first; w <= last; ++w) cu.energy[static_cast<std::size_t>(w)] = value();
    }
  }
  return cu;
}

TEST(GlobalOptStoreMode, NodesMatchThePlainReductionForEveryLeftSpanLength) {
  Rng rng(90210);
  int feasible_budgets = 0;
  for (int span_len = 1; span_len <= 40; ++span_len) {
    for (const int cores : {2, 3, 4, 5, 8}) {
      std::vector<EnergyCurve> curves;
      curves.push_back(store_mode_leaf(rng, span_len));
      for (int c = 1; c < cores; ++c) curves.push_back(store_mode_leaf(rng, 0));
      std::uint64_t ref_ops = 0;
      const std::vector<ref::Node> nodes = ref::reduce_tree(curves, &ref_ops);
      const std::vector<EnergyCurveView> views = views_of(curves);
      const int shares = ways_only_shares(views);
      const int w_lo = nodes.back().lo;
      const int w_hi = w_lo + nodes.back().size - 1;
      for (const simd::Level level : {simd::Level::Scalar, simd::Level::Avx2}) {
        if (level == simd::Level::Avx2 && !avx2_available()) continue;
        for (int q = 0; q <= 4; ++q) {
          const int budget = w_lo + (w_hi - w_lo) * q / 4;
          const std::string what = "span_len=" + std::to_string(span_len) +
                                   " cores=" + std::to_string(cores) +
                                   " level=" + simd::level_name(level) +
                                   " budget=" + std::to_string(budget);
          GlobalOptWorkspace ws;
          GlobalOptResult got;
          std::uint64_t ops = 0;
          GlobalOptimizer::optimize_into(views, budget, shares, {}, ws, got, &ops, level);
          EXPECT_EQ(first_node_mismatch(ws, nodes), "") << what;
          const GlobalOptResult expect = ref::backtrack(nodes, budget, shares);
          ASSERT_EQ(got.feasible, expect.feasible) << what;
          EXPECT_EQ(std::bit_cast<std::uint64_t>(got.total_energy),
                    std::bit_cast<std::uint64_t>(expect.total_energy))
              << what;
          EXPECT_EQ(got.ways, expect.ways) << what;
          EXPECT_EQ(got.shares, expect.shares) << what;
          EXPECT_EQ(ops, ref_ops) << what;
          feasible_budgets += got.feasible ? 1 : 0;
        }
      }
    }
  }
  EXPECT_GT(feasible_budgets, 0);
}

// The kernels may visit a cell's pairs in any order because no cell of the
// tree is -0: the leaf copy maps -0 to +0. Leaves full of +0 and -0 cells
// (and small integers, so that many pairs tie) must give the same
// decision, ops and energy bits at both dispatch levels as the same leaves
// with every -0 written as +0.
TEST(GlobalOptStoreMode, NegativeZeroCellsDecideAlikeAtBothLevels) {
  if (!avx2_available()) GTEST_SKIP() << "AVX2 kernel unavailable";
  Rng rng(2718);
  int negative_zeros = 0;
  for (int trial = 0; trial < 100; ++trial) {
    const int cores = std::array{2, 3, 4, 8, 16}[static_cast<std::size_t>(trial % 5)];
    std::vector<EnergyCurve> curves;
    std::vector<EnergyCurve> positive;
    for (int c = 0; c < cores; ++c) {
      EnergyCurve cu;
      cu.min_ways = 1 + static_cast<int>(rng.uniform_u64(2));
      const int width = 4 + static_cast<int>(rng.uniform_u64(37));
      for (int w = 0; w < width; ++w) {
        const std::uint64_t kind = rng.uniform_u64(5);
        cu.energy.push_back(kind == 0   ? -0.0
                            : kind == 1 ? 0.0
                            : kind == 2 ? kInf
                                        : static_cast<double>(kind - 2));
        negative_zeros += kind == 0 ? 1 : 0;
      }
      positive.push_back(cu);
      for (double& e : positive.back().energy) e = e == 0.0 ? 0.0 : e;
      curves.push_back(std::move(cu));
    }
    const std::vector<EnergyCurveView> views = views_of(curves);
    const std::vector<EnergyCurveView> positive_views = views_of(positive);
    const int shares = ways_only_shares(views);
    int w_lo = 0;
    int w_hi = 0;
    for (const EnergyCurve& c : curves) {
      w_lo += c.min_ways;
      w_hi += c.max_ways();
    }
    for (int budget = w_lo; budget <= w_hi; budget += 1 + (w_hi - w_lo) / 8) {
      const std::string what =
          "trial=" + std::to_string(trial) + " budget=" + std::to_string(budget);
      GlobalOptResult expect;
      std::uint64_t expect_ops = 0;
      GlobalOptWorkspace expect_ws;
      GlobalOptimizer::optimize_into(positive_views, budget, shares, {}, expect_ws, expect,
                                     &expect_ops, simd::Level::Scalar);
      for (const simd::Level level : {simd::Level::Scalar, simd::Level::Avx2}) {
        GlobalOptWorkspace ws;
        GlobalOptResult got;
        std::uint64_t ops = 0;
        GlobalOptimizer::optimize_into(views, budget, shares, {}, ws, got, &ops, level);
        ASSERT_EQ(got.feasible, expect.feasible) << what;
        EXPECT_EQ(std::bit_cast<std::uint64_t>(got.total_energy),
                  std::bit_cast<std::uint64_t>(expect.total_energy))
            << what << " level=" << simd::level_name(level);
        EXPECT_EQ(got.ways, expect.ways) << what;
        EXPECT_EQ(ops, expect_ops) << what;
      }
    }
  }
  EXPECT_GT(negative_zeros, 0);
}

TEST(GlobalOpt, PrefersFeasibleEvenSplitWhenSymmetric) {
  // Identical strictly convex curves: the even split is optimal.
  std::vector<double> e;
  for (int w = 2; w <= 16; ++w) {
    e.push_back((w - 8.0) * (w - 8.0));
  }
  const std::vector<EnergyCurve> curves = {curve(2, e), curve(2, e),
                                           curve(2, e), curve(2, e)};
  const auto r = ref::optimize(curves, 32);
  ASSERT_TRUE(r.feasible);
  EXPECT_EQ(r.ways, (std::vector<int>{8, 8, 8, 8}));
}

}  // namespace
}  // namespace qosrm::rm

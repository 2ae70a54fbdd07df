// 2-D (ways x bandwidth-shares) generalization of the global optimizer,
// pinned three ways:
//
//   1. DEGENERACY - with every surface a single share row, the 2-D reduction
//      must reproduce the pre-CBP 1-D optimizer bit for bit. The oracle below
//      is the pre-workspace tree reduction kept verbatim (the same oracle the
//      flat-buffer rewrite was pinned against), so any drift in values, tie
//      breaking or pair order fails here.
//   2. CORRECTNESS - on genuinely 2-D random surfaces the reduction must
//      agree with exhaustive search over all (ways, shares) splits.
//   3. DISPATCH - the AVX2 kernel must match the scalar fallback bit for bit
//      on 2-D inputs too (per-row feasible spans, row seams, empty rows).
#include "rm/global_opt.hh"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <iterator>
#include <limits>
#include <memory>
#include <string>

#include "common/rng.hh"
#include "support/global_opt_ref.hh"

namespace qosrm::rm {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// ---------------------------------------------------------------------------
// Verbatim pre-refactor 1-D oracle (heap-allocated tree reduction, strict-less
// tie-breaking, ascending-wa pair order). Deliberately NOT shared with the
// production code or the other test file: it is the frozen reference.
struct TreeNode {
  int lo = 0;
  std::vector<double> energy;
  std::vector<int> left_ways;
  int first_core = 0;
  int last_core = 0;
  std::unique_ptr<TreeNode> left;
  std::unique_ptr<TreeNode> right;

  [[nodiscard]] int hi() const noexcept {
    return lo + static_cast<int>(energy.size()) - 1;
  }
};

std::unique_ptr<TreeNode> tree_leaf(const EnergyCurve& curve, int core) {
  auto node = std::make_unique<TreeNode>();
  node->lo = curve.min_ways;
  node->energy = curve.energy;
  node->first_core = core;
  node->last_core = core;
  return node;
}

std::unique_ptr<TreeNode> tree_combine(std::unique_ptr<TreeNode> a,
                                       std::unique_ptr<TreeNode> b) {
  auto node = std::make_unique<TreeNode>();
  node->lo = a->lo + b->lo;
  const int hi = a->hi() + b->hi();
  const auto size = static_cast<std::size_t>(hi - node->lo + 1);
  node->energy.assign(size, kInf);
  node->left_ways.assign(size, -1);
  node->first_core = a->first_core;
  node->last_core = b->last_core;
  for (int wa = a->lo; wa <= a->hi(); ++wa) {
    const double ea = a->energy[static_cast<std::size_t>(wa - a->lo)];
    if (std::isinf(ea)) continue;
    for (int wb = b->lo; wb <= b->hi(); ++wb) {
      const double eb = b->energy[static_cast<std::size_t>(wb - b->lo)];
      if (std::isinf(eb)) continue;
      const std::size_t idx = static_cast<std::size_t>(wa + wb - node->lo);
      if (ea + eb < node->energy[idx]) {
        node->energy[idx] = ea + eb;
        node->left_ways[idx] = wa;
      }
    }
  }
  node->left = std::move(a);
  node->right = std::move(b);
  return node;
}

void tree_backtrack(const TreeNode& node, int total, std::vector<int>& ways) {
  if (!node.left) {
    ways[static_cast<std::size_t>(node.first_core)] = total;
    return;
  }
  const int wl = node.left_ways[static_cast<std::size_t>(total - node.lo)];
  ASSERT_GE(wl, 0);
  tree_backtrack(*node.left, wl, ways);
  tree_backtrack(*node.right, total - wl, ways);
}

GlobalOptResult tree_optimize(std::span<const EnergyCurve> curves,
                              int total_ways) {
  std::vector<std::unique_ptr<TreeNode>> level;
  level.reserve(curves.size());
  for (std::size_t i = 0; i < curves.size(); ++i) {
    level.push_back(tree_leaf(curves[i], static_cast<int>(i)));
  }
  while (level.size() > 1) {
    std::vector<std::unique_ptr<TreeNode>> next;
    for (std::size_t i = 0; i + 1 < level.size(); i += 2) {
      next.push_back(tree_combine(std::move(level[i]), std::move(level[i + 1])));
    }
    if (level.size() % 2 == 1) next.push_back(std::move(level.back()));
    level = std::move(next);
  }
  const TreeNode& root = *level.front();
  GlobalOptResult result;
  if (total_ways < root.lo || total_ways > root.hi()) return result;
  const double e = root.energy[static_cast<std::size_t>(total_ways - root.lo)];
  if (std::isinf(e)) return result;
  result.feasible = true;
  result.total_energy = e;
  result.ways.assign(curves.size(), 0);
  tree_backtrack(root, total_ways, result.ways);
  return result;
}

// ---------------------------------------------------------------------------
// Generators and helpers.

EnergyCurve random_surface(Rng& rng, int num_ways, int num_shares,
                           double p_inf) {
  EnergyCurve cu;
  cu.min_ways = 1 + static_cast<int>(rng.uniform_u64(3));
  cu.min_shares = 1 + static_cast<int>(rng.uniform_u64(2));
  cu.num_shares = num_shares;
  for (int i = 0; i < num_ways * num_shares; ++i) {
    cu.energy.push_back(rng.bernoulli(p_inf) ? kInf : rng.uniform(1.0, 50.0));
  }
  return cu;
}

double attained_energy(const std::vector<EnergyCurve>& curves,
                       const GlobalOptResult& r) {
  double total = 0.0;
  for (std::size_t c = 0; c < curves.size(); ++c) {
    const EnergyCurve& cu = curves[c];
    const int w = r.ways[c];
    const int b = r.shares[c];
    EXPECT_GE(w, cu.min_ways);
    EXPECT_LE(w, cu.max_ways());
    EXPECT_GE(b, cu.min_shares);
    EXPECT_LE(b, cu.max_shares());
    total += cu.energy[static_cast<std::size_t>(
        (b - cu.min_shares) * cu.num_ways() + (w - cu.min_ways))];
  }
  return total;
}

bool avx2_available() {
  return simd::avx2_compiled() && simd::avx2_supported();
}

// ---------------------------------------------------------------------------
// 1. Degeneracy: single-share surfaces through the 2-D entry points must be
//    the 1-D optimizer, bit for bit, at every dispatch level.

class GlobalOpt2dDegenerate : public ::testing::TestWithParam<int> {};

TEST_P(GlobalOpt2dDegenerate, SingleShareRowMatchesOneDOracleBitwise) {
  const int cores = GetParam();
  Rng rng(static_cast<std::uint64_t>(cores) * 60013 + 1);
  for (int trial = 0; trial < 150; ++trial) {
    std::vector<EnergyCurve> curves;
    int share_budget = 0;
    for (int c = 0; c < cores; ++c) {
      // Odd lengths stress the per-row vector seams as in the 1-D suite.
      const int len = 3 + static_cast<int>(rng.uniform_u64(13));
      EnergyCurve cu = random_surface(rng, len, /*num_shares=*/1, 0.25);
      share_budget += cu.min_shares;
      curves.push_back(std::move(cu));
    }
    int sum_lo = 0;
    int sum_hi = 0;
    for (const EnergyCurve& c : curves) {
      sum_lo += c.min_ways;
      sum_hi += c.max_ways();
    }
    const int budget =
        sum_lo - 1 + static_cast<int>(rng.uniform_u64(
                         static_cast<std::uint64_t>(sum_hi - sum_lo + 3)));

    const GlobalOptResult oracle = tree_optimize(curves, budget);
    const std::vector<EnergyCurveView> views = views_of(curves);
    for (const simd::Level level : {simd::Level::Scalar, simd::Level::Avx2}) {
      if (level == simd::Level::Avx2 && !avx2_available()) continue;
      GlobalOptWorkspace ws;
      GlobalOptResult out;
      GlobalOptimizer::optimize_into(views, budget, share_budget, {}, ws, out,
                                     nullptr, level);
      const std::string what = "cores=" + std::to_string(cores) +
                               " trial=" + std::to_string(trial) +
                               " level=" + simd::level_name(level);
      ASSERT_EQ(out.feasible, oracle.feasible) << what;
      if (!out.feasible) continue;
      EXPECT_EQ(out.total_energy, oracle.total_energy) << what;
      EXPECT_EQ(out.ways, oracle.ways) << what;
      // Single-row surfaces admit exactly one share split.
      for (std::size_t c = 0; c < curves.size(); ++c) {
        EXPECT_EQ(out.shares[c], curves[c].min_shares) << what;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(CoreCounts, GlobalOpt2dDegenerate,
                         ::testing::Values(2, 4, 8, 16));

// ---------------------------------------------------------------------------
// 2. Correctness: exhaustive search over (ways, shares) splits.

TEST(GlobalOpt2d, TwoCoreSurfaceConvolutionPicksMinimum) {
  // Core 0: 2 ways x 2 shares starting at (w=2, b=1); core 1 likewise.
  // Budgets W=5, B=3 admit (w0,b0,w1,b1) in {(2,1,3,2), (2,2,3,1),
  // (3,1,2,2), (3,2,2,1)}: energies 4+30=34, 20+3=23, 10+40=50, 2+1=3.
  EnergyCurve a;
  a.min_ways = 2;
  a.min_shares = 1;
  a.num_shares = 2;
  a.energy = {4.0, 10.0,   // b=1: w=2,3
              20.0, 2.0};  // b=2: w=2,3
  EnergyCurve b;
  b.min_ways = 2;
  b.min_shares = 1;
  b.num_shares = 2;
  b.energy = {1.0, 3.0,     // b=1: w=2,3
              40.0, 30.0};  // b=2: w=2,3
  const std::vector<EnergyCurve> curves = {a, b};
  const auto r = ref::optimize(curves, 5, 3);
  ASSERT_TRUE(r.feasible);
  EXPECT_DOUBLE_EQ(r.total_energy, 3.0);
  EXPECT_EQ(r.ways, (std::vector<int>{3, 2}));
  EXPECT_EQ(r.shares, (std::vector<int>{2, 1}));
}

TEST(GlobalOpt2d, ShareBudgetOutsideReachIsInfeasible) {
  EnergyCurve a;
  a.min_ways = 2;
  a.min_shares = 1;
  a.num_shares = 2;
  a.energy = {1.0, 1.0, 1.0, 1.0};
  const std::vector<EnergyCurve> curves = {a, a};
  EXPECT_TRUE(ref::optimize(curves, 5, 2).feasible);
  EXPECT_TRUE(ref::optimize(curves, 5, 4).feasible);
  EXPECT_FALSE(ref::optimize(curves, 5, 1).feasible);  // min is 2
  EXPECT_FALSE(ref::optimize(curves, 5, 5).feasible);  // max is 4
}

class GlobalOpt2dVsBruteForce : public ::testing::TestWithParam<int> {};

TEST_P(GlobalOpt2dVsBruteForce, RandomSurfacesMatchExhaustiveSearch) {
  const int cores = GetParam();
  Rng rng(static_cast<std::uint64_t>(cores) * 15485863 + 3);
  for (int trial = 0; trial < 25; ++trial) {
    std::vector<EnergyCurve> curves;
    for (int c = 0; c < cores; ++c) {
      const int num_ways = 3 + static_cast<int>(rng.uniform_u64(4));
      const int num_shares = 1 + static_cast<int>(rng.uniform_u64(3));
      curves.push_back(random_surface(rng, num_ways, num_shares, 0.2));
    }
    int w_lo = 0, w_hi = 0, b_lo = 0, b_hi = 0;
    for (const EnergyCurve& c : curves) {
      w_lo += c.min_ways;
      w_hi += c.max_ways();
      b_lo += c.min_shares;
      b_hi += c.max_shares();
    }
    // Straddle both budget ranges so infeasible outcomes are exercised.
    const int W =
        w_lo - 1 + static_cast<int>(rng.uniform_u64(
                       static_cast<std::uint64_t>(w_hi - w_lo + 3)));
    const int B =
        b_lo - 1 + static_cast<int>(rng.uniform_u64(
                       static_cast<std::uint64_t>(b_hi - b_lo + 3)));

    const auto fast = ref::optimize(curves, W, B);
    const auto slow = ref::brute_force(curves, W, B);
    const std::string what = "cores=" + std::to_string(cores) +
                             " trial=" + std::to_string(trial) +
                             " W=" + std::to_string(W) +
                             " B=" + std::to_string(B);
    ASSERT_EQ(fast.feasible, slow.feasible) << what;
    if (!fast.feasible) continue;
    EXPECT_NEAR(fast.total_energy, slow.total_energy, 1e-9) << what;
    // The reported allocation exhausts both budgets and attains the energy.
    int sum_w = 0, sum_b = 0;
    for (std::size_t c = 0; c < curves.size(); ++c) {
      sum_w += fast.ways[c];
      sum_b += fast.shares[c];
    }
    EXPECT_EQ(sum_w, W) << what;
    EXPECT_EQ(sum_b, B) << what;
    EXPECT_NEAR(attained_energy(curves, fast), fast.total_energy, 1e-9) << what;
  }
}

INSTANTIATE_TEST_SUITE_P(CoreCounts, GlobalOpt2dVsBruteForce,
                         ::testing::Values(2, 3, 4));

// ---------------------------------------------------------------------------
// 3. Dispatch: AVX2 vs scalar, bit for bit, on genuinely 2-D surfaces.

class GlobalOpt2dSimdEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(GlobalOpt2dSimdEquivalence, RandomSurfacesMatchBitwiseAcrossLevels) {
  if (!avx2_available()) GTEST_SKIP() << "AVX2 kernel unavailable";
  const int cores = GetParam();
  Rng rng(static_cast<std::uint64_t>(cores) * 2097593 + 13);
  for (int trial = 0; trial < 60; ++trial) {
    std::vector<EnergyCurve> curves;
    for (int c = 0; c < cores; ++c) {
      // Odd w-row lengths leave scalar tails inside EVERY b-row; high
      // infeasibility density produces empty rows (an empty cached span).
      const int num_ways = 3 + static_cast<int>(rng.uniform_u64(11));
      const int num_shares = 1 + static_cast<int>(rng.uniform_u64(4));
      curves.push_back(random_surface(rng, num_ways, num_shares,
                                      trial % 3 == 0 ? 0.6 : 0.2));
    }
    int w_lo = 0, w_hi = 0, b_lo = 0, b_hi = 0;
    for (const EnergyCurve& c : curves) {
      w_lo += c.min_ways;
      w_hi += c.max_ways();
      b_lo += c.min_shares;
      b_hi += c.max_shares();
    }
    const int W =
        w_lo - 1 + static_cast<int>(rng.uniform_u64(
                       static_cast<std::uint64_t>(w_hi - w_lo + 3)));
    const int B =
        b_lo - 1 + static_cast<int>(rng.uniform_u64(
                       static_cast<std::uint64_t>(b_hi - b_lo + 3)));

    const std::vector<EnergyCurveView> views = views_of(curves);
    GlobalOptWorkspace scalar_ws, avx2_ws;
    GlobalOptResult scalar_out, avx2_out;
    std::uint64_t scalar_ops = 0, avx2_ops = 0;
    GlobalOptimizer::optimize_into(views, W, B, {}, scalar_ws, scalar_out,
                                   &scalar_ops, simd::Level::Scalar);
    GlobalOptimizer::optimize_into(views, W, B, {}, avx2_ws, avx2_out, &avx2_ops,
                                   simd::Level::Avx2);
    const std::string what = "cores=" + std::to_string(cores) +
                             " trial=" + std::to_string(trial);
    ASSERT_EQ(scalar_out.feasible, avx2_out.feasible) << what;
    EXPECT_EQ(scalar_out.total_energy, avx2_out.total_energy) << what;
    EXPECT_EQ(scalar_out.ways, avx2_out.ways) << what;
    EXPECT_EQ(scalar_out.shares, avx2_out.shares) << what;
    EXPECT_EQ(scalar_ops, avx2_ops) << what;
  }
}

// Wide 2-D surfaces: w-rows up to 40 cells, so every b-row pair of the
// vector kernel spans several 16-cell blocks, with row lengths chosen so the
// pair spans end on 0, 1 and 15 mod 16. Rows carry infinite holes, and
// whole b-rows are infeasible (skipped pairs on both sides).
TEST_P(GlobalOpt2dSimdEquivalence, WideSurfacesSpanSeveralKernelBlocks) {
  if (!avx2_available()) GTEST_SKIP() << "AVX2 kernel unavailable";
  const int cores = GetParam();
  constexpr int kLengths[] = {8, 9, 16, 17, 24, 25, 33, 40};
  Rng rng(static_cast<std::uint64_t>(cores) * 1299709 + 17);
  for (int trial = 0; trial < 16; ++trial) {
    std::vector<EnergyCurve> curves;
    for (int c = 0; c < cores; ++c) {
      const int num_ways = kLengths[rng.uniform_u64(std::size(kLengths))];
      const int num_shares = 1 + static_cast<int>(rng.uniform_u64(cores > 8 ? 2 : 3));
      EnergyCurve cu = random_surface(rng, num_ways, num_shares, 0.15);
      for (int b = 0; b < num_shares; ++b) {
        if (!rng.bernoulli(0.2)) continue;  // an all-infinite b-row
        std::fill_n(cu.energy.begin() + b * num_ways, num_ways, kInf);
      }
      curves.push_back(std::move(cu));
    }
    int w_lo = 0, w_hi = 0, b_lo = 0, b_hi = 0;
    for (const EnergyCurve& c : curves) {
      w_lo += c.min_ways;
      w_hi += c.max_ways();
      b_lo += c.min_shares;
      b_hi += c.max_shares();
    }
    const int W = w_lo + static_cast<int>(rng.uniform_u64(
                             static_cast<std::uint64_t>(w_hi - w_lo + 1)));
    const int B = b_lo + static_cast<int>(rng.uniform_u64(
                             static_cast<std::uint64_t>(b_hi - b_lo + 1)));

    const std::vector<EnergyCurveView> views = views_of(curves);
    GlobalOptWorkspace scalar_ws, avx2_ws;
    GlobalOptResult scalar_out, avx2_out;
    std::uint64_t scalar_ops = 0, avx2_ops = 0;
    GlobalOptimizer::optimize_into(views, W, B, {}, scalar_ws, scalar_out,
                                   &scalar_ops, simd::Level::Scalar);
    GlobalOptimizer::optimize_into(views, W, B, {}, avx2_ws, avx2_out, &avx2_ops,
                                   simd::Level::Avx2);
    const std::string what = "cores=" + std::to_string(cores) +
                             " trial=" + std::to_string(trial);
    ASSERT_EQ(scalar_out.feasible, avx2_out.feasible) << what;
    EXPECT_EQ(scalar_out.total_energy, avx2_out.total_energy) << what;
    EXPECT_EQ(scalar_out.ways, avx2_out.ways) << what;
    EXPECT_EQ(scalar_out.shares, avx2_out.shares) << what;
    EXPECT_EQ(scalar_ops, avx2_ops) << what;
  }
}

INSTANTIATE_TEST_SUITE_P(CoreCounts, GlobalOpt2dSimdEquivalence,
                         ::testing::Values(2, 4, 8, 16));

// ---------------------------------------------------------------------------
// Op accounting on 2-D surfaces: one op is one feasible-pair DP step, now a
// ((w_a, b_a), (w_b, b_b)) cell pair. Hand-counted: a has 3 feasible cells,
// b has 2 - six steps, independent of dispatch level.
TEST(GlobalOpt2d, OpsCountIsOneFeasibleCellPairPerDpStep) {
  EnergyCurve a;
  a.min_ways = 2;
  a.min_shares = 1;
  a.num_shares = 2;
  a.energy = {kInf, 5.0, 1.0, kInf};  // feasible: (w=3,b=1), (w=2,b=2)
  EnergyCurve b;
  b.min_ways = 2;
  b.min_shares = 1;
  b.num_shares = 2;
  b.energy = {2.0, kInf, kInf, 4.0};  // feasible: (w=2,b=1), (w=3,b=2)
  // Plus one single-cell curve: (2+2) combined-feasible totals x 1 = adds 4.
  EnergyCurve c;
  c.min_ways = 1;
  c.energy = {3.0};
  const std::vector<EnergyCurve> curves = {a, b, c};
  std::uint64_t ops = 0;
  const auto r = ref::optimize(curves, 6, 3, &ops);
  EXPECT_EQ(ops, 2u * 2u + 4u * 1u);
  ASSERT_TRUE(r.feasible);
}

// The ways-only wrapper must be the degenerate 2-D problem: same result,
// same ops, shares pinned at each curve's minimum.
TEST(GlobalOpt2d, WaysOnlyWrapperIsDegenerateTwoD) {
  Rng rng(991);
  for (int trial = 0; trial < 50; ++trial) {
    const int cores = 2 + static_cast<int>(rng.uniform_u64(5));
    std::vector<EnergyCurve> curves;
    int share_budget = 0;
    for (int c = 0; c < cores; ++c) {
      const int len = 3 + static_cast<int>(rng.uniform_u64(9));
      EnergyCurve cu = random_surface(rng, len, 1, 0.2);
      share_budget += cu.min_shares;
      curves.push_back(std::move(cu));
    }
    int sum_lo = 0;
    for (const EnergyCurve& c : curves) sum_lo += c.min_ways;
    const int budget = sum_lo + trial % 5;

    std::uint64_t ops_1d = 0, ops_2d = 0;
    const auto r1 = ref::optimize(curves, budget, &ops_1d);
    const auto r2 = ref::optimize(curves, budget, share_budget,
                                              &ops_2d);
    ASSERT_EQ(r1.feasible, r2.feasible) << "trial " << trial;
    EXPECT_EQ(ops_1d, ops_2d) << "trial " << trial;
    if (r1.feasible) {
      EXPECT_EQ(r1.total_energy, r2.total_energy) << "trial " << trial;
      EXPECT_EQ(r1.ways, r2.ways) << "trial " << trial;
      EXPECT_EQ(r1.shares, r2.shares) << "trial " << trial;
    }
  }
}

}  // namespace
}  // namespace qosrm::rm

// Incremental reduction over the persistent combine tree: a workspace fed a
// sequence of problems with only the changed leaves flagged dirty must give,
// call for call, exactly the result and op count of a from-scratch
// reduction - under random dirty sets, idle <-> active shape flips, moving
// leaf storage and budget changes, ways-only and 2-D, at every dispatch
// level. It must also do less work: a clean call recombines nothing and a
// single dirty leaf recombines at most its root path.
#include "rm/global_opt.hh"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <string>
#include <tuple>
#include <vector>

#include "common/rng.hh"
#include "support/global_opt_ref.hh"

namespace qosrm::rm {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

bool avx2_available() { return simd::avx2_compiled() && simd::avx2_supported(); }

/// One leaf of the evolving problem: an active surface or the idle cell.
EnergyCurve random_leaf(Rng& rng, int num_shares, bool idle) {
  EnergyCurve cu;
  if (idle) {
    cu.min_ways = 1;
    cu.energy = {0.0};
    return cu;
  }
  cu.min_ways = 1 + static_cast<int>(rng.uniform_u64(3));
  cu.min_shares = 1 + static_cast<int>(rng.uniform_u64(2));
  cu.num_shares = num_shares;
  const int num_ways = num_shares == 1 ? 3 + static_cast<int>(rng.uniform_u64(14))
                                       : 3 + static_cast<int>(rng.uniform_u64(4));
  for (int i = 0; i < num_ways * num_shares; ++i) {
    cu.energy.push_back(rng.bernoulli(0.2) ? kInf : rng.uniform(1.0, 50.0));
  }
  return cu;
}

int ceil_log2(int n) {
  int depth = 0;
  while ((1 << depth) < n) ++depth;
  return depth;
}

class GlobalOptIncremental
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(GlobalOptIncremental, MatchesFromScratchBitwise) {
  const auto [cores, num_shares] = GetParam();
  for (const simd::Level level : {simd::Level::Scalar, simd::Level::Avx2}) {
    if (level == simd::Level::Avx2 && !avx2_available()) continue;
    Rng rng(static_cast<std::uint64_t>(cores) * 7919 +
            static_cast<std::uint64_t>(num_shares) * 104729 + 5);
    std::vector<EnergyCurve> curves;
    std::vector<bool> idle;
    for (int c = 0; c < cores; ++c) {
      idle.push_back(rng.bernoulli(0.3));
      curves.push_back(random_leaf(rng, num_shares, idle.back()));
    }
    GlobalOptWorkspace incremental;
    std::vector<std::uint8_t> dirty(static_cast<std::size_t>(cores), 1);
    // Widest leaf so far: the pool slots are sized for it, and a wider one
    // re-lays them out, which recombines everything once.
    int widest = 0;
    for (int step = 0; step < 40; ++step) {
      const std::string what = "cores=" + std::to_string(cores) +
                               " shares=" + std::to_string(num_shares) +
                               " level=" + simd::level_name(level) +
                               " step=" + std::to_string(step);
      // Random dirty set: clean calls, single leaves (the common RM case),
      // and bursts, some of which flip a leaf between idle and active.
      const int kind = static_cast<int>(rng.uniform_u64(4));
      const int changes = kind == 0   ? 0
                          : kind == 3 ? 1 + static_cast<int>(rng.uniform_u64(
                                                static_cast<std::uint64_t>(cores)))
                                      : 1;
      for (int i = 0; i < changes; ++i) {
        const auto k = static_cast<std::size_t>(rng.uniform_u64(
            static_cast<std::uint64_t>(cores)));
        if (rng.bernoulli(0.3)) idle[k] = !idle[k];
        curves[k] = random_leaf(rng, num_shares, idle[k]);
        dirty[k] = 1;
      }
      // Moving a clean leaf's storage is not a change.
      if (rng.bernoulli(0.3)) {
        const auto k = static_cast<std::size_t>(rng.uniform_u64(
            static_cast<std::uint64_t>(cores)));
        std::vector<double> moved = curves[k].energy;
        curves[k].energy.swap(moved);
      }
      int w_lo = 0, w_hi = 0, b_lo = 0, b_hi = 0;
      for (const EnergyCurve& c : curves) {
        w_lo += c.min_ways;
        w_hi += c.max_ways();
        b_lo += c.min_shares;
        b_hi += c.max_shares();
      }
      const int total_ways = (w_lo + w_hi) / 2 + (step % 7 == 6 ? 1 : 0);
      const int total_shares = (b_lo + b_hi) / 2;

      bool widened = false;
      for (const EnergyCurve& c : curves) {
        widened = widened || c.num_ways() > widest;
        widest = std::max(widest, c.num_ways());
      }

      const std::vector<EnergyCurveView> views = views_of(curves);
      GlobalOptWorkspace scratch;
      GlobalOptResult expect;
      std::uint64_t expect_ops = 0;
      GlobalOptimizer::optimize_into(views, total_ways, total_shares, {}, scratch,
                                     expect, &expect_ops, level);
      GlobalOptResult got;
      std::uint64_t got_ops = 0;
      GlobalOptimizer::optimize_into(views, total_ways, total_shares, dirty,
                                     incremental, got, &got_ops, level);
      ASSERT_EQ(got.feasible, expect.feasible) << what;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got.total_energy),
                std::bit_cast<std::uint64_t>(expect.total_energy))
          << what;
      EXPECT_EQ(got.ways, expect.ways) << what;
      EXPECT_EQ(got.shares, expect.shares) << what;
      EXPECT_EQ(got_ops, expect_ops) << what;
      EXPECT_EQ(scratch.last_recombined(), cores - 1) << what;
      if (step > 0 && changes == 0) {
        // Nothing dirty: at most the root re-reads a moved budget.
        EXPECT_LE(incremental.last_recombined(), 1) << what;
      }
      if (step > 0 && changes == 1 && !widened) {
        EXPECT_LE(incremental.last_recombined(), ceil_log2(cores)) << what;
      }
      std::fill(dirty.begin(), dirty.end(), std::uint8_t{0});
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GlobalOptIncremental,
    ::testing::Combine(::testing::Values(2, 3, 5, 8, 16, 33, 64),
                       ::testing::Values(1, 4)),
    [](const ::testing::TestParamInfo<std::tuple<int, int>>& info) {
      std::string name = "n";
      name.append(std::to_string(std::get<0>(info.param))).append("_b");
      return name.append(std::to_string(std::get<1>(info.param)));
    });

// Slot-margin invariant: every slot cell outside a node's current rows and
// spans is +inf, because the AVX2 kernel reads a right child up to kPad
// cells past either end of a row's feasible span. Each walk changes a few
// leaves per step so that a node's surface narrows (a wide, cheap surface
// replaced by a narrow, expensive one: any stale cell left in a margin
// would undercut the true sums), its feasible spans move, its spans shrink
// from both ends while the rows keep their width (a single-row node
// resets only the cells outside its span, so a stale cell before the span
// or in the old, wider tail shows), or one of its rows turns
// all-infeasible and back. After every step each node must match the plain
// reduction, margins included, and EVERY target cell of the root must match
// a from-scratch reduction, so a stale margin cell shows wherever it lands.
enum class MarginWalk { Narrow, MoveSpan, Shrink, DeadRow };

EnergyCurve margin_leaf(Rng& rng, MarginWalk walk, int num_shares, bool alt, int step) {
  EnergyCurve cu;
  cu.min_ways = 1;
  cu.num_shares = num_shares;
  int num_ways = num_shares == 1 ? 16 : 6;
  double lo = 1.0;
  double hi = 50.0;
  if (walk == MarginWalk::Narrow && alt) {
    num_ways = 2 + static_cast<int>(rng.uniform_u64(3));
    lo = 30.0;
  } else if (walk == MarginWalk::Narrow) {
    hi = 2.0;
  } else if (walk == MarginWalk::Shrink) {
    // Hole-free spans that lose a cell at each end per step and get dearer.
    lo = 1.0 + 5.0 * step;
    hi = lo + 1.0;
  }
  for (int r = 0; r < num_shares; ++r) {
    // MoveSpan: each row is feasible on a random window only.
    int first = 0;
    int last = num_ways - 1;
    if (walk == MarginWalk::MoveSpan) {
      first = static_cast<int>(rng.uniform_u64(static_cast<std::uint64_t>(num_ways)));
      last = first + static_cast<int>(rng.uniform_u64(
                         static_cast<std::uint64_t>(num_ways - first)));
    } else if (walk == MarginWalk::Shrink) {
      first = std::min(step, (num_ways - 1) / 2);
      last = num_ways - 1 - first;
    }
    // DeadRow: one row (the leaf's only row when b = 1) all-infeasible.
    const bool dead = walk == MarginWalk::DeadRow && alt &&
                      r == (num_shares == 1 ? 0 : 1);
    const double holes = walk == MarginWalk::Shrink ? 0.0 : 0.1;
    for (int w = 0; w < num_ways; ++w) {
      const bool feasible = !dead && w >= first && w <= last && !rng.bernoulli(holes);
      cu.energy.push_back(feasible ? rng.uniform(lo, hi) : kInf);
    }
  }
  return cu;
}

class GlobalOptMargins
    : public ::testing::TestWithParam<std::tuple<MarginWalk, int, int>> {};

TEST_P(GlobalOptMargins, EveryTargetMatchesFromScratchBitwise) {
  const auto [walk, cores, num_shares] = GetParam();
  for (const simd::Level level : {simd::Level::Scalar, simd::Level::Avx2}) {
    if (level == simd::Level::Avx2 && !avx2_available()) continue;
    Rng rng(static_cast<std::uint64_t>(walk) * 31 + static_cast<std::uint64_t>(cores) * 7 +
            static_cast<std::uint64_t>(num_shares));
    std::vector<EnergyCurve> curves;
    std::vector<bool> alt(static_cast<std::size_t>(cores), false);
    for (int c = 0; c < cores; ++c) {
      curves.push_back(margin_leaf(rng, walk, num_shares, false, 0));
    }
    GlobalOptWorkspace incremental;
    std::vector<std::uint8_t> dirty(static_cast<std::size_t>(cores), 1);
    std::uint64_t checked_feasible = 0;
    for (int step = 0; step < 12; ++step) {
      if (step > 0) {
        // Flip about half the leaves, but always at least one.
        for (int c = 0; c < cores; ++c) {
          const auto k = static_cast<std::size_t>(c);
          if (!rng.bernoulli(0.5) && !(c == step % cores)) continue;
          alt[k] = !alt[k];
          curves[k] = margin_leaf(rng, walk, num_shares, alt[k], step);
          dirty[k] = 1;
        }
      }
      int w_lo = 0, w_hi = 0, b_lo = 0, b_hi = 0;
      for (const EnergyCurve& c : curves) {
        w_lo += c.min_ways;
        w_hi += c.max_ways();
        b_lo += c.min_shares;
        b_hi += c.max_shares();
      }
      const std::vector<EnergyCurveView> views = views_of(curves);
      const std::vector<ref::Node> nodes = ref::reduce_tree(curves);
      for (int total_shares = b_lo; total_shares <= b_hi; ++total_shares) {
        for (int total_ways = w_lo; total_ways <= w_hi; ++total_ways) {
          const std::string what = "level=" + std::string(simd::level_name(level)) +
                                   " step=" + std::to_string(step) +
                                   " ways=" + std::to_string(total_ways) +
                                   " shares=" + std::to_string(total_shares);
          GlobalOptWorkspace scratch;
          GlobalOptResult expect;
          std::uint64_t expect_ops = 0;
          GlobalOptimizer::optimize_into(views, total_ways, total_shares, {}, scratch,
                                         expect, &expect_ops, level);
          GlobalOptResult got;
          std::uint64_t got_ops = 0;
          GlobalOptimizer::optimize_into(views, total_ways, total_shares, dirty,
                                         incremental, got, &got_ops, level);
          std::fill(dirty.begin(), dirty.end(), std::uint8_t{0});
          if (total_ways == w_lo && total_shares == b_lo) {  // the recombining call
            ASSERT_EQ(first_node_mismatch(incremental, nodes), "") << what;
          }
          ASSERT_EQ(got.feasible, expect.feasible) << what;
          ASSERT_EQ(std::bit_cast<std::uint64_t>(got.total_energy),
                    std::bit_cast<std::uint64_t>(expect.total_energy))
              << what;
          ASSERT_EQ(got.ways, expect.ways) << what;
          ASSERT_EQ(got.shares, expect.shares) << what;
          ASSERT_EQ(got_ops, expect_ops) << what;
          checked_feasible += got.feasible ? 1 : 0;
        }
      }
      // Every target read: the clipped windows are at their widest.
      ASSERT_EQ(first_node_mismatch(incremental, nodes), "") << "step=" << step;
    }
    EXPECT_GT(checked_feasible, 0u);  // the walk reached real allocations
  }
}

INSTANTIATE_TEST_SUITE_P(
    Walks, GlobalOptMargins,
    ::testing::Combine(::testing::Values(MarginWalk::Narrow, MarginWalk::MoveSpan,
                                         MarginWalk::Shrink, MarginWalk::DeadRow),
                       ::testing::Values(5, 8), ::testing::Values(1, 4)),
    [](const ::testing::TestParamInfo<std::tuple<MarginWalk, int, int>>& info) {
      const char* walk = std::get<0>(info.param) == MarginWalk::Narrow     ? "narrow"
                         : std::get<0>(info.param) == MarginWalk::MoveSpan ? "move_span"
                         : std::get<0>(info.param) == MarginWalk::Shrink   ? "shrink"
                                                                          : "dead_row";
      return std::string(walk) + "_n" + std::to_string(std::get<1>(info.param)) +
             "_b" + std::to_string(std::get<2>(info.param));
    });

TEST(GlobalOptIncremental, CleanCallReusesResultAndChargesFullOps) {
  const std::vector<EnergyCurve> curves = {
      {2, {3.0, 2.0, 1.5}}, {2, {4.0, 1.0, 0.5}}, {2, {2.0, 2.0, kInf}}};
  const std::vector<EnergyCurveView> views = views_of(curves);
  GlobalOptWorkspace ws;
  GlobalOptResult first;
  std::uint64_t first_ops = 0;
  const std::vector<std::uint8_t> all(3, 1);
  GlobalOptimizer::optimize_into(views, 8, 3, all, ws, first, &first_ops);
  EXPECT_EQ(ws.last_recombined(), 2);

  GlobalOptResult again;
  std::uint64_t again_ops = 0;
  const std::vector<std::uint8_t> none(3, 0);
  GlobalOptimizer::optimize_into(views, 8, 3, none, ws, again, &again_ops);
  EXPECT_EQ(ws.last_recombined(), 0);
  ASSERT_TRUE(again.feasible);
  EXPECT_EQ(again.ways, first.ways);
  EXPECT_EQ(again.total_energy, first.total_energy);
  EXPECT_EQ(again_ops, first_ops);  // the model's count, not the host's work
  EXPECT_GT(again_ops, 0u);
}

// Leaf contract: unflagged leaves are not read. After a first call, views of
// the clean leaves are replaced by empty spans - which would fail the
// optimizer's validation and hold no cells to copy - so a call succeeds only
// if it touches nothing but the flagged leaves and the tree. A budget change
// with no dirty leaf re-reads only the root; one dirty leaf recombines only
// its root path; both equal a from-scratch reduction of the real surfaces.
TEST(GlobalOptIncremental, UnflaggedLeavesAreNotRead) {
  for (const int num_shares : {1, 3}) {
    Rng rng(static_cast<std::uint64_t>(num_shares) * 911 + 17);
    const int cores = 8;
    std::vector<EnergyCurve> curves;
    for (int c = 0; c < cores; ++c) {
      curves.push_back(random_leaf(rng, num_shares, false));
      curves.back().energy.front() = 1.0;  // every leaf feasible at its lowest
    }
    int w_lo = 0, w_hi = 0, b_lo = 0;
    for (const EnergyCurve& c : curves) {
      w_lo += c.min_ways;
      w_hi += c.max_ways();
      b_lo += c.min_shares;
    }
    const int budget = (w_lo + w_hi) / 2;
    GlobalOptWorkspace ws;
    GlobalOptResult got;
    std::vector<std::uint8_t> dirty(static_cast<std::size_t>(cores), 1);
    GlobalOptimizer::optimize_into(views_of(curves), budget, b_lo, dirty, ws, got);
    std::fill(dirty.begin(), dirty.end(), std::uint8_t{0});

    // Clean views of the clean leaves: no cell behind them.
    const auto blind = [&](int flagged) {
      std::vector<EnergyCurveView> views = views_of(curves);
      for (int c = 0; c < cores; ++c) {
        if (c != flagged) views[static_cast<std::size_t>(c)].energy = {};
      }
      return views;
    };
    const auto expect_from_scratch = [&](int ways, const std::string& what) {
      GlobalOptWorkspace scratch;
      GlobalOptResult expect;
      std::uint64_t expect_ops = 0;
      GlobalOptimizer::optimize_into(views_of(curves), ways, b_lo, {}, scratch, expect,
                                     &expect_ops);
      ASSERT_EQ(got.feasible, expect.feasible) << what;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got.total_energy),
                std::bit_cast<std::uint64_t>(expect.total_energy))
          << what;
      EXPECT_EQ(got.ways, expect.ways) << what;
      EXPECT_EQ(got.shares, expect.shares) << what;
      EXPECT_EQ(ws.last_ops(), expect_ops) << what;
    };

    // A new budget, nothing dirty: only the root's target cell moves.
    std::uint64_t ops = 0;
    GlobalOptimizer::optimize_into(blind(-1), budget + 1, b_lo, dirty, ws, got, &ops);
    EXPECT_EQ(ws.last_recombined(), 1);
    EXPECT_EQ(ops, ws.last_ops());
    expect_from_scratch(budget + 1, "budget+1 shares=" + std::to_string(num_shares));

    // One dirty leaf: its root path only.
    curves[5].energy[1] = 0.25;
    dirty[5] = 1;
    GlobalOptimizer::optimize_into(blind(5), budget + 1, b_lo, dirty, ws, got);
    EXPECT_EQ(ws.last_recombined(), ceil_log2(cores));
    expect_from_scratch(budget + 1, "dirty leaf shares=" + std::to_string(num_shares));
  }
}

// Backtracking keeps the allocations of subtrees that were not recombined and
// are asked for the same target. An infeasible call leaves no allocation to
// keep, so the calls after it - the original budget again with no dirty
// leaf, then one dirty leaf - must backtrack in full and still equal a
// from-scratch reduction bit for bit.
TEST(GlobalOptIncremental, InfeasibleCallDoesNotLeakStaleAllocations) {
  for (const int num_shares : {1, 3}) {
    for (const simd::Level level : {simd::Level::Scalar, simd::Level::Avx2}) {
      if (level == simd::Level::Avx2 && !avx2_available()) continue;
      Rng rng(static_cast<std::uint64_t>(num_shares) * 6007 + 3);
      const int cores = 8;
      std::vector<EnergyCurve> curves;
      for (int c = 0; c < cores; ++c) {
        curves.push_back(random_leaf(rng, num_shares, false));
      }
      // Make every leaf feasible at its lowest allocation so the middle of
      // the range is reachable.
      for (EnergyCurve& c : curves) c.energy.front() = 1.0;
      int w_lo = 0, w_hi = 0, b_lo = 0, b_hi = 0;
      for (const EnergyCurve& c : curves) {
        w_lo += c.min_ways;
        w_hi += c.max_ways();
        b_lo += c.min_shares;
        b_hi += c.max_shares();
      }
      struct Call {
        int ways;
        int shares;
        int dirty_leaf;  // -1: none
        bool feasible;
      };
      const Call calls[] = {{w_lo, b_lo, -1, true},
                            {w_hi + 5, b_lo, -1, false},
                            {w_lo, b_lo, -1, true},
                            {w_lo, b_lo, 5, true}};
      GlobalOptWorkspace ws;
      std::vector<std::uint8_t> dirty(static_cast<std::size_t>(cores), 1);
      int step = 0;
      for (const Call& call : calls) {
        const std::string what = "shares=" + std::to_string(num_shares) +
                                 " level=" + simd::level_name(level) +
                                 " call=" + std::to_string(step++);
        if (call.dirty_leaf >= 0) {
          EnergyCurve& leaf = curves[static_cast<std::size_t>(call.dirty_leaf)];
          for (double& e : leaf.energy) e = std::isinf(e) ? e : 0.5 * e;
          dirty[static_cast<std::size_t>(call.dirty_leaf)] = 1;
        }
        const std::vector<EnergyCurveView> views = views_of(curves);
        GlobalOptWorkspace scratch;
        GlobalOptResult expect;
        std::uint64_t expect_ops = 0;
        GlobalOptimizer::optimize_into(views, call.ways, call.shares, {}, scratch,
                                       expect, &expect_ops, level);
        GlobalOptResult got;
        std::uint64_t got_ops = 0;
        GlobalOptimizer::optimize_into(views, call.ways, call.shares, dirty, ws, got,
                                       &got_ops, level);
        ASSERT_EQ(expect.feasible, call.feasible) << what;
        ASSERT_EQ(got.feasible, expect.feasible) << what;
        EXPECT_EQ(std::bit_cast<std::uint64_t>(got.total_energy),
                  std::bit_cast<std::uint64_t>(expect.total_energy))
            << what;
        EXPECT_EQ(got.ways, expect.ways) << what;
        EXPECT_EQ(got.shares, expect.shares) << what;
        EXPECT_EQ(got_ops, expect_ops) << what;
        EXPECT_EQ(ws.last_ops(), expect_ops) << what;
        std::fill(dirty.begin(), dirty.end(), std::uint8_t{0});
      }
    }
  }
}

// A root child whose two children are hole-free is computed only on the
// window of its row the root reads, [t - sibling last, t - sibling first]
// for the root target t. The window is recorded, and a later root read that
// needs more extends it without recombining the child. Four cores: nodes 4
// = (0, 1) and 5 = (2, 3) are the root's children. The sibling's span first
// widens past node 4's recorded window (leaf 2 dirty), then the budget
// moves it again; each call must extend node 4's window, recombine only
// what is dirty, and match a from-scratch reduction and the plain one.
EnergyCurve span_leaf(int first, int last) {
  EnergyCurve cu;
  cu.min_ways = 1;
  for (int w = 0; w < 16; ++w) {
    cu.energy.push_back(w >= first && w <= last ? 10.0 + (w - 7.5) * (w - 7.5) + 0.1 * first
                                                : kInf);
  }
  return cu;
}

TEST(GlobalOptClippedRoot, SiblingSpanWideningExtendsTheWindow) {
  for (const simd::Level level : {simd::Level::Scalar, simd::Level::Avx2}) {
    if (level == simd::Level::Avx2 && !avx2_available()) continue;
    std::vector<EnergyCurve> curves = {span_leaf(0, 15), span_leaf(0, 15),
                                       span_leaf(6, 9), span_leaf(6, 9)};
    GlobalOptWorkspace ws;
    const GlobalOptWorkspaceProbe probe{ws};
    std::vector<std::uint8_t> dirty(4, 1);
    struct Call {
      int dirty_leaf;  // -1: none
      int total_ways;
      int recombined;
      int window_first;  // node 4's window after the call
      int window_last;
    };
    // The root covers ways [4, 64]; total_ways 34 is root cell t = 30. Node
    // 5's span is [12, 18], then [6, 24] once leaf 2 is feasible everywhere.
    const Call calls[] = {{-1, 34, 3, 12, 18}, {2, 34, 2, 6, 24}, {-1, 38, 1, 6, 28}};
    int step = 0;
    for (const Call& call : calls) {
      const std::string what =
          std::string("level=") + simd::level_name(level) + " call=" + std::to_string(step);
      if (call.dirty_leaf >= 0) {
        curves[static_cast<std::size_t>(call.dirty_leaf)] = span_leaf(0, 15);
        dirty[static_cast<std::size_t>(call.dirty_leaf)] = 1;
      }
      const std::vector<EnergyCurveView> views = views_of(curves);
      GlobalOptResult got;
      std::uint64_t got_ops = 0;
      GlobalOptimizer::optimize_into(views, call.total_ways, 4, dirty, ws, got, &got_ops,
                                     level);
      std::fill(dirty.begin(), dirty.end(), std::uint8_t{0});
      EXPECT_EQ(ws.last_recombined(), call.recombined) << what;
      ASSERT_TRUE(probe.clipped(4)) << what;
      EXPECT_EQ(probe.window_first(4), call.window_first) << what;
      EXPECT_EQ(probe.window_last(4), call.window_last) << what;

      std::uint64_t ref_ops = 0;
      const std::vector<ref::Node> nodes = ref::reduce_tree(curves, &ref_ops);
      EXPECT_EQ(first_node_mismatch(ws, nodes), "") << what;
      const GlobalOptResult expect = ref::backtrack(nodes, call.total_ways, 4);
      ASSERT_TRUE(got.feasible) << what;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got.total_energy),
                std::bit_cast<std::uint64_t>(expect.total_energy))
          << what;
      EXPECT_EQ(got.ways, expect.ways) << what;
      EXPECT_EQ(got_ops, ref_ops) << what;
      ++step;
    }
  }
}

// Random walks over hole-free leaves (so root children clip), with now and
// then a leaf with holes or an idle cell (so they stop clipping and start
// again) or a 3-share surface (so a clipped child's sibling may be
// multi-row and the root reads the child once per sibling row), one or two
// dirty leaves per call and a moving budget: every call must match a
// from-scratch reduction and the plain one node by node.
TEST(GlobalOptClippedRoot, HoleFreeWalksMatchFromScratch) {
  for (const int cores : {3, 4, 5, 8, 16}) {
    for (const simd::Level level : {simd::Level::Scalar, simd::Level::Avx2}) {
      if (level == simd::Level::Avx2 && !avx2_available()) continue;
      Rng rng(static_cast<std::uint64_t>(cores) * 4099 + 17);
      // Never wider than leaf 0's first surface (16 ways, 3 shares), so no
      // call re-lays the pool out.
      const auto leaf = [&rng](std::uint64_t kind) {
        if (kind == 0) return EnergyCurve{1, {0.0}};
        EnergyCurve cu;
        cu.min_ways = 1 + static_cast<int>(rng.uniform_u64(2));
        cu.num_shares = kind == 2 ? 3 : 1;
        const int width = 16;
        for (int r = 0; r < cu.num_shares; ++r) {
          const int first =
              static_cast<int>(rng.uniform_u64(static_cast<std::uint64_t>(width)));
          const int last = first + static_cast<int>(rng.uniform_u64(
                                       static_cast<std::uint64_t>(width - first)));
          for (int w = 0; w < width; ++w) {
            const bool hole = kind == 1 && w > first && w < last && rng.bernoulli(0.3);
            cu.energy.push_back(w >= first && w <= last && !hole ? rng.uniform(1.0, 50.0)
                                                                  : kInf);
          }
        }
        return cu;
      };
      std::vector<EnergyCurve> curves = {leaf(2)};
      for (int c = 1; c < cores; ++c) curves.push_back(leaf(rng.uniform_u64(10)));
      GlobalOptWorkspace ws;
      const GlobalOptWorkspaceProbe probe{ws};
      std::vector<std::uint8_t> dirty(static_cast<std::size_t>(cores), 1);
      int clipped_calls = 0;
      for (int step = 0; step < 60; ++step) {
        const std::string what = "cores=" + std::to_string(cores) +
                                 " level=" + simd::level_name(level) +
                                 " step=" + std::to_string(step);
        const int changes = step == 0 ? 0 : static_cast<int>(rng.uniform_u64(3));
        for (int i = 0; i < changes; ++i) {
          const auto k = static_cast<std::size_t>(
              rng.uniform_u64(static_cast<std::uint64_t>(cores)));
          curves[k] = leaf(rng.uniform_u64(10));
          dirty[k] = 1;
        }
        std::uint64_t ref_ops = 0;
        const std::vector<ref::Node> nodes = ref::reduce_tree(curves, &ref_ops);
        const ref::Node& root = nodes.back();
        const int total_ways =
            root.lo + static_cast<int>(rng.uniform_u64(static_cast<std::uint64_t>(root.size)));
        const int total_shares =
            root.b_lo +
            static_cast<int>(rng.uniform_u64(static_cast<std::uint64_t>(root.b_size)));
        const std::vector<EnergyCurveView> views = views_of(curves);
        GlobalOptResult got;
        std::uint64_t got_ops = 0;
        GlobalOptimizer::optimize_into(views, total_ways, total_shares, dirty, ws, got,
                                       &got_ops, level);
        std::fill(dirty.begin(), dirty.end(), std::uint8_t{0});
        // Node n - 2 is the root's left child.
        clipped_calls += probe.clipped(probe.num_nodes() - 2) ? 1 : 0;
        ASSERT_EQ(first_node_mismatch(ws, nodes), "") << what;
        const GlobalOptResult expect = ref::backtrack(nodes, total_ways, total_shares);
        ASSERT_EQ(got.feasible, expect.feasible) << what;
        EXPECT_EQ(std::bit_cast<std::uint64_t>(got.total_energy),
                  std::bit_cast<std::uint64_t>(expect.total_energy))
            << what;
        EXPECT_EQ(got.ways, expect.ways) << what;
        EXPECT_EQ(got.shares, expect.shares) << what;
        EXPECT_EQ(got_ops, ref_ops) << what;
        if (changes <= 1 && step > 0) {
          EXPECT_LE(ws.last_recombined(), ceil_log2(cores)) << what;
        }
      }
      EXPECT_GT(clipped_calls, 0) << "cores=" << cores;
    }
  }
}

}  // namespace
}  // namespace qosrm::rm

// Test-side companions of rm/global_opt: an owning energy surface, a
// one-shot optimizer over such surfaces (a throwaway workspace, every leaf
// dirty), the references the randomized suites check the pairwise
// reduction against (a plain node-by-node reduction, the frozen
// pre-workspace tree reduction and an exhaustive search), a read-only probe
// of a workspace's per-node caches, and the AVX2 availability probe.
#ifndef QOSRM_TESTS_SUPPORT_GLOBAL_OPT_REF_HH
#define QOSRM_TESTS_SUPPORT_GLOBAL_OPT_REF_HH

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/check.hh"
#include "common/simd.hh"
#include "rm/global_opt.hh"

namespace qosrm::rm {

/// Owning counterpart of EnergyCurveView (same indexing convention and the
/// same positional layout, so {min_ways, energy} is a plain 1-D curve).
struct EnergyCurve {
  int min_ways = 2;
  std::vector<double> energy;
  int min_shares = 1;
  int num_shares = 1;

  [[nodiscard]] int num_ways() const noexcept {
    return num_shares > 0 ? static_cast<int>(energy.size()) / num_shares : 0;
  }
  [[nodiscard]] int max_ways() const noexcept { return min_ways + num_ways() - 1; }
  [[nodiscard]] int max_shares() const noexcept {
    return min_shares + num_shares - 1;
  }
};

inline std::vector<EnergyCurveView> views_of(std::span<const EnergyCurve> curves) {
  std::vector<EnergyCurveView> views;
  views.reserve(curves.size());
  for (const EnergyCurve& c : curves) {
    views.push_back({c.min_ways, std::span<const double>(c.energy), c.min_shares,
                     c.num_shares});
  }
  return views;
}

/// Share budget of a ways-only problem: every core at its lowest share.
inline int ways_only_shares(std::span<const EnergyCurveView> curves) {
  int total = 0;
  for (const EnergyCurveView& c : curves) total += c.min_shares;
  return total;
}

namespace ref {

inline GlobalOptResult optimize(std::span<const EnergyCurve> curves,
                                int total_ways, int total_shares,
                                std::uint64_t* ops = nullptr) {
  const std::vector<EnergyCurveView> views = views_of(curves);
  GlobalOptWorkspace ws;
  GlobalOptResult out;
  GlobalOptimizer::optimize_into(views, total_ways, total_shares, {}, ws, out,
                                 ops);
  return out;
}

/// Ways-only one-shot (share budget = sum of lowest shares).
inline GlobalOptResult optimize(std::span<const EnergyCurve> curves,
                                int total_ways, std::uint64_t* ops = nullptr) {
  const std::vector<EnergyCurveView> views = views_of(curves);
  return optimize(curves, total_ways, ways_only_shares(views), ops);
}

/// One node of reduce_tree: its surface over the whole box (b-major rows of
/// `size` cells), each row's feasible span and the finite-cell count.
struct Node {
  int lo = 0;
  int size = 0;
  int b_lo = 0;
  int b_size = 0;
  std::vector<double> energy;
  std::vector<int> first;  ///< per row; first > last for an all-infeasible row
  std::vector<int> last;
  std::uint64_t feasible = 0;
  int left = -1;  ///< child node indices; -1 for a leaf
  int right = -1;

  [[nodiscard]] double cell(int w, int b) const {
    return energy[static_cast<std::size_t>(b) * static_cast<std::size_t>(size) +
                  static_cast<std::size_t>(w)];
  }
};

/// From-scratch reduction written for clarity, not speed: every node of the
/// workspace's combine tree (same numbering: leaves, then adjacent pairs per
/// level with an odd node carried up) as a full surface, each cell the
/// strict-less minimum over every pair of cells in ascending order, plus
/// the op count a from-scratch optimize_into charges (the feasible-cell
/// products of every combine). Leaf cells must not be -0 or NaN.
inline std::vector<Node> reduce_tree(std::span<const EnergyCurve> curves,
                                     std::uint64_t* ops = nullptr) {
  std::vector<Node> nodes;
  const auto finish = [](Node& node) {
    node.first.assign(static_cast<std::size_t>(node.b_size), node.size);
    node.last.assign(static_cast<std::size_t>(node.b_size), -1);
    for (int b = 0; b < node.b_size; ++b) {
      for (int w = 0; w < node.size; ++w) {
        if (std::isinf(node.cell(w, b))) continue;
        node.first[static_cast<std::size_t>(b)] =
            std::min(node.first[static_cast<std::size_t>(b)], w);
        node.last[static_cast<std::size_t>(b)] = w;
        ++node.feasible;
      }
    }
  };
  for (const EnergyCurve& c : curves) {
    Node& node = nodes.emplace_back();
    node.lo = c.min_ways;
    node.size = c.num_ways();
    node.b_lo = c.min_shares;
    node.b_size = c.num_shares;
    node.energy = c.energy;
    finish(node);
  }
  std::vector<std::size_t> level(nodes.size());
  for (std::size_t i = 0; i < level.size(); ++i) level[i] = i;
  while (level.size() > 1) {
    std::vector<std::size_t> next;
    for (std::size_t k = 0; k + 1 < level.size(); k += 2) {
      const Node a = nodes[level[k]];
      const Node b = nodes[level[k + 1]];
      if (ops != nullptr) *ops += a.feasible * b.feasible;
      Node node;
      node.left = static_cast<int>(level[k]);
      node.right = static_cast<int>(level[k + 1]);
      node.lo = a.lo + b.lo;
      node.size = a.size + b.size - 1;
      node.b_lo = a.b_lo + b.b_lo;
      node.b_size = a.b_size + b.b_size - 1;
      node.energy.assign(static_cast<std::size_t>(node.size) *
                             static_cast<std::size_t>(node.b_size),
                         std::numeric_limits<double>::infinity());
      for (int ba = 0; ba < a.b_size; ++ba) {
        for (int wa = 0; wa < a.size; ++wa) {
          for (int bb = 0; bb < b.b_size; ++bb) {
            for (int wb = 0; wb < b.size; ++wb) {
              const double v = a.cell(wa, ba) + b.cell(wb, bb);
              double& out = node.energy[static_cast<std::size_t>(ba + bb) *
                                            static_cast<std::size_t>(node.size) +
                                        static_cast<std::size_t>(wa + wb)];
              if (v < out) out = v;
            }
          }
        }
      }
      finish(node);
      next.push_back(nodes.size());
      nodes.push_back(std::move(node));
    }
    if (level.size() % 2 == 1) next.push_back(level.back());
    level = std::move(next);
  }
  return nodes;
}

/// The outcome of reduce_tree's nodes at the budget (total_ways,
/// total_shares): the root's cell, split at every interior node at the
/// first pair - left rows ascending, then left ways ascending - whose sum
/// equals the node's value (the tie rule of the workspace's backtracking).
inline GlobalOptResult backtrack(const std::vector<Node>& nodes, int total_ways,
                                 int total_shares) {
  GlobalOptResult out;
  const Node& root = nodes.back();
  const int rel_w = total_ways - root.lo;
  const int rel_b = total_shares - root.b_lo;
  if (rel_w < 0 || rel_w >= root.size || rel_b < 0 || rel_b >= root.b_size) return out;
  const double e = root.cell(rel_w, rel_b);
  if (std::isinf(e)) return out;
  const std::size_t leaves = (nodes.size() + 1) / 2;
  out.feasible = true;
  out.total_energy = e;
  out.ways.assign(leaves, 0);
  out.shares.assign(leaves, 0);
  const auto split = [&](auto&& self, int idx, int w, int b, double value) -> void {
    const Node& node = nodes[static_cast<std::size_t>(idx)];
    if (node.left < 0) {
      out.ways[static_cast<std::size_t>(idx)] = w;
      out.shares[static_cast<std::size_t>(idx)] = b;
      return;
    }
    const Node& a = nodes[static_cast<std::size_t>(node.left)];
    const Node& c = nodes[static_cast<std::size_t>(node.right)];
    for (int ba = 0; ba < a.b_size; ++ba) {
      const int bc = b - node.b_lo - ba;
      if (bc < 0 || bc >= c.b_size) continue;
      for (int wa = 0; wa < a.size; ++wa) {
        const int wc = w - node.lo - wa;
        if (wc < 0 || wc >= c.size) continue;
        if (a.cell(wa, ba) + c.cell(wc, bc) != value) continue;
        self(self, node.left, a.lo + wa, a.b_lo + ba, a.cell(wa, ba));
        self(self, node.right, c.lo + wc, c.b_lo + bc, c.cell(wc, bc));
        return;
      }
    }
    QOSRM_CHECK_MSG(false, "reference backtracking found no split");
  };
  split(split, static_cast<int>(nodes.size()) - 1, total_ways, total_shares, e);
  return out;
}

/// Exhaustive reference (exponential): depth-first enumeration of every
/// allocation summing to the two budgets, keeping the first strictly best.
inline GlobalOptResult brute_force(std::span<const EnergyCurve> curves,
                                   int total_ways, int total_shares) {
  QOSRM_CHECK(!curves.empty());
  GlobalOptResult best;
  best.total_energy = std::numeric_limits<double>::infinity();

  std::vector<int> ways(curves.size(), 0);
  std::vector<int> shares(curves.size(), 0);
  const auto recurse = [&](auto&& self, std::size_t core, int remaining_w,
                           int remaining_b, double energy) -> void {
    const EnergyCurve& curve = curves[core];
    const int n_w = curve.num_ways();
    const auto cell = [&](int w, int b) {
      return curve.energy[static_cast<std::size_t>(b - curve.min_shares) *
                              static_cast<std::size_t>(n_w) +
                          static_cast<std::size_t>(w - curve.min_ways)];
    };
    if (core + 1 == curves.size()) {
      if (remaining_w < curve.min_ways || remaining_w > curve.max_ways()) return;
      if (remaining_b < curve.min_shares || remaining_b > curve.max_shares()) {
        return;
      }
      const double e = cell(remaining_w, remaining_b);
      if (std::isinf(e)) return;
      if (energy + e < best.total_energy) {
        ways[core] = remaining_w;
        shares[core] = remaining_b;
        best.feasible = true;
        best.total_energy = energy + e;
        best.ways = ways;
        best.shares = shares;
      }
      return;
    }
    for (int b = curve.min_shares; b <= curve.max_shares(); ++b) {
      if (remaining_b - b < 0) break;
      for (int w = curve.min_ways; w <= curve.max_ways(); ++w) {
        const double e = cell(w, b);
        if (std::isinf(e)) continue;
        if (remaining_w - w < 0) break;
        ways[core] = w;
        shares[core] = b;
        self(self, core + 1, remaining_w - w, remaining_b - b, energy + e);
      }
    }
  };
  recurse(recurse, 0, total_ways, total_shares, 0.0);
  return best;
}

/// Ways-only exhaustive reference (share budget = sum of lowest shares).
inline GlobalOptResult brute_force(std::span<const EnergyCurve> curves,
                                   int total_ways) {
  return brute_force(curves, total_ways, ways_only_shares(views_of(curves)));
}

// The pre-workspace 1-D reduction over a tree of heap-allocated nodes, kept
// verbatim (minus ops counting) as the frozen equivalence oracle of the
// flat-buffer rewrite. Same pair order, same strict-less tie-breaking, same
// arithmetic - the results must match bit for bit.
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

inline std::unique_ptr<TreeNode> tree_leaf(const EnergyCurve& curve, int core) {
  auto node = std::make_unique<TreeNode>();
  node->lo = curve.min_ways;
  node->energy = curve.energy;
  node->first_core = core;
  node->last_core = core;
  return node;
}

inline std::unique_ptr<TreeNode> tree_combine(std::unique_ptr<TreeNode> a,
                                              std::unique_ptr<TreeNode> b) {
  auto node = std::make_unique<TreeNode>();
  node->lo = a->lo + b->lo;
  const int hi = a->hi() + b->hi();
  const auto size = static_cast<std::size_t>(hi - node->lo + 1);
  node->energy.assign(size, std::numeric_limits<double>::infinity());
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

inline void tree_backtrack(const TreeNode& node, int total, std::vector<int>& ways) {
  if (!node.left) {
    ways[static_cast<std::size_t>(node.first_core)] = total;
    return;
  }
  const int wl = node.left_ways[static_cast<std::size_t>(total - node.lo)];
  QOSRM_CHECK(wl >= 0);
  tree_backtrack(*node.left, wl, ways);
  tree_backtrack(*node.right, total - wl, ways);
}

inline GlobalOptResult tree_optimize(std::span<const EnergyCurve> curves,
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

}  // namespace ref

/// Whether the AVX2 kernels are compiled in and the CPU runs them.
inline bool avx2_available() { return simd::avx2_compiled() && simd::avx2_supported(); }

/// Read-only view of a workspace's per-node caches, for the tests that
/// check them against ref::reduce_tree.
struct GlobalOptWorkspaceProbe {
  const GlobalOptWorkspace& ws;

  [[nodiscard]] int num_nodes() const { return static_cast<int>(ws.num_nodes()); }
  [[nodiscard]] int root() const { return ws.root(); }
  [[nodiscard]] int lo(int i) const { return ws.lo_[idx(i)]; }
  [[nodiscard]] int size(int i) const { return ws.size_[idx(i)]; }
  [[nodiscard]] int b_size(int i) const { return ws.b_size_[idx(i)]; }
  [[nodiscard]] std::uint64_t feasible(int i) const { return ws.feasible_[idx(i)]; }
  [[nodiscard]] int first(int i, int r) const {
    return ws.span_first_[ws.span_off_[idx(i)] + static_cast<std::size_t>(r)];
  }
  [[nodiscard]] int last(int i, int r) const {
    return ws.span_last_[ws.span_off_[idx(i)] + static_cast<std::size_t>(r)];
  }
  /// Row r of node i with its margin: stride() cells.
  [[nodiscard]] const double* row(int i, int r) const { return ws.row(idx(i), r); }
  [[nodiscard]] int stride(int i) const { return static_cast<int>(ws.stride(idx(i))); }
  /// Whether node i is a root child computed only on a window of its row,
  /// and that window (first > last: nothing computed yet).
  [[nodiscard]] bool clipped(int i) const { return ws.clipped_[idx(i)] != 0; }
  [[nodiscard]] int window_first(int i) const { return ws.win_first_[idx(i)]; }
  [[nodiscard]] int window_last(int i) const { return ws.win_last_[idx(i)]; }

 private:
  static std::size_t idx(int i) { return static_cast<std::size_t>(i); }
};

/// Empty when every node of `ws` but the root matches reduce_tree's node of
/// the same index - shape, per-row spans, finite count, every computed cell
/// bit for bit (a clipped root child: the cells of its window) - and every
/// slot cell outside a row's span, leading margin included, is +inf (the
/// slot-margin invariant); otherwise the first mismatch, described.
inline std::string first_node_mismatch(const GlobalOptWorkspace& ws,
                                       const std::vector<ref::Node>& nodes) {
  const GlobalOptWorkspaceProbe probe{ws};
  if (probe.num_nodes() != static_cast<int>(nodes.size())) return "node count";
  const int slots = probe.num_nodes() == 1 ? 1 : probe.num_nodes() - 1;
  for (int i = 0; i < slots; ++i) {
    const ref::Node& node = nodes[static_cast<std::size_t>(i)];
    const std::string at = "node " + std::to_string(i) + ": ";
    if (probe.lo(i) != node.lo || probe.size(i) != node.size ||
        probe.b_size(i) != node.b_size) {
      return at + "shape";
    }
    if (probe.feasible(i) != node.feasible) {
      return at + "feasible " + std::to_string(probe.feasible(i)) + " != " +
             std::to_string(node.feasible);
    }
    for (int k = 1; k <= GlobalOptWorkspace::kPad; ++k) {
      if (probe.row(i, 0)[-k] != std::numeric_limits<double>::infinity()) {
        return at + "leading margin cell -" + std::to_string(k) + " is finite";
      }
    }
    for (int r = 0; r < node.b_size; ++r) {
      const int first = node.first[static_cast<std::size_t>(r)];
      const int last = node.last[static_cast<std::size_t>(r)];
      const std::string row_at = at + "row " + std::to_string(r) + ": ";
      const bool empty = first > last;  // all-infeasible: any first > last
      if ((probe.first(i, r) > probe.last(i, r)) != empty ||
          (!empty && (probe.first(i, r) != first || probe.last(i, r) != last))) {
        return row_at + "span [" + std::to_string(probe.first(i, r)) + ", " +
               std::to_string(probe.last(i, r)) + "] != [" + std::to_string(first) +
               ", " + std::to_string(last) + "]";
      }
      const double* cells = probe.row(i, r);
      for (int w = 0; w < probe.stride(i); ++w) {
        const std::string cell_at = row_at + "cell " + std::to_string(w);
        if (w < first || w > last) {
          if (cells[w] != std::numeric_limits<double>::infinity()) {
            return cell_at + " outside the span is finite";
          }
          continue;
        }
        if (probe.clipped(i) && (w < probe.window_first(i) || w > probe.window_last(i))) {
          continue;
        }
        if (std::bit_cast<std::uint64_t>(cells[w]) !=
            std::bit_cast<std::uint64_t>(node.cell(w, r))) {
          return cell_at + " differs";
        }
      }
    }
  }
  return "";
}

}  // namespace qosrm::rm

#endif  // QOSRM_TESTS_SUPPORT_GLOBAL_OPT_REF_HH

// Global shared-resource distribution (paper Fig. 3, Section III-A,
// generalized to the CBP multi-resource domain, arXiv:2102.11528).
//
// Minimizes  Sum_j E_j(w_j, b_j)  subject to  Sum_j w_j = A  (the total LLC
// way budget),  Sum_j b_j = B  (the total memory-bandwidth share budget) and
// per-core bounds, by iteratively reducing PAIRS of energy surfaces with a
// 2-D min-plus convolution:
//
//   E_{1+2}(W, B) = min over w1+w2 = W, b1+b2 = B of E_1(w1,b1) + E_2(w2,b2)
//
// and backtracking the argmins down the reduction. The complexity is
// polynomial in the core count (the paper's first stated advantage), and the
// interface between the local and global stages is exactly one energy
// surface per core (the second advantage). The ways-only problem is the
// degenerate case where every surface has a single share row: the
// convolution collapses to the paper's 1-D recurrence, with bit-identically
// the same values and splits (pinned by the randomized 1-D-oracle
// equivalence tests).
//
// The reduction runs over a persistent combine tree in flat, reusable
// structure-of-arrays buffers (GlobalOptWorkspace): an incremental call
// recombines only the root paths of the leaves that changed, each node
// caches the feasible spans and count its parent's combine reads, the
// per-interval-boundary invocation path performs no heap allocation once
// the workspace has warmed up, and the O(n^2 * W) feasible-pair inner loop
// dispatches to an AVX2 kernel where available (common/simd.hh; the scalar
// fallback is pinned bit-identical by the randomized equivalence tests). A
// single-row node is produced in one kernel pass that stores its span and
// counts it, and a root child is computed only on the window the root
// reads. See the README performance section.
#ifndef QOSRM_RM_GLOBAL_OPT_HH
#define QOSRM_RM_GLOBAL_OPT_HH

#include <cstdint>
#include <span>
#include <vector>

#include "common/simd.hh"

namespace qosrm::rm {

/// One core's energy as a function of its shared-resource allocation, viewed
/// in the caller's storage: a b-major surface with contiguous w-rows,
/// energy[(b - min_shares) * num_ways() + (w - min_ways)], where infinity
/// marks QoS-infeasible allocations. The `min_shares`/`num_shares` members
/// sit after `energy` so the ways-only positional initializer
/// {min_ways, energy} keeps its meaning: a single share row, i.e. the plain
/// 1-D energy curve.
struct EnergyCurveView {
  int min_ways = 2;
  std::span<const double> energy;
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

struct GlobalOptResult {
  bool feasible = false;
  double total_energy = 0.0;
  std::vector<int> ways;    ///< chosen way allocation per core (empty if infeasible)
  std::vector<int> shares;  ///< chosen bandwidth shares per core (ways-sized)
};

/// Persistent state of the pairwise reduction: a combine tree whose nodes
/// keep their surfaces across calls, in structure-of-arrays layout (index i
/// addresses one node across all the parallel vectors). Leaves are nodes
/// [0, n); interior nodes [n, 2n-1) are numbered in reduction order
/// (adjacent pairs per level, an odd node carried up), so both children of a
/// node precede it and the last node is the root.
///
/// Every node that can be a child owns a fixed-capacity slot of one dense
/// pool, sized for the widest leaf surfaces seen so far: a leaf holds a copy
/// of its caller surface, an interior node its combined surface. Each node
/// also caches what its parent's combine needs to know about it - the
/// feasible span of every b-row and its feasible-cell count - computed once
/// when the node is produced (a leaf's in the pass that copies it). A leaf
/// whose surface or shape changed - an idle core becoming active, say -
/// therefore only invalidates its ancestors: an incremental call walks each
/// flagged leaf's parent chain, marking the nodes in a bitset up to the
/// first ancestor already marked, and recombines the marked nodes in node
/// order (ascending bits), log2(n) nodes instead of n-1. Nothing in that
/// path visits every leaf. The charged op total is kept by difference, and a
/// call with no flagged leaf reuses the previous result outright. The
/// combined surfaces are pure functions of the leaves below them, so the
/// result and op count are bit-identical to a from-scratch reduction.
///
/// The workspace owns the result: GlobalOptimizer::optimize() returns a
/// reference to it, valid until the next call on the workspace, so a caller
/// that keeps the workspace (the ResourceManager) reads the allocation in
/// place; the optimize_into() overloads copy it out.
///
/// Every container keeps its capacity across calls, so a workspace that has
/// seen a problem shape once makes every call allocation-free. Not
/// thread-safe; use one workspace per thread.
class GlobalOptWorkspace {
 public:
  GlobalOptWorkspace() = default;

  /// Interior nodes the last call recombined: n-1 from scratch, 0 when no
  /// leaf was dirty.
  [[nodiscard]] int last_recombined() const noexcept { return last_recombined_; }

  /// Feasible-pair ops of the reduction the tree holds: what the last call
  /// charged, and what a call with no dirty leaf and the same budget would
  /// charge again.
  [[nodiscard]] std::uint64_t last_ops() const noexcept { return total_ops_; }

  /// The last call's outcome (infeasible before any call).
  [[nodiscard]] const GlobalOptResult& result() const noexcept { return result_; }

  /// +inf cells before a slot's first row and after each of its rows: the
  /// AVX2 kernel reads up to this far outside a right child's feasible span.
  static constexpr int kPad = 15;

 private:
  friend class GlobalOptimizer;
  friend struct GlobalOptWorkspaceProbe;  // read-only view for the tests

  // --- node metadata, SoA ----------------------------------------------------
  // A node covers total ways [lo_[i], lo_[i] + size_[i]) and total bandwidth
  // shares [b_lo_[i], b_lo_[i] + b_size_[i]); its surface is b-major with
  // w-rows of length size_[i], each followed by kPad +inf cells (row stride
  // size_[i] + kPad), in the pool slot starting at energy_off_[i] (which
  // kPad +inf cells precede). The root stores no surface unless it is the
  // only leaf: only its target cell is observable, kept in root_value_.
  //
  // Slot-margin invariant: every cell of a slot outside its node's row
  // spans - up to the end of its last row's margin - is +inf, so a kernel
  // may read a row's feasible span kPad cells beyond either end without a
  // bounds test. Whoever produces a node rewrites each row AND its margin,
  // because the node's previous surface may have been wider: the leaf copy
  // writes the row and fills the margin, a multi-row combine fills its
  // rows and margins before the kernels merge into them, and a single-row
  // combine stores its span outright and fills only the cells outside it.
  //
  // A clipped root child (clipped_[i]) holds valid cells only in its window
  // [win_first_[i], win_last_[i]]; the rest of its span is stale until the
  // root reads it (GlobalOptimizer::extend_window). Only the root reads a
  // root child, and only inside the window it has just extended.
  //
  // Row r of node i is feasible only within w indices
  // [span_first_[span_off_[i] + r], span_last_[...]] (first > last for an
  // all-infeasible row; there may be infinite holes inside), and the node
  // has feasible_[i] finite cells.
  //
  // The forward pass stores VALUES only - no argmin lanes. Backtracking
  // recovers each split by re-scanning the children for the first (ascending
  // wa) feasible pair whose sum equals the node's value bit-for-bit, which
  // is exactly the argmin a strict-less forward sweep would have recorded.
  // That halves the kernel's stores and drops the int32 blend path entirely,
  // at the cost of log2(cores) O(row) scans - executed once per recombining
  // call instead of once per cell.
  std::vector<int> lo_;
  std::vector<int> size_;
  std::vector<int> b_lo_;
  std::vector<int> b_size_;
  std::vector<int> leaves_;  ///< leaf count of the subtree (slot sizing)
  std::vector<int> left_;    ///< child node indices; -1 marks a leaf
  std::vector<int> right_;
  std::vector<int> parent_;  ///< parent node index; -1 marks the root
  std::vector<std::size_t> energy_off_;
  std::vector<std::size_t> span_off_;
  std::vector<std::uint64_t> feasible_;  ///< finite cells of the surface
  std::vector<std::uint64_t> pair_ops_;  ///< feasible pairs of the combine
  /// 1 for a root child whose cells are computed only on the window
  /// [win_first_, win_last_] of its single row (first > last: none yet);
  /// its span and count are exact.
  std::vector<std::uint8_t> clipped_;
  std::vector<int> win_first_;
  std::vector<int> win_last_;
  /// Per-call marks, one bit per node (bit i of word i / 64): the flagged
  /// leaves and their ancestors, which the call recombines and backtracking
  /// re-splits. All zero between calls.
  std::vector<std::uint64_t> marks_;
  /// The flagged leaves of an optimize_into() call, as optimize() reads them.
  std::vector<int> flagged_;

  // --- dense pools the leaf copies and the combines write -------------------
  std::vector<double> energy_;
  std::vector<int> span_first_;
  std::vector<int> span_last_;
  int cap_ways_ = 0;    ///< leaf ways extent the pool slots are sized for
  int cap_shares_ = 0;  ///< leaf share extent the pool slots are sized for

  // --- the last reduction's outcome (reused when no leaf is dirty) ---------
  bool valid_ = false;  ///< the tree holds a complete reduction
  int total_ways_ = 0;
  int total_shares_ = 0;
  double root_value_ = 0.0;
  std::uint64_t total_ops_ = 0;
  int last_recombined_ = 0;
  GlobalOptResult result_;

  /// Per interior node: the (w, b) target the last backtracking resolved it
  /// for (-1 when unknown). A node that was not recombined and is asked for
  /// the same target again splits exactly as before, so backtracking keeps
  /// the allocations result_ already holds for its leaves.
  std::vector<int> target_w_;
  std::vector<int> target_b_;

  [[nodiscard]] std::size_t num_nodes() const noexcept { return lo_.size(); }
  [[nodiscard]] int num_leaves() const noexcept {
    return static_cast<int>((num_nodes() + 1) / 2);
  }
  [[nodiscard]] int root() const noexcept { return static_cast<int>(num_nodes()) - 1; }
  /// Rebuilds the tree topology for `leaves` leaves (drops every surface).
  void build_tree(int leaves);
  /// Re-sizes the pool slots for leaf surfaces up to ways x shares.
  void layout(int ways, int shares);
  /// Forgets every node's backtracking target.
  void forget_targets();
  /// Copies leaf i's caller surface into its slot and caches its spans and
  /// finite count, all in one pass over each row.
  void copy_leaf(std::size_t i, const double* energy, bool vectorized);
  [[nodiscard]] bool marked(std::size_t i) const noexcept {
    return (marks_[i / 64] >> (i % 64) & 1U) != 0;
  }
  /// Marks node i and its ancestors up to the first one already marked.
  void mark_path(std::size_t i) noexcept;
  /// Row stride of node i's surface: its row length plus the margin.
  [[nodiscard]] std::size_t stride(std::size_t i) const noexcept {
    return static_cast<std::size_t>(size_[i]) + kPad;
  }
  /// Row r of node i's surface.
  [[nodiscard]] double* row(std::size_t i, int r) noexcept {
    return energy_.data() + energy_off_[i] + static_cast<std::size_t>(r) * stride(i);
  }
  [[nodiscard]] const double* row(std::size_t i, int r) const noexcept {
    return energy_.data() + energy_off_[i] + static_cast<std::size_t>(r) * stride(i);
  }
};

class GlobalOptimizer {
 public:
  /// The pairwise reduction over the persistent tree in `ws`; returns the
  /// workspace's result (GlobalOptWorkspace::result()). Only the ancestors
  /// of the `flagged` leaves (indices into `curves`, in any order, repeats
  /// allowed) are recombined, and with no flagged leaf the last result is
  /// reused (a new budget re-reads only the root).
  ///
  /// Leaf contract: a leaf whose surface OR shape (min_ways, number of
  /// ways, min_shares, num_shares) changed since the last call on `ws` MUST
  /// be flagged. Unflagged leaves are not read - neither validated nor
  /// copied - so their storage may move or hold anything; the exceptions
  /// are the calls that rebuild the tree (the first call, a new leaf count,
  /// or a flagged leaf wider than any before), which read every leaf. The
  /// call therefore costs O(flagged leaves x tree depth) besides its
  /// combines. Leaf cells are finite or +inf, never NaN (a -0 cell is read
  /// as +0). Results are bit-identical to a from-scratch reduction at every
  /// dispatch level (same reduction tree, same minima, same tie-breaking).
  ///
  /// `ops` (optional) accumulates DP steps for the RM instruction-overhead
  /// model; one op is one FEASIBLE-pair DP step, i.e. a ((w_a, b_a),
  /// (w_b, b_b)) cell combination whose both entries are finite - infeasible
  /// entries on either side are skipped without charge. Every combine is
  /// charged in full, clean or not (it models the paper's RM, not this
  /// host's work), and the count is independent of the SIMD dispatch level:
  /// a vectorized lane batch charges exactly the feasible pairs it covers,
  /// so the modeled RM overhead (and the golden CSVs) never depends on the
  /// vector width. Requesting Avx2 when the kernel is unavailable aborts.
  static const GlobalOptResult& optimize(std::span<const EnergyCurveView> curves,
                                         int total_ways, int total_shares,
                                         std::span<const int> flagged,
                                         GlobalOptWorkspace& ws,
                                         std::uint64_t* ops = nullptr,
                                         simd::Level level = simd::active_level());

  /// optimize() with the leaves flagged by dirty[i] != 0, the result copied
  /// into `out` (reusing its storage); an EMPTY `dirty` flags every leaf (a
  /// from-scratch reduction).
  static void optimize_into(std::span<const EnergyCurveView> curves,
                            int total_ways, int total_shares,
                            std::span<const std::uint8_t> dirty,
                            GlobalOptWorkspace& ws, GlobalOptResult& out,
                            std::uint64_t* ops = nullptr,
                            simd::Level level = simd::active_level());

  /// Ways-only from-scratch reduction: the share budget is the sum of the
  /// curves' lowest shares, so single-row (degenerate) surfaces - in
  /// particular every pre-CBP curve - optimize exactly as the 1-D problem.
  static void optimize_into(std::span<const EnergyCurveView> curves,
                            int total_ways, GlobalOptWorkspace& ws,
                            GlobalOptResult& out, std::uint64_t* ops = nullptr);

 private:
  /// Recombines interior node i from its children; returns its feasible-pair
  /// op count.
  static std::uint64_t combine(GlobalOptWorkspace& ws, std::size_t i,
                               int total_ways, int total_shares,
                               bool vectorized);
  /// Computes the cells of a clipped root child i that the window [lo, hi]
  /// adds to its computed window (a no-op for any other node).
  static void extend_window(GlobalOptWorkspace& ws, std::size_t i, int lo, int hi,
                            bool vectorized);
  /// Reads the root's target cell and backtracks the splits into ws.result_.
  static void extract(GlobalOptWorkspace& ws, int total_ways, int total_shares,
                      bool vectorized);
};

}  // namespace qosrm::rm

#endif  // QOSRM_RM_GLOBAL_OPT_HH

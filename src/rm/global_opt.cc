#include "rm/global_opt.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.hh"

#ifdef QOSRM_SIMD_HAVE_AVX2
#include <immintrin.h>
#endif

namespace qosrm::rm {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// ---------------------------------------------------------------------------
// Combine kernels: the min-plus update of one node surface from its children,
//
//   ne[out] = min(ne[out], ea + eb)   over every pair (ea, eb) landing on out
//
// The forward pass keeps values only - the argmin is recovered during
// backtracking by an equality re-scan (see extract), so the kernels carry no
// index lanes. Both kernels visit the pairs of any one output cell in the
// same order (left cells b-row-major, ascending w) and update with a strict
// less, so they leave bitwise-identical energies (pinned by the randomized
// equivalence tests in rm_test_global_opt).
//
// The scalar kernel folds one left cell into the output slice starting at ne
// (already offset by that cell's contribution), iterating the compacted
// feasible entries of the right child.

inline void combine_row_scalar(double ea, std::span<const int> feas_idx,
                               std::span<const double> feas_val, double* ne) {
  const std::size_t n = feas_idx.size();
  for (std::size_t k = 0; k < n; ++k) {
    const double v = ea + feas_val[k];
    const int idx = feas_idx[k];
    if (v < ne[idx]) ne[idx] = v;
  }
}

#ifdef QOSRM_SIMD_HAVE_AVX2

/// Output cells one AVX2 kernel block keeps in registers (four YMM
/// accumulators), and the +inf padding each side of a right row needs so
/// every block's loads stay inside the padded copy.
constexpr int kBlock = 16;
constexpr int kPad = kBlock - 1;

/// Output-stationary AVX2 kernel for one (left b-row, right b-row) pair:
///
///   out[k] = min(out[k], min over j of a[j] + b[k - j]),  k in [0, na+nb-1)
///
/// `a` is the left row's feasible span (it may hold infinite holes), `b` the
/// right row's feasible span inside a copy padded with kPad +inf cells on
/// each side. Each block of kBlock output cells accumulates every left cell
/// that reaches it in registers, ascending j, and is then folded into `out`
/// once - no store is reloaded inside the block, and a pair of rows costs
/// one call. minpd returns its SECOND operand unless the first is strictly
/// less, so min(v, acc) and min(acc, out) keep the earlier pair on ties
/// (±0 included) - the scalar strict-less update, bit for bit. A padding or
/// hole lane adds to +inf and can never win.
__attribute__((target("avx2"))) void combine_rows_avx2(const double* a, int na,
                                                       const double* b, int nb,
                                                       double* out) {
  const int n_out = na + nb - 1;
  const __m256d inf = _mm256_set1_pd(kInf);
  for (int o = 0; o < n_out; o += kBlock) {
    __m256d acc0 = inf;
    __m256d acc1 = inf;
    __m256d acc2 = inf;
    __m256d acc3 = inf;
    // Left cells whose pairs reach a cell of this block: the loads below
    // then read b[o - j .. o - j + kPad], which lies in [-kPad, nb-1 + kPad].
    const int j_lo = std::max(0, o - nb + 1);
    const int j_hi = std::min(na - 1, o + kBlock - 1);
    for (int j = j_lo; j <= j_hi; ++j) {
      const __m256d va = _mm256_broadcast_sd(a + j);
      const double* p = b + (o - j);
      acc0 = _mm256_min_pd(_mm256_add_pd(va, _mm256_loadu_pd(p)), acc0);
      acc1 = _mm256_min_pd(_mm256_add_pd(va, _mm256_loadu_pd(p + 4)), acc1);
      acc2 = _mm256_min_pd(_mm256_add_pd(va, _mm256_loadu_pd(p + 8)), acc2);
      acc3 = _mm256_min_pd(_mm256_add_pd(va, _mm256_loadu_pd(p + 12)), acc3);
    }
    double* dst = out + o;
    if (n_out - o >= kBlock) {
      _mm256_storeu_pd(dst, _mm256_min_pd(acc0, _mm256_loadu_pd(dst)));
      _mm256_storeu_pd(dst + 4, _mm256_min_pd(acc1, _mm256_loadu_pd(dst + 4)));
      _mm256_storeu_pd(dst + 8, _mm256_min_pd(acc2, _mm256_loadu_pd(dst + 8)));
      _mm256_storeu_pd(dst + 12, _mm256_min_pd(acc3, _mm256_loadu_pd(dst + 12)));
    } else {
      alignas(32) double tail[kBlock];
      _mm256_store_pd(tail, acc0);
      _mm256_store_pd(tail + 4, acc1);
      _mm256_store_pd(tail + 8, acc2);
      _mm256_store_pd(tail + 12, acc3);
      for (int k = 0; k < n_out - o; ++k) {
        if (tail[k] < dst[k]) dst[k] = tail[k];
      }
    }
  }
}

#endif  // QOSRM_SIMD_HAVE_AVX2

}  // namespace

void GlobalOptWorkspace::build_tree(int leaves) {
  // assign()/push_back keep capacity: a workspace that has seen a leaf count
  // once rebuilds its tree without allocating.
  lo_.assign(static_cast<std::size_t>(leaves), 0);
  size_.assign(static_cast<std::size_t>(leaves), 0);
  b_lo_.assign(static_cast<std::size_t>(leaves), 0);
  b_size_.assign(static_cast<std::size_t>(leaves), 0);
  leaves_.assign(static_cast<std::size_t>(leaves), 1);
  left_.assign(static_cast<std::size_t>(leaves), -1);
  right_.assign(static_cast<std::size_t>(leaves), -1);
  // Interior nodes in reduction order: adjacent pairs of each level, an odd
  // node carried to the next. feas_idx_ doubles as the level scratch here.
  std::vector<int>& level = feas_idx_;
  level.clear();
  for (int i = 0; i < leaves; ++i) level.push_back(i);
  while (level.size() > 1) {
    std::size_t kept = 0;
    for (std::size_t i = 0; i + 1 < level.size(); i += 2) {
      const auto a = static_cast<std::size_t>(level[i]);
      const auto b = static_cast<std::size_t>(level[i + 1]);
      level[kept++] = static_cast<int>(lo_.size());
      lo_.push_back(0);
      size_.push_back(0);
      b_lo_.push_back(0);
      b_size_.push_back(0);
      leaves_.push_back(leaves_[a] + leaves_[b]);
      left_.push_back(static_cast<int>(a));
      right_.push_back(static_cast<int>(b));
    }
    if (level.size() % 2 == 1) level[kept++] = level.back();
    level.resize(kept);
  }
  energy_off_.assign(num_nodes(), 0);
  leaf_energy_.assign(num_nodes(), nullptr);
  pair_ops_.assign(num_nodes(), 0);
  dirty_.assign(num_nodes(), 1);
  target_w_.assign(num_nodes(), -1);
  target_b_.assign(num_nodes(), -1);
  cap_ways_ = 0;
  cap_shares_ = 0;
  valid_ = false;
}

void GlobalOptWorkspace::layout(int ways, int shares) {
  // A node over k leaves of at most `ways` x `shares` cells spans at most
  // k(ways-1)+1 x k(shares-1)+1 cells. The root needs no slot.
  cap_ways_ = ways;
  cap_shares_ = shares;
  std::size_t off = 0;
  const auto leaves = static_cast<std::size_t>(num_leaves());
  for (std::size_t i = leaves; i + 1 < num_nodes(); ++i) {
    const auto k = static_cast<std::size_t>(leaves_[i]);
    energy_off_[i] = off;
    off += (k * static_cast<std::size_t>(ways - 1) + 1) *
           (k * static_cast<std::size_t>(shares - 1) + 1);
  }
  energy_.resize(off);
  valid_ = false;
  forget_targets();
}

void GlobalOptWorkspace::forget_targets() {
  std::fill(target_w_.begin(), target_w_.end(), -1);
  std::fill(target_b_.begin(), target_b_.end(), -1);
}

void GlobalOptimizer::optimize_into(std::span<const EnergyCurveView> curves,
                                    int total_ways, GlobalOptWorkspace& ws,
                                    GlobalOptResult& out, std::uint64_t* ops) {
  // Every core at its lowest share: for single-row (degenerate) surfaces
  // this is the only feasible share budget.
  int total_shares = 0;
  for (const EnergyCurveView& c : curves) total_shares += c.min_shares;
  optimize_into(curves, total_ways, total_shares, {}, ws, out, ops);
}

std::uint64_t GlobalOptimizer::combine(GlobalOptWorkspace& ws, std::size_t i,
                                       int total_ways, int total_shares,
                                       bool vectorized) {
  const auto ai = static_cast<std::size_t>(ws.left_[i]);
  const auto bi = static_cast<std::size_t>(ws.right_[i]);
  const int a_lo = ws.lo_[ai];
  const int a_size = ws.size_[ai];
  const int a_b_lo = ws.b_lo_[ai];
  const int a_b_size = ws.b_size_[ai];
  const int b_lo = ws.lo_[bi];
  const int b_size = ws.size_[bi];
  const int b_b_lo = ws.b_lo_[bi];
  const int b_b_size = ws.b_size_[bi];

  const int n_lo = a_lo + b_lo;
  const int n_size = a_size + b_size - 1;
  const int n_b_lo = a_b_lo + b_b_lo;
  const int n_b_size = a_b_size + b_b_size - 1;
  ws.lo_[i] = n_lo;
  ws.size_[i] = n_size;
  ws.b_lo_[i] = n_b_lo;
  ws.b_size_[i] = n_b_size;

  // The root combine produces a surface that is only ever read at one cell
  // (total_ways, total_shares), so it evaluates just that cell - an O(a+b)
  // scan instead of the O(a*b) row sweep. The cell is accumulated over the
  // same pairs in the same ia-ascending strict-less order, so its value and
  // argmin are bit-identical to the full sweep's. The charged op count stays
  // the full feasible-pair product: ops are the MODEL of the RM's work
  // (paper Section III-E) and must not depend on which cells an
  // implementation can prove dead, exactly as they must not depend on the
  // SIMD width.
  const bool root_combine = static_cast<int>(i) == ws.root();
  const double* ea_arr = ws.surface(ai);
  const double* eb_arr = ws.surface(bi);
  double* ne = nullptr;
  if (!root_combine) {
    ne = ws.energy_.data() + ws.energy_off_[i];
    std::fill(ne, ne + static_cast<std::size_t>(n_size) * static_cast<std::size_t>(n_b_size),
              kInf);
  }

  // Compact the right child's feasible cells once, in storage order
  // (b-row-major, ascending w - so the pair visit order, and thus the
  // first-split tie-breaking, matches the plain quadruple loop). A cell's
  // stored index is its CONTRIBUTION to the output flat index,
  // ibb * n_size + ib: because n_size = a_size + b_size - 1, the w parts of
  // any (left, right) pair can never carry into the b-row term, so
  // out_flat = left_contribution + right_contribution. The scalar kernel
  // consumes the compacted arrays. The vector kernel instead reads each
  // right b-row's feasible span (infinite prefix/suffix entries can never
  // win a strict-less) from a copy padded with +inf, built here once per
  // combine. With a single b-row everything reduces exactly to the 1-D
  // compaction.
  ws.feas_idx_.clear();
  ws.feas_val_.clear();
  ws.feas_row_first_.clear();
  ws.feas_row_last_.clear();
  const bool compact_b = !vectorized && !root_combine;
  std::uint64_t n_feas_b = 0;
  for (int ibb = 0; ibb < b_b_size; ++ibb) {
    const double* eb_row = eb_arr + static_cast<std::size_t>(ibb) *
                                        static_cast<std::size_t>(b_size);
    int row_first = -1;  // feasible span of this b-row
    int row_last = -1;
    for (int ib = 0; ib < b_size; ++ib) {
      const double eb = eb_row[ib];
      if (std::isinf(eb)) continue;
      ++n_feas_b;
      row_first = row_first < 0 ? ib : row_first;
      row_last = ib;
      if (compact_b) {
        ws.feas_idx_.push_back(ibb * n_size + ib);
        ws.feas_val_.push_back(eb);
      }
    }
    ws.feas_row_first_.push_back(row_first);
    ws.feas_row_last_.push_back(row_last);
  }
#ifdef QOSRM_SIMD_HAVE_AVX2
  if (vectorized && !root_combine) {
    // The feasible spans back to back, each followed by kPad +inf cells
    // that double as the next span's leading padding.
    std::size_t total = kPad;
    for (int ibb = 0; ibb < b_b_size; ++ibb) {
      const auto r = static_cast<std::size_t>(ibb);
      const int first = ws.feas_row_first_[r];
      if (first < 0) continue;
      total += static_cast<std::size_t>(ws.feas_row_last_[r] - first + 1 + kPad);
    }
    ws.pad_.assign(total, kInf);
    ws.pad_off_.assign(static_cast<std::size_t>(b_b_size), 0);
    std::size_t off = kPad;
    for (int ibb = 0; ibb < b_b_size; ++ibb) {
      const auto r = static_cast<std::size_t>(ibb);
      const int first = ws.feas_row_first_[r];
      if (first < 0) continue;
      const double* eb_row = eb_arr + static_cast<std::size_t>(ibb) *
                                          static_cast<std::size_t>(b_size);
      const int last = ws.feas_row_last_[r];
      std::copy(eb_row + first, eb_row + last + 1, ws.pad_.data() + off);
      ws.pad_off_[r] = off;
      off += static_cast<std::size_t>(last - first + 1 + kPad);
    }
  }
#endif

  // One op = one feasible-pair DP step, counted uniformly whichever side an
  // infeasible entry is on (accumulated in bulk per feasible cell) and
  // independent of how many lanes a kernel call covers.
  std::uint64_t feas_a = 0;
  if (root_combine) {
    // Only the (total_ways, total_shares) cell of the root surface is
    // observable: evaluate it directly (and count the feasible left cells
    // for the op charge). Out-of-range targets leave the value infinite,
    // which the feasibility check reports just like the full sweep would.
    const int target_w = total_ways - n_lo;
    const int target_b = total_shares - n_b_lo;
    double best = kInf;
    for (int iba = 0; iba < a_b_size; ++iba) {
      const double* ea_row = ea_arr + static_cast<std::size_t>(iba) *
                                          static_cast<std::size_t>(a_size);
      for (int ia = 0; ia < a_size; ++ia) {
        const double ea = ea_row[ia];
        if (std::isinf(ea)) continue;
        ++feas_a;
        const int ibb = target_b - iba;
        if (ibb < 0 || ibb >= b_b_size) continue;
        const int ib = target_w - ia;
        if (ib < 0 || ib >= b_size) continue;
        const double v =
            ea + eb_arr[static_cast<std::size_t>(ibb) *
                            static_cast<std::size_t>(b_size) +
                        static_cast<std::size_t>(ib)];
        if (v < best) best = v;
      }
    }
    const bool in_range =
        target_w >= 0 && target_w < n_size && target_b >= 0 && target_b < n_b_size;
    ws.root_value_ = in_range ? best : kInf;
  } else if (n_feas_b > 0 && vectorized) {
#ifdef QOSRM_SIMD_HAVE_AVX2
    // One kernel call per (left b-row, right b-row) pair, left rows
    // ascending: for any output cell this visits the pairs in the scalar
    // kernel's (iba, ia) order.
    for (int iba = 0; iba < a_b_size; ++iba) {
      const double* ea_row = ea_arr + static_cast<std::size_t>(iba) *
                                          static_cast<std::size_t>(a_size);
      int first = -1;  // feasible span of this left row
      int last = -1;
      for (int ia = 0; ia < a_size; ++ia) {
        if (std::isinf(ea_row[ia])) continue;
        ++feas_a;
        first = first < 0 ? ia : first;
        last = ia;
      }
      if (first < 0) continue;
      for (int ibb = 0; ibb < b_b_size; ++ibb) {
        const auto r = static_cast<std::size_t>(ibb);
        const int row_first = ws.feas_row_first_[r];
        if (row_first < 0) continue;  // all-infeasible b-row
        combine_rows_avx2(ea_row + first, last - first + 1,
                          ws.pad_.data() + ws.pad_off_[r],
                          ws.feas_row_last_[r] - row_first + 1,
                          ne + (iba + ibb) * n_size + first + row_first);
      }
    }
#endif
  } else if (n_feas_b > 0) {
    for (int iba = 0; iba < a_b_size; ++iba) {
      const double* ea_row = ea_arr + static_cast<std::size_t>(iba) *
                                          static_cast<std::size_t>(a_size);
      for (int ia = 0; ia < a_size; ++ia) {
        const double ea = ea_row[ia];
        if (std::isinf(ea)) continue;
        ++feas_a;
        // Output flat index: left contribution iba * n_size + ia plus the
        // right cell's stored contribution (no w carry, see above).
        combine_row_scalar(ea, ws.feas_idx_, ws.feas_val_, ne + iba * n_size + ia);
      }
    }
  }
  return feas_a * n_feas_b;
}

void GlobalOptimizer::optimize_into(std::span<const EnergyCurveView> curves,
                                    int total_ways, int total_shares,
                                    std::span<const std::uint8_t> dirty,
                                    GlobalOptWorkspace& ws,
                                    GlobalOptResult& out, std::uint64_t* ops,
                                    simd::Level level) {
  QOSRM_CHECK(!curves.empty());
  QOSRM_CHECK(dirty.empty() || dirty.size() == curves.size());
  const bool vectorized = level == simd::Level::Avx2;
#ifndef QOSRM_SIMD_HAVE_AVX2
  QOSRM_CHECK_MSG(!vectorized,
                  "AVX2 dispatch requested but the kernel was not compiled");
#endif

  const int n = static_cast<int>(curves.size());
  if (n != ws.num_leaves()) ws.build_tree(n);
  int max_ways = 0;
  int max_shares = 0;
  for (const EnergyCurveView& c : curves) {
    QOSRM_CHECK(!c.energy.empty());
    QOSRM_CHECK(c.num_shares >= 1);
    QOSRM_CHECK(static_cast<int>(c.energy.size()) % c.num_shares == 0);
    max_ways = std::max(max_ways, c.num_ways());
    max_shares = std::max(max_shares, c.num_shares);
  }
  if (max_ways > ws.cap_ways_ || max_shares > ws.cap_shares_) {
    ws.layout(std::max(max_ways, ws.cap_ways_), std::max(max_shares, ws.cap_shares_));
  }

  // Leaves view the input surfaces directly - no copy. A leaf is dirty when
  // the caller says so, when its shape changed, or when the tree holds no
  // complete reduction yet.
  const bool all_dirty = dirty.empty() || !ws.valid_;
  for (std::size_t i = 0; i < curves.size(); ++i) {
    const EnergyCurveView& c = curves[i];
    const bool reshaped = ws.lo_[i] != c.min_ways || ws.size_[i] != c.num_ways() ||
                          ws.b_lo_[i] != c.min_shares || ws.b_size_[i] != c.num_shares;
    ws.lo_[i] = c.min_ways;
    ws.size_[i] = c.num_ways();
    ws.b_lo_[i] = c.min_shares;
    ws.b_size_[i] = c.num_shares;
    ws.leaf_energy_[i] = c.energy.data();
    ws.dirty_[i] = all_dirty || reshaped || dirty[i] != 0;
  }
  for (std::size_t i = curves.size(); i < ws.num_nodes(); ++i) {
    ws.dirty_[i] = ws.dirty_[static_cast<std::size_t>(ws.left_[i])] |
                   ws.dirty_[static_cast<std::size_t>(ws.right_[i])];
  }
  const auto root = static_cast<std::size_t>(ws.root());
  // A new budget only moves the root's target cell.
  if (total_ways != ws.total_ways_ || total_shares != ws.total_shares_) {
    ws.dirty_[root] = 1;
    ws.total_ways_ = total_ways;
    ws.total_shares_ = total_shares;
  }

  ws.last_recombined_ = 0;
  if (ws.dirty_[root] != 0) {
    // Recombine the dirty interior nodes bottom-up (children precede their
    // parent in node order), then re-derive the result.
    ws.total_ops_ = 0;
    for (std::size_t i = curves.size(); i < ws.num_nodes(); ++i) {
      if (ws.dirty_[i] != 0) {
        ws.pair_ops_[i] = combine(ws, i, total_ways, total_shares, vectorized);
        ++ws.last_recombined_;
      }
      ws.total_ops_ += ws.pair_ops_[i];
    }
    extract(ws, total_ways, total_shares);
    ws.valid_ = true;
  }
  if (ops != nullptr) *ops += ws.total_ops_;
  const GlobalOptResult& r = ws.result_;
  out.feasible = r.feasible;
  out.total_energy = r.total_energy;
  out.ways.assign(r.ways.begin(), r.ways.end());
  out.shares.assign(r.shares.begin(), r.shares.end());
}

void GlobalOptimizer::extract(GlobalOptWorkspace& ws, int total_ways,
                              int total_shares) {
  GlobalOptResult& out = ws.result_;
  const auto root = static_cast<std::size_t>(ws.root());
  const int root_lo = ws.lo_[root];
  const int root_hi = root_lo + ws.size_[root] - 1;
  const int root_b_lo = ws.b_lo_[root];
  const int root_b_hi = root_b_lo + ws.b_size_[root] - 1;
  double e = kInf;
  if (total_ways >= root_lo && total_ways <= root_hi && total_shares >= root_b_lo &&
      total_shares <= root_b_hi) {
    e = ws.left_[root] >= 0
            ? ws.root_value_
            : ws.leaf_energy_[root][static_cast<std::size_t>(total_shares - root_b_lo) *
                                        static_cast<std::size_t>(ws.size_[root]) +
                                    static_cast<std::size_t>(total_ways - root_lo)];
  }
  if (std::isinf(e)) {
    out.feasible = false;
    out.total_energy = 0.0;
    out.ways.clear();
    out.shares.clear();
    ws.forget_targets();  // no leaf allocation backs them any more
    return;
  }

  const auto n = static_cast<std::size_t>(ws.num_leaves());
  out.feasible = true;
  out.total_energy = e;
  if (out.ways.size() != n) {
    out.ways.assign(n, 0);
    out.shares.assign(n, 0);
    ws.forget_targets();
  }

  // Backtrack the argmin splits down the reduction (depth is log2(cores), so
  // plain recursion over node indices needs no scratch). The forward pass
  // stores no argmin lanes; each split is recovered here by re-scanning the
  // left child's cells in the same storage order (b-row-major, ascending w -
  // the order the forward kernels visit pairs for any fixed output cell) for
  // the first feasible pair whose sum reproduces the node's value
  // bit-for-bit. The strict-less forward sweep keeps the FIRST pair
  // attaining the final minimum, and the sums are the same IEEE double
  // additions, so the recovered split is identical to a recorded one.
  //
  // A node this call did not recombine has the surface it had when it last
  // split; asked for the same target, it splits the same way all the way
  // down, so the leaf allocations below it in `out` are already right and
  // the scan skips the whole subtree. Cost: one surface scan per node on a
  // dirty leaf's root path (or whose target moved) - versus an index blend
  // in every kernel step.
  const auto backtrack = [&ws, &out](auto&& self, std::size_t idx, int total_w,
                                     int total_b, double value) -> void {
    if (ws.left_[idx] < 0) {  // leaf: node index == core
      out.ways[idx] = total_w;
      out.shares[idx] = total_b;
      return;
    }
    if (ws.dirty_[idx] == 0 && ws.target_w_[idx] == total_w &&
        ws.target_b_[idx] == total_b) {
      return;
    }
    ws.target_w_[idx] = total_w;
    ws.target_b_[idx] = total_b;
    const auto ai = static_cast<std::size_t>(ws.left_[idx]);
    const auto bi = static_cast<std::size_t>(ws.right_[idx]);
    const double* ea_arr = ws.surface(ai);
    const double* eb_arr = ws.surface(bi);
    const int a_size = ws.size_[ai];
    const int b_size = ws.size_[bi];
    const int a_b_size = ws.b_size_[ai];
    const int b_b_size = ws.b_size_[bi];
    const int rel_w = total_w - ws.lo_[idx];
    const int rel_b = total_b - ws.b_lo_[idx];
    int wl = -1;
    int bl = 0;
    double ea_val = 0.0;
    double eb_val = 0.0;
    for (int iba = 0; iba < a_b_size && wl < 0; ++iba) {
      const int ibb = rel_b - iba;
      if (ibb < 0 || ibb >= b_b_size) continue;
      const double* ea_row = ea_arr + static_cast<std::size_t>(iba) *
                                          static_cast<std::size_t>(a_size);
      const double* eb_row = eb_arr + static_cast<std::size_t>(ibb) *
                                          static_cast<std::size_t>(b_size);
      for (int ia = 0; ia < a_size; ++ia) {
        const double ea = ea_row[ia];
        if (std::isinf(ea)) continue;
        const int ib = rel_w - ia;
        if (ib < 0 || ib >= b_size) continue;
        const double eb = eb_row[ib];
        if (ea + eb == value) {
          wl = ws.lo_[ai] + ia;
          bl = ws.b_lo_[ai] + iba;
          ea_val = ea;
          eb_val = eb;
          break;
        }
      }
    }
    QOSRM_CHECK_MSG(wl >= 0, "backtracking through an infeasible entry");
    self(self, ai, wl, bl, ea_val);
    self(self, bi, total_w - wl, total_b - bl, eb_val);
  };
  backtrack(backtrack, root, total_ways, total_shares, e);
}

}  // namespace qosrm::rm

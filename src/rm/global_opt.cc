#include "rm/global_opt.hh"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

#include "common/check.hh"

#ifdef QOSRM_SIMD_HAVE_AVX2
#include <immintrin.h>
#endif

namespace qosrm::rm {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

constexpr int kPad = GlobalOptWorkspace::kPad;

// ---------------------------------------------------------------------------
// Combine kernels: the min-plus update of one output row from one (left
// b-row, right b-row) pair of feasible spans,
//
//   out[k] = min(out[k], min over j of a[j] + b[k - j]),  k in [0, na+nb-1)
//
// in MERGE mode (a multi-row node: several row pairs fold into one output
// row), or out[k] = min over j of a[j] + b[k - j] in STORE mode (a
// single-row node: one row pair writes the whole span and counts its
// finite cells). The forward pass keeps values only - the argmin is
// recovered during backtracking by an equality re-scan (see extract), so
// the kernels carry no index lanes. Each cell is the minimum of a set of
// exact IEEE sums, and that minimum is one bit pattern whatever order the
// kernels visit the set in: no sum is NaN (a NaN sum never wins a strict
// less or a minpd against its accumulator, so it is never part of the
// set) and none is -0 (copy_leaf maps -0 leaf cells to +0, and a sum of
// two non-(-0) values is never -0). So the kernels are free to split and
// reorder the pairs of a cell and still leave bitwise-identical energies
// (pinned by the randomized equivalence tests in rm_test_global_opt). A
// span may hold infinite holes: a hole adds to +inf and can never win.

inline void combine_rows_scalar(const double* a, int na, const double* b, int nb,
                                double* out) {
  for (int j = 0; j < na; ++j) {
    const double ea = a[j];
    if (ea == kInf) continue;
    double* o = out + j;
    for (int k = 0; k < nb; ++k) {
      const double v = ea + b[k];
      if (v < o[k]) o[k] = v;
    }
  }
}

/// Store mode over the output cells [o_lo, o_hi): each cell is written
/// outright, and the finite ones are counted.
inline std::uint64_t store_row_scalar(const double* a, int na, const double* b,
                                      int nb, double* out, int o_lo, int o_hi) {
  std::uint64_t n = 0;
  for (int k = o_lo; k < o_hi; ++k) {
    double best = kInf;
    for (int j = std::max(0, k - nb + 1); j <= std::min(na - 1, k); ++j) {
      const double v = a[j] + b[k - j];
      if (v < best) best = v;
    }
    out[k] = best;
    n += best != kInf ? 1 : 0;
  }
  return n;
}

/// min(best, a[ia] + b[t - ia] for ia in [lo, hi]), ascending ia with a
/// strict less: one row pair's share of the root cell.
inline double root_cell_scalar(const double* a, const double* b, int t, int lo,
                               int hi, double best) {
  for (int ia = lo; ia <= hi; ++ia) {
    const double v = a[ia] + b[t - ia];
    best = v < best ? v : best;
  }
  return best;
}

/// What a leaf row's copy pass finds: its feasible span [first, last]
/// ([cols, -1] for an all-infeasible row) and its finite cells.
struct RowSpan {
  int first;
  int last;
  std::uint64_t finite;
};

/// Copies src[0, cols) to dst as x + 0.0, which maps -0 to +0 and keeps
/// every other value, so no cell of the tree is -0 and the kernels' minima
/// are order-independent; finds the row's span and count on the way.
inline RowSpan copy_row_scalar(const double* src, int cols, double* dst) {
  RowSpan span{cols, -1, 0};
  for (int k = 0; k < cols; ++k) {
    const double x = src[k] + 0.0;
    dst[k] = x;
    if (x == kInf) continue;
    if (span.first == cols) span.first = k;
    span.last = k;
    ++span.finite;
  }
  return span;
}

/// First ia in [lo, hi] with a[ia] + b[t - ia] == value, or -1.
inline int find_split_scalar(const double* a, const double* b, int t, int lo,
                             int hi, double value) {
  for (int ia = lo; ia <= hi; ++ia) {
    if (a[ia] + b[t - ia] == value) return ia;
  }
  return -1;
}

#ifdef QOSRM_SIMD_HAVE_AVX2

/// Output cells one AVX2 kernel block keeps in registers (four YMM
/// accumulators); a block's loads reach kBlock - 1 cells past either end of
/// the right span, which the slot margins cover.
constexpr int kBlock = 16;
static_assert(kPad >= kBlock - 1, "slot margins must cover a kernel block");

/// Left cells a block must reach before combine_rows_avx2 splits them over
/// two accumulator sets. One set is a dependent minpd chain per accumulator;
/// a second set halves the chain at the cost of a fold per block, which
/// slows the short spans of 15-way leaves and pays on the wider ones of the
/// upper tree levels.
constexpr int kTwoChainMin = 24;

/// acc[0..3] = min(a[j] + p[0..15], acc[0..3]): one left cell against the
/// kBlock right cells it pairs with in one block.
__attribute__((target("avx2"), always_inline)) inline void accumulate(
    const double* aj, const double* p, __m256d& acc0, __m256d& acc1,
    __m256d& acc2, __m256d& acc3) {
  const __m256d va = _mm256_broadcast_sd(aj);
  acc0 = _mm256_min_pd(_mm256_add_pd(va, _mm256_loadu_pd(p)), acc0);
  acc1 = _mm256_min_pd(_mm256_add_pd(va, _mm256_loadu_pd(p + 4)), acc1);
  acc2 = _mm256_min_pd(_mm256_add_pd(va, _mm256_loadu_pd(p + 8)), acc2);
  acc3 = _mm256_min_pd(_mm256_add_pd(va, _mm256_loadu_pd(p + 12)), acc3);
}

/// count + one per finite lane of v: a finite lane compares all-ones (-1 as
/// an int64) against +inf.
__attribute__((target("avx2"), always_inline)) inline __m256i count_finite_lanes(
    __m256d v, __m256i count) {
  const __m256d cmp = _mm256_cmp_pd(v, _mm256_set1_pd(kInf), _CMP_NEQ_UQ);
  return _mm256_sub_epi64(count, _mm256_castpd_si256(cmp));
}

/// Output-stationary AVX2 kernel: `b` is a right row's feasible span read in
/// place in its slot, whose +inf margins make the out-of-span loads
/// harmless. Each block of kBlock output cells accumulates every left cell
/// that reaches it in registers - even and odd left cells in two
/// accumulator sets once the block reaches kTwoChainMin of them - and is
/// then written once: no store is reloaded inside the block, and a pair of
/// rows costs one call. minpd returns its second operand unless the first
/// is strictly less, so a NaN sum (a hole against an -inf, say) never
/// enters an accumulator, as in the scalar strict-less update.
///
/// The blocks start at o_lo and cover [o_lo, o_hi). kStore (a single-row
/// node) writes every block whole - each of its cells gets its exact
/// minimum, since the block visits every left cell that reaches any of
/// them - and returns the finite cells written. A block's cells past the
/// output span pair a[j] only with right-margin cells, so they hold +inf;
/// the last block ends at most kBlock - 1 cells past the span, inside the
/// output row's margin. Merge mode folds each block into `out` with a
/// minimum and leaves the cells past the span alone (another row pair may
/// own them).
template <bool kStore>
__attribute__((target("avx2"))) std::uint64_t combine_rows_avx2(
    const double* a, int na, const double* b, int nb, double* out, int o_lo,
    int o_hi) {
  const int n_out = na + nb - 1;
  const __m256d inf = _mm256_set1_pd(kInf);
  __m256i finite = _mm256_setzero_si256();
  for (int o = o_lo; o < o_hi; o += kBlock) {
    __m256d acc0 = inf;
    __m256d acc1 = inf;
    __m256d acc2 = inf;
    __m256d acc3 = inf;
    // Left cells whose pairs reach a cell of this block: the loads then
    // read b[o - j .. o - j + kBlock - 1], which lies in
    // [-(kBlock - 1), nb - 1 + kBlock - 1].
    const int j_lo = std::max(0, o - nb + 1);
    const int j_hi = std::min(na - 1, o + kBlock - 1);
    int j = j_lo;
    if (j_hi - j_lo + 1 >= kTwoChainMin) {
      __m256d odd0 = inf;
      __m256d odd1 = inf;
      __m256d odd2 = inf;
      __m256d odd3 = inf;
      for (; j < j_hi; j += 2) {
        accumulate(a + j, b + (o - j), acc0, acc1, acc2, acc3);
        accumulate(a + j + 1, b + (o - j - 1), odd0, odd1, odd2, odd3);
      }
      acc0 = _mm256_min_pd(odd0, acc0);
      acc1 = _mm256_min_pd(odd1, acc1);
      acc2 = _mm256_min_pd(odd2, acc2);
      acc3 = _mm256_min_pd(odd3, acc3);
    }
    for (; j <= j_hi; ++j) accumulate(a + j, b + (o - j), acc0, acc1, acc2, acc3);
    double* dst = out + o;
    if constexpr (kStore) {
      _mm256_storeu_pd(dst, acc0);
      _mm256_storeu_pd(dst + 4, acc1);
      _mm256_storeu_pd(dst + 8, acc2);
      _mm256_storeu_pd(dst + 12, acc3);
      finite = count_finite_lanes(acc0, finite);
      finite = count_finite_lanes(acc1, finite);
      finite = count_finite_lanes(acc2, finite);
      finite = count_finite_lanes(acc3, finite);
    } else if (n_out - o >= kBlock) {
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
  if constexpr (!kStore) return 0;
  alignas(32) std::uint64_t lanes[4];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), finite);
  return lanes[0] + lanes[1] + lanes[2] + lanes[3];
}

/// find_split_scalar four pairs at a time: a[ia..ia+3] against the reversed
/// b[t-ia-3..t-ia], the lowest matching lane first - the same ia the scalar
/// scan returns, since both compare the same IEEE sums.
__attribute__((target("avx2"))) int find_split_avx2(const double* a,
                                                    const double* b, int t,
                                                    int lo, int hi,
                                                    double value) {
  const __m256d target = _mm256_set1_pd(value);
  int ia = lo;
  for (; ia + 3 <= hi; ia += 4) {
    const __m256d va = _mm256_loadu_pd(a + ia);
    const __m256d vb = _mm256_permute4x64_pd(_mm256_loadu_pd(b + (t - ia - 3)),
                                             _MM_SHUFFLE(0, 1, 2, 3));
    const int mask = _mm256_movemask_pd(
        _mm256_cmp_pd(_mm256_add_pd(va, vb), target, _CMP_EQ_OQ));
    if (mask != 0) return ia + std::countr_zero(static_cast<unsigned>(mask));
  }
  return find_split_scalar(a, b, t, ia, hi, value);
}

/// root_cell_scalar four pairs at a time: a[ia..ia+3] against the reversed
/// b[t-ia-3..t-ia] (every load stays inside [lo, hi] and its partner
/// range), one strict-less minimum per lane, the lanes folded in order and
/// the tail left to the scalar loop. The sums are the scalar ones, and their
/// minimum is one bit pattern whatever the visiting order (see the kernel
/// notes above: no NaN enters a minimum and no cell is -0), so the cell is
/// bit-identical to the scalar scan.
__attribute__((target("avx2"))) double root_cell_avx2(const double* a,
                                                      const double* b, int t,
                                                      int lo, int hi,
                                                      double best) {
  int ia = lo;
  if (hi - lo >= 3) {
    __m256d acc = _mm256_set1_pd(kInf);
    for (; ia + 3 <= hi; ia += 4) {
      const __m256d va = _mm256_loadu_pd(a + ia);
      const __m256d vb = _mm256_permute4x64_pd(_mm256_loadu_pd(b + (t - ia - 3)),
                                               _MM_SHUFFLE(0, 1, 2, 3));
      acc = _mm256_min_pd(_mm256_add_pd(va, vb), acc);
    }
    alignas(32) double lanes[4];
    _mm256_store_pd(lanes, acc);
    for (const double v : lanes) best = v < best ? v : best;
  }
  return root_cell_scalar(a, b, t, ia, hi, best);
}

/// copy_row_scalar four cells at a time: one movemask of the finite lanes
/// per group gives the count and both ends of the span; the tail is scalar.
__attribute__((target("avx2"))) RowSpan copy_row_avx2(const double* src, int cols,
                                                      double* dst) {
  const __m256d inf = _mm256_set1_pd(kInf);
  const __m256d zero = _mm256_setzero_pd();
  RowSpan span{cols, -1, 0};
  int k = 0;
  for (; k + 4 <= cols; k += 4) {
    const __m256d v = _mm256_add_pd(_mm256_loadu_pd(src + k), zero);
    _mm256_storeu_pd(dst + k, v);
    const auto finite =
        static_cast<unsigned>(_mm256_movemask_pd(_mm256_cmp_pd(v, inf, _CMP_NEQ_UQ)));
    if (finite == 0) continue;
    if (span.first == cols) span.first = k + std::countr_zero(finite);
    span.last = k + 31 - std::countl_zero(finite);
    span.finite += static_cast<std::uint64_t>(std::popcount(finite));
  }
  for (; k < cols; ++k) {
    const double x = src[k] + 0.0;
    dst[k] = x;
    if (x == kInf) continue;
    if (span.first == cols) span.first = k;
    span.last = k;
    ++span.finite;
  }
  return span;
}

/// count_finite four cells at a time. A row's cells past its span and its
/// margin are +inf, so the last group may run up to 3 cells past `hi`.
__attribute__((target("avx2"))) std::uint64_t count_finite_avx2(const double* row,
                                                                int lo, int hi) {
  const __m256d inf = _mm256_set1_pd(kInf);
  std::uint64_t n = 0;
  for (int k = lo; k <= hi; k += 4) {
    const int finite = _mm256_movemask_pd(
        _mm256_cmp_pd(_mm256_loadu_pd(row + k), inf, _CMP_NEQ_UQ));
    n += static_cast<std::uint64_t>(std::popcount(static_cast<unsigned>(finite)));
  }
  return n;
}

#endif  // QOSRM_SIMD_HAVE_AVX2

/// Finite cells of row[lo, hi] (a span of a row in its slot).
inline std::uint64_t count_finite([[maybe_unused]] bool vectorized, const double* row,
                                  int lo, int hi) {
#ifdef QOSRM_SIMD_HAVE_AVX2
  if (vectorized) return count_finite_avx2(row, lo, hi);
#endif
  std::uint64_t n = 0;
  for (int k = lo; k <= hi; ++k) n += row[k] != kInf ? 1 : 0;
  return n;
}

inline RowSpan copy_row([[maybe_unused]] bool vectorized, const double* src, int cols,
                        double* dst) {
#ifdef QOSRM_SIMD_HAVE_AVX2
  if (vectorized) return copy_row_avx2(src, cols, dst);
#endif
  return copy_row_scalar(src, cols, dst);
}

inline void combine_rows([[maybe_unused]] bool vectorized, const double* a, int na,
                         const double* b, int nb, double* out) {
#ifdef QOSRM_SIMD_HAVE_AVX2
  if (vectorized) {
    combine_rows_avx2<false>(a, na, b, nb, out, 0, na + nb - 1);
    return;
  }
#endif
  combine_rows_scalar(a, na, b, nb, out);
}

/// Store mode: overwrites the output cells [o_lo, o_hi) of [0, na+nb-1) -
/// under AVX2 up to kBlock - 1 exact cells more (+inf past the span) - and
/// returns the finite cells written.
inline std::uint64_t store_row([[maybe_unused]] bool vectorized, const double* a,
                               int na, const double* b, int nb, double* out,
                               int o_lo, int o_hi) {
#ifdef QOSRM_SIMD_HAVE_AVX2
  if (vectorized) return combine_rows_avx2<true>(a, na, b, nb, out, o_lo, o_hi);
#endif
  return store_row_scalar(a, na, b, nb, out, o_lo, o_hi);
}

inline double root_cell([[maybe_unused]] bool vectorized, const double* a,
                        const double* b, int t, int lo, int hi, double best) {
#ifdef QOSRM_SIMD_HAVE_AVX2
  if (vectorized) return root_cell_avx2(a, b, t, lo, hi, best);
#endif
  return root_cell_scalar(a, b, t, lo, hi, best);
}

inline int find_split([[maybe_unused]] bool vectorized, const double* a, const double* b,
                      int t, int lo, int hi, double value) {
#ifdef QOSRM_SIMD_HAVE_AVX2
  if (vectorized) return find_split_avx2(a, b, t, lo, hi, value);
#endif
  return find_split_scalar(a, b, t, lo, hi, value);
}

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
  // node carried to the next. target_w_ doubles as the level scratch here
  // (it is reset below).
  std::vector<int>& level = target_w_;
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
  parent_.assign(num_nodes(), -1);
  for (std::size_t i = static_cast<std::size_t>(leaves); i < num_nodes(); ++i) {
    parent_[static_cast<std::size_t>(left_[i])] = static_cast<int>(i);
    parent_[static_cast<std::size_t>(right_[i])] = static_cast<int>(i);
  }
  energy_off_.assign(num_nodes(), 0);
  span_off_.assign(num_nodes(), 0);
  feasible_.assign(num_nodes(), 0);
  pair_ops_.assign(num_nodes(), 0);
  total_ops_ = 0;
  clipped_.assign(num_nodes(), 0);
  win_first_.assign(num_nodes(), 0);
  win_last_.assign(num_nodes(), -1);
  marks_.assign((num_nodes() + 63) / 64, 0);
  target_w_.assign(num_nodes(), -1);
  target_b_.assign(num_nodes(), -1);
  cap_ways_ = 0;
  cap_shares_ = 0;
  valid_ = false;
}

void GlobalOptWorkspace::layout(int ways, int shares) {
  // A node over k leaves of at most `ways` x `shares` cells spans at most
  // k(ways-1)+1 x k(shares-1)+1 cells; its slot adds the leading margin and
  // one margin per row. Every node a parent reads gets a slot - the leaves
  // and every interior node but the root (a lone leaf is its own root).
  cap_ways_ = ways;
  cap_shares_ = shares;
  std::size_t off = 0;
  std::size_t span_off = 0;
  const std::size_t slots = num_nodes() == 1 ? 1 : num_nodes() - 1;
  for (std::size_t i = 0; i < slots; ++i) {
    const auto k = static_cast<std::size_t>(leaves_[i]);
    const std::size_t rows = k * static_cast<std::size_t>(shares - 1) + 1;
    const std::size_t cols = k * static_cast<std::size_t>(ways - 1) + 1;
    energy_off_[i] = off + kPad;
    span_off_[i] = span_off;
    off += kPad + rows * (cols + kPad);
    span_off += rows;
  }
  // The leading margins are written only here; everything else is
  // rewritten by whoever produces the node.
  energy_.assign(off, kInf);
  span_first_.resize(span_off);
  span_last_.resize(span_off);
  valid_ = false;
  forget_targets();
}

void GlobalOptWorkspace::forget_targets() {
  std::fill(target_w_.begin(), target_w_.end(), -1);
  std::fill(target_b_.begin(), target_b_.end(), -1);
}

void GlobalOptWorkspace::copy_leaf(std::size_t i, const double* energy, bool vectorized) {
  const int cols = size_[i];
  std::uint64_t feasible = 0;
  for (int r = 0; r < b_size_[i]; ++r) {
    double* dst = row(i, r);
    const RowSpan span = copy_row(
        vectorized, energy + static_cast<std::size_t>(r) * static_cast<std::size_t>(cols),
        cols, dst);
    std::fill(dst + cols, dst + cols + kPad, kInf);
    span_first_[span_off_[i] + static_cast<std::size_t>(r)] = span.first;
    span_last_[span_off_[i] + static_cast<std::size_t>(r)] = span.last;
    feasible += span.finite;
  }
  feasible_[i] = feasible;
}

void GlobalOptWorkspace::mark_path(std::size_t i) noexcept {
  for (int j = static_cast<int>(i); j >= 0 && !marked(static_cast<std::size_t>(j));
       j = parent_[static_cast<std::size_t>(j)]) {
    marks_[static_cast<std::size_t>(j) / 64] |= std::uint64_t{1} << (j % 64);
  }
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

void GlobalOptimizer::optimize_into(std::span<const EnergyCurveView> curves,
                                    int total_ways, int total_shares,
                                    std::span<const std::uint8_t> dirty,
                                    GlobalOptWorkspace& ws, GlobalOptResult& out,
                                    std::uint64_t* ops, simd::Level level) {
  QOSRM_CHECK(dirty.empty() || dirty.size() == curves.size());
  // An empty span flags every leaf, which the tree reads whole anyway when
  // it holds no complete reduction.
  if (dirty.empty()) ws.valid_ = false;
  ws.flagged_.clear();
  for (std::size_t i = 0; i < dirty.size(); ++i) {
    if (dirty[i] != 0) ws.flagged_.push_back(static_cast<int>(i));
  }
  const GlobalOptResult& r =
      optimize(curves, total_ways, total_shares, ws.flagged_, ws, ops, level);
  out.feasible = r.feasible;
  out.total_energy = r.total_energy;
  out.ways.assign(r.ways.begin(), r.ways.end());
  out.shares.assign(r.shares.begin(), r.shares.end());
}

std::uint64_t GlobalOptimizer::combine(GlobalOptWorkspace& ws, std::size_t i,
                                       int total_ways, int total_shares,
                                       bool vectorized) {
  const auto ai = static_cast<std::size_t>(ws.left_[i]);
  const auto bi = static_cast<std::size_t>(ws.right_[i]);
  const int a_b_size = ws.b_size_[ai];
  const int b_b_size = ws.b_size_[bi];
  const int n_size = ws.size_[ai] + ws.size_[bi] - 1;
  const int n_b_size = a_b_size + b_b_size - 1;
  ws.lo_[i] = ws.lo_[ai] + ws.lo_[bi];
  ws.size_[i] = n_size;
  ws.b_lo_[i] = ws.b_lo_[ai] + ws.b_lo_[bi];
  ws.b_size_[i] = n_b_size;
  const int* a_first = ws.span_first_.data() + ws.span_off_[ai];
  const int* a_last = ws.span_last_.data() + ws.span_off_[ai];
  const int* b_first = ws.span_first_.data() + ws.span_off_[bi];
  const int* b_last = ws.span_last_.data() + ws.span_off_[bi];

  // One op = one feasible-pair DP step, counted uniformly whichever side an
  // infeasible entry is on and independent of how many lanes a kernel call
  // covers: the product of the children's cached feasible counts.
  const std::uint64_t ops = ws.feasible_[ai] * ws.feasible_[bi];

  if (static_cast<int>(i) == ws.root()) {
    // The root combine produces a surface that is only ever read at one
    // cell (total_ways, total_shares), so it evaluates just that cell - an
    // O(a+b) scan instead of the O(a*b) row sweep - over the pairs that
    // can reach it: left rows whose right partner row exists, and in each
    // the ia range whose partner ib lies in the right row's span (a skipped
    // pair is infinite and could never win), so its value is bit-identical
    // to the full sweep's. A clipped child first computes the cells of that
    // range it does not hold yet (extend_window). The charged op
    // count stays the full feasible-pair product: ops are the MODEL of the
    // RM's work (paper Section III-E) and must not depend on which cells
    // an implementation can prove dead, exactly as they must not depend on
    // the SIMD width. An out-of-range target leaves the value infinite,
    // which the feasibility check reports just like the full sweep would.
    const int target_w = total_ways - ws.lo_[i];
    const int target_b = total_shares - ws.b_lo_[i];
    double best = kInf;
    if (target_w >= 0 && target_w < n_size && target_b >= 0 && target_b < n_b_size) {
      const int iba_hi = std::min(a_b_size - 1, target_b);
      for (int iba = std::max(0, target_b - (b_b_size - 1)); iba <= iba_hi; ++iba) {
        const int ibb = target_b - iba;
        const int lo = std::max(a_first[iba], target_w - b_last[ibb]);
        const int hi = std::min(a_last[iba], target_w - b_first[ibb]);
        if (lo > hi) continue;
        extend_window(ws, ai, lo, hi, vectorized);
        extend_window(ws, bi, target_w - hi, target_w - lo, vectorized);
        best = root_cell(vectorized, ws.row(ai, iba), ws.row(bi, ibb), target_w,
                         lo, hi, best);
      }
    }
    ws.root_value_ = best;
    return ops;
  }

  int* n_first = ws.span_first_.data() + ws.span_off_[i];
  int* n_last = ws.span_last_.data() + ws.span_off_[i];
  ws.clipped_[i] = 0;
  if (n_b_size == 1) {
    // A single-row node (both children ways-only) is one row pair: the
    // store-mode kernel writes the span [fa + fb, la + lb] outright and
    // counts its finite cells in the same pass, and only the cells outside
    // the span, up to the end of the margin, are reset to +inf. The two
    // corner cells are finite sums, so that range IS the span.
    double* ne = ws.row(i, 0);
    const int fa = a_first[0];
    const int la = a_last[0];
    const int fb = b_first[0];
    const int lb = b_last[0];
    if (fa > la || fb > lb) {
      std::fill(ne, ne + ws.stride(i), kInf);
      n_first[0] = n_size;
      n_last[0] = -1;
      ws.feasible_[i] = 0;
      return ops;
    }
    std::fill(ne, ne + fa + fb, kInf);
    std::fill(ne + la + lb + 1, ne + ws.stride(i), kInf);
    n_first[0] = fa + fb;
    n_last[0] = la + lb;
    const int n_out = la - fa + lb - fb + 1;
    // A root child is read only by the root cell and its split scan, at
    // [t - sibling last, t - sibling first] for the root target t. With
    // both of its children hole-free (count == span length) every cell of
    // its span is finite, so its count is the span length and the charged
    // ops stay exact without computing a cell. Its cells are then computed
    // only when the root reads them (extend_window): a later read that
    // needs more extends the recorded window and recombines nothing.
    if (ws.parent_[i] == ws.root() &&
        ws.feasible_[ai] == static_cast<std::uint64_t>(la - fa + 1) &&
        ws.feasible_[bi] == static_cast<std::uint64_t>(lb - fb + 1)) {
      ws.clipped_[i] = 1;
      ws.win_first_[i] = n_size;
      ws.win_last_[i] = -1;
      ws.feasible_[i] = static_cast<std::uint64_t>(n_out);
      return ops;
    }
    ws.feasible_[i] = store_row(vectorized, ws.row(ai, 0) + fa, la - fa + 1,
                                ws.row(bi, 0) + fb, lb - fb + 1, ne + fa + fb, 0,
                                n_out);
    return ops;
  }

  // A multi-row node: reset its rows and margins, fold in every pair of
  // non-empty (left, right) row spans with the merge-mode kernel, then
  // derive the node's own spans and count from its output. Row r can only
  // be finite within the union of its pairs' [first_a + first_b,
  // last_a + last_b], and the two corner cells of each such range are
  // finite sums, so the union IS the span; one count pass over it gives
  // the holes.
  const std::size_t n_stride = ws.stride(i);
  double* ne = ws.row(i, 0);
  std::fill(ne, ne + static_cast<std::size_t>(n_b_size) * n_stride, kInf);
  std::fill(n_first, n_first + n_b_size, n_size);
  std::fill(n_last, n_last + n_b_size, -1);
  for (int iba = 0; iba < a_b_size; ++iba) {
    const int fa = a_first[iba];
    const int la = a_last[iba];
    if (fa > la) continue;
    const double* a = ws.row(ai, iba) + fa;
    for (int ibb = 0; ibb < b_b_size; ++ibb) {
      const int fb = b_first[ibb];
      const int lb = b_last[ibb];
      if (fb > lb) continue;
      const int r = iba + ibb;
      combine_rows(vectorized, a, la - fa + 1, ws.row(bi, ibb) + fb, lb - fb + 1,
                   ne + static_cast<std::size_t>(r) * n_stride + fa + fb);
      n_first[r] = std::min(n_first[r], fa + fb);
      n_last[r] = std::max(n_last[r], la + lb);
    }
  }
  std::uint64_t feasible = 0;
  for (int r = 0; r < n_b_size; ++r) {
    feasible += count_finite(vectorized, ne + static_cast<std::size_t>(r) * n_stride,
                             n_first[r], n_last[r]);
  }
  ws.feasible_[i] = feasible;
  return ops;
}

void GlobalOptimizer::extend_window(GlobalOptWorkspace& ws, std::size_t i, int lo,
                                    int hi, bool vectorized) {
  if (ws.clipped_[i] == 0) return;
  int& first = ws.win_first_[i];
  int& last = ws.win_last_[i];
  if (first <= lo && hi <= last) return;
  const auto ai = static_cast<std::size_t>(ws.left_[i]);
  const auto bi = static_cast<std::size_t>(ws.right_[i]);
  const int fa = ws.span_first_[ws.span_off_[ai]];
  const int la = ws.span_last_[ws.span_off_[ai]];
  const int fb = ws.span_first_[ws.span_off_[bi]];
  const int lb = ws.span_last_[ws.span_off_[bi]];
  // Output cell k of the row pair is node cell fa + fb + k.
  const auto compute = [&](int from, int to) {
    store_row(vectorized, ws.row(ai, 0) + fa, la - fa + 1, ws.row(bi, 0) + fb,
              lb - fb + 1, ws.row(i, 0) + fa + fb, from - fa - fb, to - fa - fb + 1);
  };
  if (first > last) {
    compute(lo, hi);
    first = lo;
    last = hi;
    return;
  }
  if (lo < first) {
    compute(lo, first - 1);
    first = lo;
  }
  if (hi > last) {
    compute(last + 1, hi);
    last = hi;
  }
}

const GlobalOptResult& GlobalOptimizer::optimize(std::span<const EnergyCurveView> curves,
                                                 int total_ways, int total_shares,
                                                 std::span<const int> flagged,
                                                 GlobalOptWorkspace& ws,
                                                 std::uint64_t* ops, simd::Level level) {
  QOSRM_CHECK(!curves.empty());
  const bool vectorized = level == simd::Level::Avx2;
#ifndef QOSRM_SIMD_HAVE_AVX2
  QOSRM_CHECK_MSG(!vectorized,
                  "AVX2 dispatch requested but the kernel was not compiled");
#endif

  const std::size_t n = curves.size();
  if (static_cast<int>(n) != ws.num_leaves()) ws.build_tree(static_cast<int>(n));
  ws.last_recombined_ = 0;

  // Only flagged leaves are read (see the leaf contract in the header):
  // every leaf when the tree holds no complete reduction, or when a flagged
  // leaf is wider than the pool slots and the re-layout moves every slot.
  // Validating a leaf records its shape; every leaf validated is copied.
  bool all = !ws.valid_;
  int max_ways = 0;
  int max_shares = 0;
  const auto validate = [&](std::size_t i) {
    const EnergyCurveView& c = curves[i];
    QOSRM_CHECK(!c.energy.empty());
    QOSRM_CHECK(c.num_shares >= 1);
    QOSRM_CHECK(static_cast<int>(c.energy.size()) % c.num_shares == 0);
    const int ways = c.num_ways();
    ws.lo_[i] = c.min_ways;
    ws.size_[i] = ways;
    ws.b_lo_[i] = c.min_shares;
    ws.b_size_[i] = c.num_shares;
    max_ways = std::max(max_ways, ways);
    max_shares = std::max(max_shares, c.num_shares);
  };
  const auto validate_all = [&] {
    for (std::size_t i = 0; i < n; ++i) validate(i);
  };
  if (all) {
    validate_all();
  } else {
    for (const int leaf : flagged) {
      QOSRM_CHECK(leaf >= 0 && static_cast<std::size_t>(leaf) < n);
      validate(static_cast<std::size_t>(leaf));
    }
  }
  if (max_ways > ws.cap_ways_ || max_shares > ws.cap_shares_) {
    ws.layout(std::max(max_ways, ws.cap_ways_), std::max(max_shares, ws.cap_shares_));
    if (!all) validate_all();
    all = true;
  }

  // Copy each flagged leaf into its slot and mark it and its ancestors; the
  // marks are what this call recombines and what backtracking re-splits.
  const auto load = [&](std::size_t i) {
    if (ws.marked(i)) return;  // a repeated flag
    ws.copy_leaf(i, curves[i].energy.data(), vectorized);
    ws.mark_path(i);
  };
  if (all) {
    for (std::size_t i = 0; i < n; ++i) load(i);
  } else {
    for (const int leaf : flagged) load(static_cast<std::size_t>(leaf));
  }
  const auto root = static_cast<std::size_t>(ws.root());
  // A new budget only moves the root's target cell.
  if (total_ways != ws.total_ways_ || total_shares != ws.total_shares_) {
    ws.mark_path(root);
    ws.total_ways_ = total_ways;
    ws.total_shares_ = total_shares;
  }

  if (ws.marked(root)) {
    // Recombine the marked interior nodes bottom-up - in node order, in
    // which children precede their parent, read off the mark bits in
    // ascending order - keeping the charged total current, then re-derive
    // the result.
    for (std::size_t word = n / 64; word < ws.marks_.size(); ++word) {
      for (std::uint64_t bits = ws.marks_[word]; bits != 0; bits &= bits - 1) {
        const std::size_t i = word * 64 + static_cast<std::size_t>(std::countr_zero(bits));
        if (i < n) continue;  // a leaf
        ws.total_ops_ -= ws.pair_ops_[i];
        ws.pair_ops_[i] = combine(ws, i, total_ways, total_shares, vectorized);
        ws.total_ops_ += ws.pair_ops_[i];
        ++ws.last_recombined_;
      }
    }
    extract(ws, total_ways, total_shares, vectorized);
    ws.valid_ = true;
    for (std::uint64_t& word : ws.marks_) word = 0;
  }
  if (ops != nullptr) *ops += ws.total_ops_;
  return ws.result_;
}

void GlobalOptimizer::extract(GlobalOptWorkspace& ws, int total_ways,
                              int total_shares, bool vectorized) {
  GlobalOptResult& out = ws.result_;
  const auto root = static_cast<std::size_t>(ws.root());
  const int root_lo = ws.lo_[root];
  const int root_hi = root_lo + ws.size_[root] - 1;
  const int root_b_lo = ws.b_lo_[root];
  const int root_b_hi = root_b_lo + ws.b_size_[root] - 1;
  double e = kInf;
  if (total_ways >= root_lo && total_ways <= root_hi && total_shares >= root_b_lo &&
      total_shares <= root_b_hi) {
    e = ws.left_[root] >= 0 ? ws.root_value_
                            : ws.row(root, total_shares - root_b_lo)[total_ways - root_lo];
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
  // the first pair whose sum reproduces the node's finite value bit-for-bit
  // (an infeasible cell sums to +inf, so it never matches). The strict-less
  // forward sweep keeps the FIRST pair attaining the final minimum, and the
  // sums are the same IEEE double additions, so the recovered split is
  // identical to a recorded one. Like the root cell, the scan covers only
  // the pairs the children's spans let reach the target.
  //
  // A node this call did not recombine (unmarked) has the surface it had
  // when it last split; asked for the same target, it splits the same way
  // all the way down, so the leaf allocations below it in `out` are already
  // right and the scan skips the whole subtree. Cost: one span scan per node
  // on a flagged leaf's root path (or whose target moved) - versus an index
  // blend in every kernel step.
  const auto backtrack = [&ws, &out, vectorized](auto&& self, std::size_t idx,
                                                 int total_w, int total_b,
                                                 double value) -> void {
    if (ws.left_[idx] < 0) {  // leaf: node index == core
      out.ways[idx] = total_w;
      out.shares[idx] = total_b;
      return;
    }
    if (!ws.marked(idx) && ws.target_w_[idx] == total_w && ws.target_b_[idx] == total_b) {
      return;
    }
    ws.target_w_[idx] = total_w;
    ws.target_b_[idx] = total_b;
    const auto ai = static_cast<std::size_t>(ws.left_[idx]);
    const auto bi = static_cast<std::size_t>(ws.right_[idx]);
    const int* a_first = ws.span_first_.data() + ws.span_off_[ai];
    const int* a_last = ws.span_last_.data() + ws.span_off_[ai];
    const int* b_first = ws.span_first_.data() + ws.span_off_[bi];
    const int* b_last = ws.span_last_.data() + ws.span_off_[bi];
    const int rel_w = total_w - ws.lo_[idx];
    const int rel_b = total_b - ws.b_lo_[idx];
    const int iba_hi = std::min(ws.b_size_[ai] - 1, rel_b);
    for (int iba = std::max(0, rel_b - (ws.b_size_[bi] - 1)); iba <= iba_hi; ++iba) {
      const int ibb = rel_b - iba;
      const int lo = std::max(a_first[iba], rel_w - b_last[ibb]);
      const int hi = std::min(a_last[iba], rel_w - b_first[ibb]);
      if (lo > hi) continue;
      const double* a = ws.row(ai, iba);
      const double* b = ws.row(bi, ibb);
      const int ia = find_split(vectorized, a, b, rel_w, lo, hi, value);
      if (ia < 0) continue;
      const int wl = ws.lo_[ai] + ia;
      const int bl = ws.b_lo_[ai] + iba;
      const double ea = a[ia];
      const double eb = b[rel_w - ia];
      self(self, ai, wl, bl, ea);
      self(self, bi, total_w - wl, total_b - bl, eb);
      return;
    }
    QOSRM_CHECK_MSG(false, "backtracking through an infeasible entry");
  };
  backtrack(backtrack, root, total_ways, total_shares, e);
}

}  // namespace qosrm::rm

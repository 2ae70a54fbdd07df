// Test-side companions of rm/global_opt: an owning energy surface, a
// one-shot optimizer over such surfaces (a throwaway workspace, every leaf
// dirty), and the exhaustive search the randomized suites check the pairwise
// reduction against.
#ifndef QOSRM_TESTS_SUPPORT_GLOBAL_OPT_REF_HH
#define QOSRM_TESTS_SUPPORT_GLOBAL_OPT_REF_HH

#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "common/check.hh"
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

}  // namespace ref
}  // namespace qosrm::rm

#endif  // QOSRM_TESTS_SUPPORT_GLOBAL_OPT_REF_HH

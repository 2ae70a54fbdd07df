// Per-core local optimization (paper Fig. 3, Section III-A/B).
//
// For every possible LLC allocation w the optimizer finds the cheapest
// core-local setting that still satisfies QoS:
//
//   RM1:  fixed (c_b, f_b); w is feasible iff QoS holds at the baseline VF.
//   RM2:  f*(w)  = minimum frequency satisfying QoS at the baseline size.
//   RM3:  (c*, f*)(w) = per size, minimum feasible frequency; among sizes,
//         the one with the lowest estimated energy.
//
// The result is the energy surface E*(w, b) over the shared-resource grid
// (LLC ways x memory-bandwidth shares) handed to the global optimizer, plus
// the argmin settings to enforce once {(w*_j, b*_j)} is chosen. With the
// degenerate single-share bandwidth config the surface has one b-row and is
// exactly the pre-CBP energy curve E*(w).
#ifndef QOSRM_RM_LOCAL_OPT_HH
#define QOSRM_RM_LOCAL_OPT_HH

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/check.hh"
#include "rm/energy_model.hh"
#include "rm/perf_model.hh"

namespace qosrm::rm {

inline constexpr double kInfeasibleEnergy = std::numeric_limits<double>::infinity();

struct LocalOptOptions {
  bool allow_dvfs = true;    ///< false for RM1
  bool allow_resize = true;  ///< false for RM1/RM2
  bool operator==(const LocalOptOptions&) const = default;
};

/// Best feasible core-local choice for one allocation w.
struct WayChoice {
  bool feasible = false;
  workload::Setting setting{};
  double predicted_time_s = 0.0;
  double energy_j = kInfeasibleEnergy;
};

struct LocalOptResult {
  int min_ways = 2;
  int min_shares = 1;  ///< lowest bandwidth share of the b axis
  int num_shares = 1;  ///< extent of the b axis
  /// The E*(w, b) surface, b-major with contiguous w-rows:
  /// choices[(b - min_shares) * num_ways() + (w - min_ways)]. One b-row (the
  /// pre-CBP curve layout) in the degenerate single-share config.
  std::vector<WayChoice> choices;

  [[nodiscard]] int num_ways() const noexcept {
    return num_shares > 0 ? static_cast<int>(choices.size()) / num_shares : 0;
  }
  [[nodiscard]] int max_ways() const noexcept { return min_ways + num_ways() - 1; }
  [[nodiscard]] int max_shares() const noexcept {
    return min_shares + num_shares - 1;
  }
  [[nodiscard]] const WayChoice& at(int w, int b) const {
    QOSRM_CHECK(w >= min_ways && w <= max_ways());
    QOSRM_CHECK(b >= min_shares && b <= max_shares());
    return choices[static_cast<std::size_t>(b - min_shares) *
                       static_cast<std::size_t>(num_ways()) +
                   static_cast<std::size_t>(w - min_ways)];
  }
  /// Ways-only accessor: the choice at the lowest share (the only share in
  /// the degenerate config).
  [[nodiscard]] const WayChoice& at(int w) const { return at(w, min_shares); }

  /// E*(w, b) for the global optimizer, in the surface's flat layout
  /// (kInfeasibleEnergy where QoS fails).
  [[nodiscard]] std::vector<double> energy_curve() const;
  /// Writes energy_curve() into `row`, reusing its storage; returns whether
  /// the row changed bitwise (its length included).
  bool energy_curve_into(std::vector<double>& row) const;
};

class LocalOptimizer {
 public:
  LocalOptimizer(const PerfModel& perf, const OnlineEnergyModel& energy,
                 const LocalOptOptions& options)
      : perf_(&perf), energy_(&energy), opt_(options) {}

  /// Runs the optimization from one core's counters. `ops` (optional)
  /// accumulates the number of model evaluations, the unit of the RM
  /// instruction-overhead model (paper Section III-E).
  [[nodiscard]] LocalOptResult optimize(const CounterSnapshot& snap,
                                        std::uint64_t* ops = nullptr) const;

  /// Allocation-free variant: writes into `out`, reusing its `choices`
  /// storage. The invocation hot path (ResourceManager) calls this with
  /// per-core cached results so steady-state boundaries allocate nothing.
  /// Not thread-safe (reuses internal sweep scratch); use one optimizer per
  /// thread.
  void optimize_into(const CounterSnapshot& snap, LocalOptResult& out,
                     std::uint64_t* ops = nullptr) const;

  [[nodiscard]] const LocalOptOptions& options() const noexcept { return opt_; }

 private:
  const PerfModel* perf_;
  const OnlineEnergyModel* energy_;
  LocalOptOptions opt_;
  /// Perfect-model sweep scratch: f*(w) and T*(w) for the core size being
  /// scanned (batched oracle-row path). Capacity is kept across calls, so
  /// the warm invocation path stays heap-free.
  mutable std::vector<int> f_star_;
  mutable std::vector<double> t_star_;
};

}  // namespace qosrm::rm

#endif  // QOSRM_RM_LOCAL_OPT_HH

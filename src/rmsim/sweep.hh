// Parallel policy-sweep subsystem.
//
// Expands a {RmPolicy x PerfModelKind x qos_alpha} x WorkloadMix grid and
// runs it in two parallel passes (common/thread_pool parallel_for): first
// the idle-RM reference of every (qos_alpha, mix), simulated exactly once,
// then every row against its reference. Each pass writes fixed slots, so
// the output is byte-identical regardless of thread count, and no shared
// mutable state or lock is involved: what a lane reuses across its rows
// (kernel scratch, an outcome memo) is the lane's own.
#ifndef QOSRM_RMSIM_SWEEP_HH
#define QOSRM_RMSIM_SWEEP_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "rmsim/experiment.hh"

namespace qosrm::rmsim {

/// Coordinates of one grid row: an index into each axis.
struct GridCell {
  std::size_t mix = 0;
  std::size_t policy = 0;
  std::size_t model = 0;
  std::size_t alpha = 0;
  bool operator==(const GridCell&) const = default;
};

/// Extent of an expanded grid along each axis. Together with the grid's row
/// order (alpha-major, then model, then policy, mix-minor) this is enough to
/// recompute aggregates and figure reports from a flat row vector; index()
/// and cell() are that order's only definition.
struct GridShape {
  std::size_t mixes = 0;
  std::size_t policies = 0;
  std::size_t models = 0;
  std::size_t alphas = 0;

  [[nodiscard]] std::size_t size() const noexcept {
    return mixes * policies * models * alphas;
  }
  /// Row index of `c`.
  [[nodiscard]] std::size_t index(const GridCell& c) const noexcept {
    return c.mix + mixes * (c.policy + policies * (c.model + models * c.alpha));
  }
  /// Inverse of index(), for idx < size().
  [[nodiscard]] GridCell cell(std::size_t idx) const noexcept {
    GridCell c;
    c.mix = idx % mixes;
    idx /= mixes;
    c.policy = idx % policies;
    idx /= policies;
    c.model = idx % models;
    c.alpha = idx / models;
    return c;
  }
  bool operator==(const GridShape&) const = default;
};

/// The grid to expand. Every combination of (alpha, model, policy, mix) is
/// one run; the row order is alpha-major, mix-minor.
struct SweepGrid {
  std::vector<workload::WorkloadMix> mixes;
  std::vector<rm::RmPolicy> policies = {rm::RmPolicy::Idle, rm::RmPolicy::Rm1,
                                        rm::RmPolicy::Rm2, rm::RmPolicy::Rm3};
  std::vector<rm::PerfModelKind> models = {rm::PerfModelKind::Model3};
  /// QoS relaxation values; 0.0 keeps the database system's qos_alpha
  /// (see SimOptions::qos_alpha_override).
  std::vector<double> qos_alphas = {0.0};

  [[nodiscard]] GridShape shape() const noexcept {
    return {mixes.size(), policies.size(), models.size(), qos_alphas.size()};
  }
  [[nodiscard]] std::size_t size() const noexcept { return shape().size(); }
};

struct SweepOptions {
  int threads = 0;   ///< sweep parallelism; 0 = hardware concurrency
  SimOptions sim{};  ///< base simulator options (qos_alpha_override is
                     ///< replaced per grid point)
};

/// One grid point's outcome.
struct SweepRow {
  std::string workload;
  workload::Scenario scenario = workload::Scenario::One;
  rm::RmPolicy policy = rm::RmPolicy::Idle;
  rm::PerfModelKind model = rm::PerfModelKind::Model3;
  double qos_alpha = 0.0;
  SavingsResult result;
};

/// Aggregate over all mixes of one (policy, model, alpha) configuration.
struct SweepAggregate {
  rm::RmPolicy policy = rm::RmPolicy::Idle;
  rm::PerfModelKind model = rm::PerfModelKind::Model3;
  double qos_alpha = 0.0;
  double weighted_savings = 0.0;  ///< scenario-weighted (paper Fig. 6 style)
  double mean_savings = 0.0;      ///< uniform mean over mixes
  double mean_violation_rate = 0.0;
};

struct SweepResult {
  /// Grid order (deterministic, independent of thread count).
  std::vector<SweepRow> rows;
  std::vector<SweepAggregate> aggregates;
  /// Idle-reference simulations executed: mixes.size() * qos_alphas.size().
  std::size_t idle_computations = 0;
};

class SweepRunner {
 public:
  SweepRunner(const workload::SimDb& db, const SweepOptions& options = {});

  /// Expands and executes the grid on `options.threads` lanes (capped at
  /// each pass's item count). Each lane lends one outcome memo to the
  /// managers of the rows it runs, rescoped when a row's RM configuration
  /// differs from the previous one's; nothing outlives the call. The rows
  /// are bit-identical for any thread count.
  [[nodiscard]] SweepResult run(const SweepGrid& grid);

 private:
  const workload::SimDb* db_;
  SweepOptions opt_;
};

/// Identity of one sweep: hashes the simulation-database fingerprint (see
/// workload::simdb_fingerprint), the expanded mixes, the policy/model/alpha
/// axes and every SimOptions field. Two sweeps agree on this value iff they
/// produce bit-identical rows; figure reports are stamped with it.
[[nodiscard]] std::uint64_t sweep_fingerprint(const SweepGrid& grid,
                                              const SimOptions& sim,
                                              std::uint64_t db_fingerprint);

/// The per-(policy, model, alpha) aggregates of a flat row vector in grid
/// order: a projection of build_figure_report's fig6/fig7 entries
/// (rmsim/report.hh), so the two can never disagree. The labels come from
/// the rows themselves, so only the rows, the shape and the suite's scenario
/// weights are needed. run() uses this same function.
[[nodiscard]] std::vector<SweepAggregate> compute_aggregates(
    const std::vector<SweepRow>& rows, const GridShape& shape,
    const std::array<double, 4>& weights);

// Text outputs (sweep_rows_csv, aggregates_csv): see rmsim/report.hh.

// List-flag parsers (common/str.hh parse_list_flag): each returns false,
// with *error naming the flag and the offending entry, on an unknown or
// malformed entry, an empty list or an empty CSV entry ("rm1," / ",rm1") -
// either would silently sweep a zero-row or shortened grid.

/// Policy names: "idle,rm1,rm2,rm3,ucp,fcp,classpart".
bool try_parse_policies(const std::string& spec, std::vector<rm::RmPolicy>* out,
                        std::string* error);

/// Model names: "model1,model2,model3,perfect" (or m1/m2/m3). `flag` names
/// the flag in the error (service_main's --model takes one model).
bool try_parse_models(const std::string& spec,
                      std::vector<rm::PerfModelKind>* out, std::string* error,
                      const char* flag = "models");

/// QoS relaxation factors ("0,1.05,1.1"): 0 or positive normal doubles.
bool try_parse_alphas(const std::string& spec, std::vector<double>* out,
                      std::string* error);

}  // namespace qosrm::rmsim

#endif  // QOSRM_RMSIM_SWEEP_HH

// Colocation-service mode: an open-loop arrival engine over the per-core
// interval kernel (rmsim/core_timeline) that also drives the closed-mix
// simulator.
//
// Where the sweep subsystem (rmsim/sweep.hh) runs fixed multiprogrammed
// mixes to completion, the service engine draws a seeded arrival trace
// (workload/arrival_gen.hh) and plays it against a pool of cores: each
// arriving application is admitted to a free core (or queued, or rejected
// when the queue is full), executes a bounded number of trace intervals,
// and departs. The resource manager is re-invoked at every admission,
// departure and interval boundary through the partial-occupancy
// ResourceManager::invoke overload, so partially filled machines
// redistribute LLC ways/VF/core size exactly like the paper's fully loaded
// ones.
//
// Metrics are streamed (common/histogram + RunningStats): per run the
// engine reports tail QoS-violation magnitudes (p50/p95/p99), energy per
// served application, RM decisions per simulated second and pool occupancy.
// The {arrival pattern x load x admission x policy x alpha} grid has a
// fixed row order like the sweep's, so the rows are byte-identical for any
// thread count.
//
// Everything is deterministic from the seed: one Rng stream per grid point
// (derived from the base seed and the point's pattern/load, so all policies
// at one (pattern, load) face the SAME arrival trace), no wall-clock, no
// platform-dependent distributions. The steady-state event loop is
// allocation-free (the rmsim_test_service_alloc ctest pins this).
#ifndef QOSRM_RMSIM_SERVICE_HH
#define QOSRM_RMSIM_SERVICE_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "rmsim/interval_sim.hh"
#include "workload/arrival_gen.hh"

namespace qosrm::rmsim {

/// Admission policy of the service engine - how arrivals that find every
/// core busy are queued, reordered or rejected (see DESIGN.md, "Admission
/// policies and the QoS-aware rejection predicate"):
///
///   Fifo     - arrivals queue in arrival order; only a full queue rejects.
///   Sdf      - smallest-demand-first: the queue releases the entry with the
///              fewest requested intervals (ties: earliest arrival), a
///              shortest-job-first discipline over the declared demand.
///   QosAware - consults the per-app LFOC-style partitioning taxonomy
///              (workload::PartClass) and current pool pressure: a cache-
///              SENSITIVE arrival is rejected outright when the way budget,
///              divided over the sensitive applications already resident or
///              queued, would leave it below the -50% MPKI probe point (the
///              allocation at which its own miss curve predicts an Eq. 6
///              magnitude beyond the alpha-relaxation); the queue releases
///              light apps first, then streaming, then sensitive (ties:
///              smallest demand, then earliest arrival).
///
/// The admission policy NEVER changes the arrival trace: all admission
/// cells of one (pattern, load) grid point face byte-identical arrivals.
enum class AdmissionPolicy : int { Fifo = 0, Sdf = 1, QosAware = 2 };

inline constexpr int kNumAdmissionPolicies = 3;

/// Short stable name ("fifo", "sdf", "qos-aware"); used in CSV/JSON output
/// and accepted by try_parse_admissions.
[[nodiscard]] const char* admission_policy_name(AdmissionPolicy policy) noexcept;

/// Parses a comma-separated admission-policy list, e.g. "fifo,qos-aware".
/// Rejects bad entries like try_parse_policies (rmsim/sweep.hh).
bool try_parse_admissions(const std::string& spec,
                          std::vector<AdmissionPolicy>* out,
                          std::string* error);

/// Fixed (per run) service parameters; the swept axes live in ServiceGrid.
struct ServiceConfig {
  std::size_t arrivals = 5000;  ///< arrivals per grid point
  std::uint64_t seed = 2020;
  rm::PerfModelKind model = rm::PerfModelKind::Model3;
  int demand_min = 40;   ///< per-app demand in intervals, inclusive
  int demand_max = 160;  ///< >= demand_min
  /// Arrivals finding every core busy wait here; one more arrival is
  /// rejected (counted, not simulated). Must be >= 1.
  std::size_t queue_capacity = 4096;
  /// Kernel options. qos_alpha_override must stay 0 (the engine aborts
  /// otherwise): the alpha comes from ServicePoint::qos_alpha.
  SimOptions sim{};
};

/// One grid point of the service sweep.
struct ServicePoint {
  workload::ArrivalPattern pattern = workload::ArrivalPattern::Poisson;
  double load = 0.8;
  AdmissionPolicy admission = AdmissionPolicy::Fifo;
  rm::RmPolicy policy = rm::RmPolicy::Rm3;
  double qos_alpha = 0.0;  ///< 0 keeps the database system's qos_alpha
};

/// Coordinates of one service-grid row: an index into each axis.
struct ServiceCell {
  std::size_t pattern = 0;
  std::size_t load = 0;
  std::size_t admission = 0;
  std::size_t policy = 0;
  std::size_t alpha = 0;
  bool operator==(const ServiceCell&) const = default;
};

/// Axis extents of an expanded service grid (row order: pattern-minor, then
/// load, then admission, then policy, alpha-major) - the service analogue of
/// GridShape; index() and cell() are that order's only definition.
struct ServiceGridShape {
  std::size_t patterns = 0;
  std::size_t loads = 0;
  std::size_t admissions = 0;
  std::size_t policies = 0;
  std::size_t alphas = 0;

  [[nodiscard]] std::size_t size() const noexcept {
    return patterns * loads * admissions * policies * alphas;
  }
  /// Row index of `c`.
  [[nodiscard]] std::size_t index(const ServiceCell& c) const noexcept {
    return c.pattern +
           patterns *
               (c.load + loads * (c.admission +
                                  admissions * (c.policy + policies * c.alpha)));
  }
  /// Inverse of index(), for idx < size().
  [[nodiscard]] ServiceCell cell(std::size_t idx) const noexcept {
    ServiceCell c;
    c.pattern = idx % patterns;
    idx /= patterns;
    c.load = idx % loads;
    idx /= loads;
    c.admission = idx % admissions;
    idx /= admissions;
    c.policy = idx % policies;
    c.alpha = idx / policies;
    return c;
  }
  bool operator==(const ServiceGridShape&) const = default;
};

/// The grid to expand; every (alpha, policy, admission, load, pattern)
/// combination is one service run.
struct ServiceGrid {
  std::vector<workload::ArrivalPattern> patterns = {
      workload::ArrivalPattern::Poisson};
  std::vector<double> loads = {0.8};
  std::vector<AdmissionPolicy> admissions = {AdmissionPolicy::Fifo};
  std::vector<rm::RmPolicy> policies = {rm::RmPolicy::Rm3};
  std::vector<double> qos_alphas = {0.0};

  [[nodiscard]] ServiceGridShape shape() const noexcept {
    return {patterns.size(), loads.size(), admissions.size(), policies.size(),
            qos_alphas.size()};
  }
  [[nodiscard]] std::size_t size() const noexcept { return shape().size(); }

  /// The axis values at row `idx` (shape().cell(idx)).
  [[nodiscard]] ServicePoint point(std::size_t idx) const;
};

/// Streaming tail metrics of one service run.
struct ServiceMetrics {
  std::uint64_t arrivals = 0;
  std::uint64_t served = 0;    ///< applications that ran to completion
  std::uint64_t rejected = 0;  ///< arrivals dropped (queue-full + QoS-aware)
  /// Of `rejected`: arrivals the qos-aware admission policy turned away
  /// because the rejection predicate (see AdmissionPolicy) flagged them as
  /// predicted to blow the alpha-relaxed target. Always 0 for fifo/sdf.
  std::uint64_t qos_rejected = 0;
  std::uint64_t intervals = 0;
  std::uint64_t violations = 0;
  double violation_rate = 0.0;   ///< violations / intervals
  double p50_violation = 0.0;    ///< quantiles of Eq. 6 magnitudes over
  double p95_violation = 0.0;    ///< VIOLATING intervals (0 when none)
  double p99_violation = 0.0;
  double max_violation = 0.0;
  double mean_violation = 0.0;
  double energy_total_j = 0.0;   ///< core+memory+uncore over the whole run
  double uncore_energy_j = 0.0;
  double energy_per_app_j = 0.0; ///< mean core+memory energy per served app
  std::uint64_t rm_invocations = 0;
  std::uint64_t rm_ops = 0;
  double decisions_per_sec = 0.0;  ///< rm_invocations / simulated wall time
  double occupancy = 0.0;          ///< busy core-seconds / (cores * wall)
  double mean_wait_s = 0.0;        ///< queueing delay of admitted apps
  double wall_time_s = 0.0;
};

struct ServiceRow {
  workload::ArrivalPattern pattern = workload::ArrivalPattern::Poisson;
  double load = 0.8;
  AdmissionPolicy admission = AdmissionPolicy::Fifo;
  rm::RmPolicy policy = rm::RmPolicy::Rm3;
  rm::PerfModelKind model = rm::PerfModelKind::Model3;
  double qos_alpha = 0.0;
  ServiceMetrics metrics;
};

struct ServiceResult {
  std::vector<ServiceRow> rows;  ///< grid order, thread-count independent
};

/// Mean baseline interval time over every application and phase-sequence
/// entry of the database - the per-interval service-time scale the arrival
/// generator's load calibration divides by.
[[nodiscard]] double mean_baseline_interval_s(const workload::SimDb& db);

/// One grid point's open-loop engine. Construction synthesizes the arrival
/// trace and builds the resource manager; reset() + step() replay it without
/// touching the heap (rmsim_test_service_alloc pins 0 allocations per
/// steady-state event).
class ServiceEngine {
 public:
  /// `memo` (optional) is lent to the engine's manager for the engine's
  /// lifetime (the manager rescopes it to the point's RM configuration), so
  /// engines built one after another on it reuse each other's interval
  /// outcomes; without one the manager owns its memo. The metrics are
  /// identical either way.
  ServiceEngine(const workload::SimDb& db, const ServiceConfig& config,
                const ServicePoint& point, rm::OutcomeMemo* memo = nullptr);
  ~ServiceEngine();

  /// Rewinds to time zero (same trace, cleared metrics and core states).
  /// Allocation-free once the first pass has grown every buffer.
  void reset();

  /// Processes the next event (arrival, interval completion or departure).
  /// Returns false once the trace is exhausted and every core has drained.
  bool step();

  /// Runs reset() + step() to completion and returns the metrics.
  [[nodiscard]] ServiceMetrics run();

  /// Metrics accumulated so far (final once step() returned false).
  [[nodiscard]] ServiceMetrics metrics() const;

  /// Host-side work counters of the engine's resource manager, accumulated
  /// over the engine's lifetime (reset() keeps them).
  [[nodiscard]] const rm::RmInvokeStats& rm_stats() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

struct ServiceOptions {
  int threads = 0;  ///< 0 = hardware concurrency
};

/// Expands and executes the whole grid on `options.threads` lanes (capped
/// at the row count). Each lane lends one outcome memo to the engines of the
/// rows it runs (rescoped when a row's RM configuration differs from the
/// previous one's); nothing outlives the call. Rows land at fixed slots in
/// grid order, so the result is bit-identical for any thread count.
[[nodiscard]] ServiceResult run_service(const workload::SimDb& db,
                                        const ServiceGrid& grid,
                                        const ServiceConfig& config,
                                        const ServiceOptions& options = {});

/// Identity of one service sweep: hashes the database fingerprint, every
/// grid axis and every ServiceConfig field. Two runs agree on this iff they
/// produce bit-identical rows; service and knee reports are stamped with it.
[[nodiscard]] std::uint64_t service_fingerprint(const ServiceGrid& grid,
                                                const ServiceConfig& config,
                                                std::uint64_t db_fingerprint);

// Text outputs (service_rows_csv, the reports): see rmsim/report.hh.

/// Parses the --loads value, comma-separated load levels ("0.5,0.8,1.1"):
/// finite, > 0. Rejects bad entries like try_parse_policies.
bool try_parse_loads(const std::string& spec, std::vector<double>* out,
                     std::string* error);

}  // namespace qosrm::rmsim

#endif  // QOSRM_RMSIM_SERVICE_HH

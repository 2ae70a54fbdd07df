// The per-core interval kernel (paper Fig. 5 and Section IV-A/IV-D.1),
// shared by the closed-mix simulator (rmsim/interval_sim) and the colocation
// service (rmsim/service).
//
// Each core executes its application interval by interval; per-interval time
// and energy come from the simulation database at the core's setting. An
// interval is FROZEN when it starts: its phase, setting, duration and energy
// never change mid-flight, so an RM decision reaching a core mid-interval
// takes effect at that core's next interval start (interval-granularity
// enforcement, see DESIGN.md). The RM runs at the next global event; its
// execution cost goes to the invoking core's next interval, and the
// transition cost of a setting change to the changed core's next interval.
// Eq. 3 judges every completed interval against the alpha-relaxed baseline
// time, and Eq. 6 measures a violation against that same target.
//
// IntervalKernel implements exactly those rules, once. Its drivers keep only
// what is their own: the closed mix seats every app at t = 0 and restarts it
// until the longest app's instruction bound; the service draws arrivals,
// queues and admits them, and feeds its metric sinks.
#ifndef QOSRM_RMSIM_CORE_TIMELINE_HH
#define QOSRM_RMSIM_CORE_TIMELINE_HH

#include <cstdint>
#include <vector>

#include "rm/overheads.hh"
#include "rm/resource_manager.hh"
#include "workload/sim_db.hh"

namespace qosrm {
class Fnv1a64;
}  // namespace qosrm

namespace qosrm::rmsim {

/// Tolerance on the actual-vs-baseline QoS comparison (absorbs the
/// sub-interval enforcement costs - DVFS switches, RM execution - that even
/// an oracle RM cannot avoid; those are ~0.1% of an interval).
inline constexpr double kQosEpsilon = 2e-3;

struct SimOptions {
  bool model_overheads = true;  ///< RM execution + DVFS/resize enforcement
  /// QoS relaxation override: when > 0, replaces the database system's
  /// qos_alpha for both the RM's Eq. 3 check and the violation accounting
  /// (paper Section III-C: "the alpha parameter can be used to relax the
  /// QoS constraint"; the paper fixes it to 1). Closed-mix runs only: the
  /// service takes its alpha from ServicePoint::qos_alpha.
  double qos_alpha_override = 0.0;
};

/// Feeds what the kernel reads - model_overheads, then the overhead
/// constants and kQosEpsilon, in that order - into a run fingerprint. The
/// constants are hashed too, so that changing one changes every stamped
/// fingerprint. qos_alpha_override is left to the callers that honour it.
void hash_sim_options(Fnv1a64& h, const SimOptions& options);

/// The RM configuration of one (policy, model) grid cell. The Perfect axis
/// is the paper's Fig. 9 oracle: exact time prediction paired with
/// ground-truth energy. Leaving the energy model online would mislabel
/// "Perfect" rows as a half-oracle.
[[nodiscard]] rm::RmConfig rm_config_for(rm::RmPolicy policy,
                                         rm::PerfModelKind model);

/// One core: the application it runs and its frozen running interval.
struct CoreTimeline {
  int app = -1;
  int seq_pos = 0;       ///< sequence position of the RUNNING interval
  bool running = false;  ///< an interval is in flight
  workload::Setting setting{};  ///< setting of the running interval
  workload::Setting pending{};  ///< latest RM decision for this core
  rm::EnforcementCost next_overhead{};  ///< charged to the next interval

  // Frozen properties of the running (or last finished) interval:
  int phase = 0;
  double start_s = 0.0;
  double end_s = 0.0;
  double energy_j = 0.0;
  double base_time_s = 0.0;  ///< baseline-setting time of the same phase
  std::int64_t cell_key = -1;  ///< interval key of (app, phase, setting)
};

/// A completed interval as judged by Eq. 3 and Eq. 6.
struct IntervalOutcome {
  double duration_s = 0.0;
  double energy_j = 0.0;
  bool violated = false;
  double violation = 0.0;  ///< Eq. 6 magnitude; 0 when Eq. 3 held
};

/// Per-core interval state of one run plus the RM mask and counter
/// snapshots the resource manager reads. Buffers keep their capacity across
/// bind()/reset(), so a reused kernel runs allocation-free. Not thread-safe.
class IntervalKernel {
 public:
  /// Binds the kernel to one run and resets it. `manager` supplies the
  /// system (qos_alpha already applied), the policy and the performance
  /// model; it and `db` must outlive the run. An Idle-policy run never
  /// invokes the RM (it is the energy reference, not a managed run).
  void bind(const workload::SimDb& db, const SimOptions& options,
            rm::ResourceManager& manager);

  /// Every core empty and outside the RM mask; RM counters zeroed.
  void reset();

  /// Seats `app` on core k at the start of its phase sequence with the
  /// baseline setting and enters k into the RM mask. A managed run also
  /// gets cold-start counters, as if the first phase had just run at the
  /// baseline. The first interval starts at the next freeze().
  void seat(int k, int app);

  /// Starts core k's next interval at `now_s`: adopts the pending setting
  /// (charging the transition), then freezes phase, duration, energy,
  /// baseline time and cell key from one cell read, folding in the
  /// accumulated overheads.
  void freeze(int k, double now_s);

  /// Completes core k's running interval: the Eq. 3 check against
  /// qos_alpha x base time x (1 + kQosEpsilon) and the Eq. 6 magnitude.
  /// Advances the sequence position; the core stops running until the next
  /// freeze().
  IntervalOutcome finish(int k);

  /// Interval boundary of an app that continues on core k: a key-only
  /// counter refresh of the finished interval's cell, reusing the key its
  /// freeze() read (the Perfect model also sees the upcoming phase), an RM
  /// invocation on k's behalf, and the next interval frozen at the boundary.
  void next_interval(int k);

  /// One RM invocation on behalf of core k over the current mask. Charges
  /// the RM execution to k's next interval and makes k's entry of the
  /// decision (ResourceManager::setting) its pending setting. Every other
  /// core keeps its pending setting: a managed core freezes only right after
  /// its own invocation, or at the closed mix's start at the baseline, so no
  /// other entry would be read. No-op for an Idle-policy run.
  void invoke(int k);

  /// Takes core k out of the RM mask (its app departed).
  void vacate(int k);

  /// The running core whose interval ends first (ties: lowest index), or
  /// -1 when no core is running.
  [[nodiscard]] int next_completion() const noexcept;

  [[nodiscard]] const CoreTimeline& core(int k) const {
    return cores_[static_cast<std::size_t>(k)];
  }
  [[nodiscard]] bool active(int k) const {
    return active_[static_cast<std::size_t>(k)] != 0;
  }
  [[nodiscard]] std::uint64_t rm_invocations() const noexcept {
    return rm_invocations_;
  }
  [[nodiscard]] std::uint64_t rm_ops() const noexcept { return rm_ops_; }

 private:
  [[nodiscard]] int phase_at(const CoreTimeline& st, int seq_pos) const;

  const workload::SimDb* db_ = nullptr;
  rm::ResourceManager* manager_ = nullptr;
  SimOptions opt_{};
  workload::Setting base_{};
  double qos_alpha_ = 1.0;
  bool managed_ = false;
  bool perfect_ = false;

  std::vector<CoreTimeline> cores_;
  std::vector<rm::CounterSnapshot> snapshots_;
  std::vector<std::uint8_t> active_;  ///< RM mask (uint8 so a span can view it)
  std::uint64_t rm_invocations_ = 0;
  std::uint64_t rm_ops_ = 0;
};

}  // namespace qosrm::rmsim

#endif  // QOSRM_RMSIM_CORE_TIMELINE_HH

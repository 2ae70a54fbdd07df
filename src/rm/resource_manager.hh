// The resource-manager policies evaluated in the paper, plus the classic
// partitioning-only baselines the literature measures against.
//
//   Idle      - keeps the baseline setting (the energy reference).
//   RM1       - LLC partitioning only (fixed VF and core size).
//   RM2       - LLC partitioning coordinated with per-core DVFS (Nejat et
//               al., IPDPS 2019 - the paper's prior-art baseline).
//   RM3       - the proposed scheme: LLC partitioning + DVFS + core resizing.
//   UCP       - utility-based partitioning (Qureshi & Patt, MICRO'06
//               lookahead over the ATD miss curves); baseline VF and size.
//   FCP       - fair partitioning (greedy slowdown equalization against the
//               alpha-relaxed baseline time); baseline VF and size.
//   ClassPart - LFOC-style class-based partitioning (light / streaming /
//               sensitive via workload/classify); baseline VF and size.
//
// The baselines choose only {w_j} (see rm/baseline_policies.hh); they run at
// the same interval boundaries and reuse the same counter snapshots, cache
// validity and op accounting as the RM variants.
//
// Invocation (paper Fig. 3): at a core's interval boundary the RM runs the
// LOCAL optimization for that core from its fresh counters, combines the
// resulting energy curve with the cached curves of the other cores in the
// GLOBAL optimization, and so decides the full system setting {w*, f*, c*}.
// The decision is not stored: setting(k) reads core k's entry of it on
// demand from the core's curve and the global allocation.
// Work whose inputs did not change is skipped on the host: with the same
// occupancy and no pending cold start only the invoking core is visited,
// each core's curve is one outcome-memo entry (a memoized cell is referred
// to rather than copied, and fresh counters of the cell whose entry the core
// already holds change nothing), a key-only snapshot's counters are filled
// only where they are read, the global step recombines only the tree nodes
// above cores whose curve changed bitwise or whose occupancy flipped, and
// an invocation that dirtied no leaf skips the global step. The decision
// and the modeled op charge are exactly those of a from-scratch invocation.
#ifndef QOSRM_RM_RESOURCE_MANAGER_HH
#define QOSRM_RM_RESOURCE_MANAGER_HH

#include <cstdint>
#include <deque>
#include <optional>
#include <span>
#include <vector>

#include "rm/baseline_policies.hh"
#include "rm/global_opt.hh"
#include "rm/local_opt.hh"
#include "rm/overheads.hh"

namespace qosrm::rm {

enum class RmPolicy {
  Idle = 0,
  Rm1 = 1,
  Rm2 = 2,
  Rm3 = 3,
  Ucp = 4,
  Fcp = 5,
  ClassPart = 6,
};

[[nodiscard]] const char* rm_policy_name(RmPolicy policy) noexcept;

/// True for the partitioning-only classics (UCP / FCP / ClassPart), which
/// dispatch to rm/baseline_policies instead of the local/global optimizers.
[[nodiscard]] constexpr bool is_baseline_policy(RmPolicy policy) noexcept {
  return policy == RmPolicy::Ucp || policy == RmPolicy::Fcp ||
         policy == RmPolicy::ClassPart;
}

/// Interval-outcome memoization policy (see ResourceManager). Auto and On
/// both enable the memo, at every core count; Off disables it, and then no
/// local result is reused: every curve a core needs is recomputed, even for
/// fresh counters of the cell it already holds. The memo is bit-transparent
/// (cached outcomes and op charges are exactly what a fresh local
/// optimization would produce), so the mode only affects wall time.
enum class RmMemoMode { Auto = 0, On = 1, Off = 2 };

struct RmConfig {
  RmPolicy policy = RmPolicy::Rm3;
  PerfModelKind model = PerfModelKind::Model3;
  EnergyModelOptions energy{};
  RmMemoMode memo = RmMemoMode::Auto;
  /// Optional knob override for ablation studies (e.g. core resizing
  /// without DVFS); when set it replaces the policy-derived knob set for
  /// any non-idle policy.
  std::optional<LocalOptOptions> knobs{};
};

/// What a memoized interval outcome depends on besides its evaluation cell:
/// the local optimizer's knob set, the performance model, the energy-model
/// options and offline power model, and the system (its qos_alpha, the Eq. 3
/// relaxation, included). Managers of equal scope compute bit-identical
/// local optimizations, op charges included, from the same counters.
struct MemoScope {
  LocalOptOptions knobs{};
  PerfModelKind model = PerfModelKind::Model3;
  EnergyModelOptions energy{};
  arch::SystemConfig system{};
  const power::PowerModel* power = nullptr;
  bool operator==(const MemoScope&) const = default;
};

/// The scope of a ResourceManager built from these arguments.
[[nodiscard]] MemoScope memo_scope(const RmConfig& config,
                                   const arch::SystemConfig& system,
                                   const power::PowerModel& offline_power);

/// The interval-outcome memo: per evaluation cell (app, phase, setting) of
/// one database, the local-optimization result, its flat E*(w, b) row and the
/// op count its computation charged, so a hit replays a fresh run exactly.
/// A manager owns one by default; a caller running many managers in a row
/// (the rows of a sweep or service grid on one lane) lends each of them the
/// same memo, so a cell is optimized once per lane and configuration. One
/// manager at a time may hold it. A manager whose scope differs from the
/// last holder's drops the entries (and the database) when it borrows the
/// memo; nothing else drops them, so the memo serves one database per
/// scope. Entries never change once stored; the managers' cores refer to
/// them.
class OutcomeMemo {
 public:
  OutcomeMemo() = default;
  OutcomeMemo(const OutcomeMemo&) = delete;
  OutcomeMemo& operator=(const OutcomeMemo&) = delete;

  /// Cells memoized so far.
  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }

 private:
  friend class ResourceManager;

  struct Entry {
    LocalOptResult local;
    std::vector<double> energy;
    std::uint64_t ops = 0;
  };

  MemoScope scope_{};
  bool lent_ = false;  ///< a live manager holds the memo
  // Flat slot array over the dense key space of the one database served,
  // sized by its first keyed snapshot (db_ null until then).
  const workload::SimDb* db_ = nullptr;
  std::vector<Entry*> slot_;  ///< key -> entry, null when not yet computed
  /// Growing entry pool; a deque so that growth never moves an entry.
  std::deque<Entry> entries_;
};

/// What one invocation charged; the settings it decided are read through
/// ResourceManager::setting.
struct RmDecision {
  std::uint64_t ops = 0;  ///< optimizer operations of this invocation
  bool feasible = true;   ///< false -> fell back to the baseline setting
};

/// Host-side work counters of one ResourceManager, accumulated over its
/// lifetime (reset() keeps them). They count what this implementation
/// actually executed; the modeled ops charged in RmDecision::ops stay the
/// full paper Section III-E count whatever was skipped.
struct RmInvokeStats {
  std::uint64_t invocations = 0;       ///< invoke() calls
  std::uint64_t local_runs = 0;        ///< LocalOptimizer executions
  std::uint64_t counter_fills = 0;     ///< key-only snapshots filled to read
  std::uint64_t cell_replays = 0;      ///< memo hits on the entry already held
  std::uint64_t memo_hits = 0;         ///< other curves served by the memo
  std::uint64_t dp_skips = 0;          ///< global steps that recombined no node
  std::uint64_t nodes_recombined = 0;  ///< combine-tree nodes recomputed
};

/// Reusable scratch of the invocation path: the global optimizer's views,
/// persistent combine tree and result, and the decision handed back to the
/// caller.
/// Owned by the ResourceManager; every buffer keeps its capacity across
/// boundaries, so steady-state invoke() performs no heap allocation.
struct RmWorkspace {
  /// Per-core surface the global optimizer reads: a span over the core's
  /// flat E*(w, b) row, or the idle cell. Kept across calls; a core's view
  /// is rebuilt only when its curve is replaced or its occupancy flips.
  std::vector<EnergyCurveView> views;
  /// Length-1 zero-energy curve presented for inactive cores: it pins them
  /// to llc.min_ways in the global optimization without contributing energy.
  std::vector<double> idle_energy;
  /// Per-core global-tree leaf state: whether the leaf currently holds the
  /// core's curve (1) or the idle cell (0).
  std::vector<std::uint8_t> leaf_active;
  /// The leaves flagged for the next global step (each at most once), in
  /// storage reserved for every core.
  std::vector<int> flagged;
  /// The persistent combine tree; its result() is the last global step's
  /// allocation, read in place.
  GlobalOptWorkspace global;
  BaselineWorkspace baseline;  ///< UCP / FCP / ClassPart inputs + result
  /// A key-only snapshot's filled copy, read by one local run or one
  /// baseline refresh (see ResourceManager::counters).
  CounterSnapshot counters;
  RmDecision decision;
};

class ResourceManager {
 public:
  /// With the memo on, the manager borrows `memo` for its lifetime when one
  /// is given (it must have no other holder; entries of another scope are
  /// dropped), else it owns one.
  ResourceManager(const RmConfig& config, const arch::SystemConfig& system,
                  const power::PowerModel& offline_power,
                  OutcomeMemo* memo = nullptr);
  ~ResourceManager();
  /// Not copyable: the per-core caches and views point into the memo's
  /// entries and this manager's curve storage.
  ResourceManager(const ResourceManager&) = delete;
  ResourceManager& operator=(const ResourceManager&) = delete;

  /// One RM invocation on behalf of `invoking_core`. `snapshots` holds the
  /// most recent counters of every core (the invoking core's entry must be
  /// fresh); key-only entries are filled in the manager's workspace where
  /// their counters are read, so each must not outlive its database.
  /// Returns the invocation's op charge and feasibility; setting() reads
  /// the settings it decided. The reference points into the manager's
  /// workspace and stays valid until the next invoke().
  [[nodiscard]] const RmDecision& invoke(
      int invoking_core, std::span<const CounterSnapshot> snapshots);

  /// Partial-occupancy variant for the colocation-service mode: `active[k]`
  /// non-zero means core k currently runs an application. Inactive cores are
  /// pinned to the minimum LLC allocation with zero energy contribution,
  /// keep their baseline setting in the decision, and have their cached
  /// curves invalidated (the next app on that core cold-starts). The
  /// invoking core must be active.
  [[nodiscard]] const RmDecision& invoke(
      int invoking_core, std::span<const CounterSnapshot> snapshots,
      std::span<const std::uint8_t> active);

  /// Core k's setting in the last invocation's decision, derived on read:
  /// the baseline for a core idle in that call (or before any call, or
  /// since reset()), under the Idle policy, and when the global step was
  /// infeasible; the baseline (c, f, b) with the partitioned ways under the
  /// partitioning-only baselines; otherwise the cell of the core's curve at
  /// its global allocation.
  [[nodiscard]] workload::Setting setting(int core) const;

  /// Drops all cached energy curves (e.g. when the workload changes). The
  /// underlying buffers are kept, so the next boundaries stay allocation-free.
  /// The interval-outcome memo survives: its entries are keyed by cell and
  /// remain valid across workload changes on the same database.
  void reset();

  /// Whether the interval-outcome memo is active for this instance.
  [[nodiscard]] bool memo_enabled() const noexcept { return memo_ != nullptr; }

  /// Host-side work counters (read-only; see RmInvokeStats).
  [[nodiscard]] const RmInvokeStats& stats() const noexcept { return stats_; }

  [[nodiscard]] const RmConfig& config() const noexcept { return cfg_; }
  [[nodiscard]] const arch::SystemConfig& system() const noexcept { return system_; }
  [[nodiscard]] const PerfModel& perf_model() const noexcept { return perf_; }
  [[nodiscard]] const OnlineEnergyModel& energy_model() const noexcept {
    return energy_;
  }

 private:
  /// Invocation tail for the partitioning-only baselines: refreshes the
  /// invoking core's cached inputs (miss curve, predicted times or class),
  /// and runs the policy's partitioner into ws_.baseline.ways, which
  /// setting() maps onto baseline (c, f, b) settings. Mirrors the RM path's
  /// caching and op accounting.
  [[nodiscard]] const RmDecision& invoke_baseline(
      int invoking_core, std::span<const CounterSnapshot> snapshots,
      std::span<const std::uint8_t> active);

  using MemoEntry = OutcomeMemo::Entry;

  /// Per-core curve cache: the curve is the memo entry `entry` points at,
  /// or the core's own entry (`own`) for snapshots no memo slot serves (memo
  /// off, unkeyed or oracle-backed counters). It stays readable after
  /// `valid` drops: its row is what a cold start is compared against.
  /// `entry` starts at `own`, so a CoreCache must never be copied.
  struct CoreCache {
    bool valid = false;
    MemoEntry own;
    MemoEntry* entry = &own;
  };

  /// The counters of `snap` for a reader of more than its key: `snap`
  /// itself unless it is key-only, else its copy in ws_.counters filled
  /// from its source cell (counted in stats_.counter_fills). The reference
  /// stays valid until the next call.
  [[nodiscard]] const CounterSnapshot& counters(const CounterSnapshot& snap);

  /// Local step for core k: recalls or recomputes its curve from its
  /// snapshot (charging the ops only when `fresh`) and updates its view.
  /// Returns whether the row or its shape changed, i.e. whether the caller
  /// must flag the leaf: a valid core's hit on the entry it holds, or a new
  /// entry with a bitwise-equal row, leaves it clean.
  bool refresh_core(int k, bool fresh, const CounterSnapshot& snap,
                    std::uint64_t& ops);

  /// Returns the memo slot for this snapshot, or nullptr when memoization
  /// does not apply (memo off, unkeyed snapshot, or oracle-backed counters
  /// whose outcome depends on more than the key). The first keyed snapshot
  /// sizes the slot array to its database's key space; a snapshot of
  /// another database, or a key outside that space, fails a QOSRM_CHECK.
  [[nodiscard]] MemoEntry** memo_slot(const CounterSnapshot& snap);

  RmConfig cfg_;
  arch::SystemConfig system_;
  PerfModel perf_;
  OnlineEnergyModel energy_;
  LocalOptimizer local_;
  std::vector<CoreCache> cached_;  ///< per-core curves
  std::optional<OutcomeMemo> own_memo_;  ///< the memo when none is lent
  OutcomeMemo* memo_ = nullptr;          ///< the memo in use; null when off
  /// All-ones mask backing the mask-free invoke() overload. std::uint8_t
  /// (not bool) so a std::span can view the storage.
  std::vector<std::uint8_t> all_active_;
  RmWorkspace ws_;
  /// Some active core may lack a valid curve (construction, reset()): the
  /// next invoke visits every core, not only the invoking one.
  bool scan_all_ = true;
  RmInvokeStats stats_;
};

}  // namespace qosrm::rm

#endif  // QOSRM_RM_RESOURCE_MANAGER_HH

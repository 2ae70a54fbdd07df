#include "rm/resource_manager.hh"

#include <algorithm>
#include <bit>

#include "common/check.hh"

namespace qosrm::rm {

const char* rm_policy_name(RmPolicy policy) noexcept {
  switch (policy) {
    case RmPolicy::Idle:
      return "Idle";
    case RmPolicy::Rm1:
      return "RM1";
    case RmPolicy::Rm2:
      return "RM2";
    case RmPolicy::Rm3:
      return "RM3";
    case RmPolicy::Ucp:
      return "UCP";
    case RmPolicy::Fcp:
      return "FCP";
    case RmPolicy::ClassPart:
      return "ClassPart";
  }
  return "?";
}

ResourceManager::ResourceManager(const RmConfig& config,
                                 const arch::SystemConfig& system,
                                 const power::PowerModel& offline_power)
    : cfg_(config), system_(system), perf_(config.model, system),
      energy_(offline_power, config.energy), local_(perf_, energy_, local_options()),
      cached_(static_cast<std::size_t>(system.cores)),
      all_active_(static_cast<std::size_t>(system.cores), 1) {
  ws_.curve_energy.resize(static_cast<std::size_t>(system.cores));
  ws_.views.reserve(static_cast<std::size_t>(system.cores));
  ws_.idle_energy.assign(1, 0.0);
  ws_.leaf_active.assign(static_cast<std::size_t>(system.cores), 0);
  ws_.leaf_dirty.assign(static_cast<std::size_t>(system.cores), 1);
  memo_on_ = cfg_.memo != RmMemoMode::Off;
  if (is_baseline_policy(cfg_.policy)) {
    // Size the baseline-policy buffers up front so invoke_baseline's
    // resize() calls are no-ops and the steady-state path stays heap-free.
    const std::size_t cores = static_cast<std::size_t>(system_.cores);
    const std::size_t n_alloc =
        static_cast<std::size_t>(system_.llc.num_allocations());
    ws_.baseline.miss.resize(cores * n_alloc);
    ws_.baseline.ways.resize(cores);
    if (cfg_.policy == RmPolicy::Fcp) {
      ws_.baseline.time_s.resize(cores * n_alloc);
      ws_.baseline.t_ref.resize(cores);
    }
    if (cfg_.policy == RmPolicy::ClassPart) {
      ws_.baseline.cls.resize(cores);
    }
  }
}

LocalOptOptions ResourceManager::local_options() const noexcept {
  if (cfg_.knobs.has_value()) return *cfg_.knobs;
  LocalOptOptions opt;
  opt.allow_dvfs = cfg_.policy == RmPolicy::Rm2 || cfg_.policy == RmPolicy::Rm3;
  opt.allow_resize = cfg_.policy == RmPolicy::Rm3;
  return opt;
}

void ResourceManager::reset() {
  for (CoreCache& entry : cached_) entry.valid = false;
}

std::int32_t* ResourceManager::memo_slot(const CounterSnapshot& snap) {
  if (!memo_on_ || snap.memo_key < 0 || snap.oracle.valid()) return nullptr;
  if (snap.memo_db != memo_db_) {
    // First sight of this database: size the slot array to its dense key
    // space and drop entries memoized against any previous one.
    QOSRM_CHECK(snap.memo_key < snap.memo_space);
    memo_slot_.assign(static_cast<std::size_t>(snap.memo_space), -1);
    memo_entries_.clear();
    memo_db_ = snap.memo_db;
  }
  if (snap.memo_key >= static_cast<std::int64_t>(memo_slot_.size())) {
    return nullptr;  // defensively refuse an out-of-range key
  }
  return &memo_slot_[static_cast<std::size_t>(snap.memo_key)];
}

const RmDecision& ResourceManager::invoke(
    int invoking_core, std::span<const CounterSnapshot> snapshots) {
  return invoke(invoking_core, snapshots, all_active_);
}

const RmDecision& ResourceManager::invoke(
    int invoking_core, std::span<const CounterSnapshot> snapshots,
    std::span<const std::uint8_t> active) {
  QOSRM_CHECK(static_cast<int>(snapshots.size()) == system_.cores);
  QOSRM_CHECK(static_cast<int>(active.size()) == system_.cores);
  QOSRM_CHECK(invoking_core >= 0 && invoking_core < system_.cores);
  QOSRM_CHECK_MSG(active[static_cast<std::size_t>(invoking_core)] != 0,
                  "RM invoked on behalf of an inactive core");

  ++stats_.invocations;
  RmDecision& decision = ws_.decision;
  decision.ops = 0;
  // Whether decision.settings still holds the last call's feasible RM
  // decision; anything but a full feasible pass below leaves it false.
  const bool settings_reusable = settings_reusable_;
  settings_reusable_ = false;
  if (cfg_.policy == RmPolicy::Idle || is_baseline_policy(cfg_.policy)) {
    decision.feasible = true;
    decision.settings.assign(static_cast<std::size_t>(system_.cores),
                             workload::baseline_setting(system_));
    if (cfg_.policy == RmPolicy::Idle) return decision;
    return invoke_baseline(invoking_core, snapshots, active);
  }

  // Local optimization: fresh curve for the invoking core; active cores
  // never seen before also get one from their latest counters (cold start),
  // matching Fig. 3 where other cores' curves are "already available".
  // Recomputed curves are flattened into the workspace's per-core E*(w)
  // array once; cached cores keep theirs, so no curve is copied on the
  // steady path. Inactive cores drop their cache (their counters describe
  // an app that has departed) and take no part in the local step. A core's
  // global-tree leaf is dirtied only when its occupancy flips or its
  // flattened row changes bitwise.
  bool inputs_changed = false;  // an occupancy flip or a replaced LocalOptResult
  for (int core = 0; core < system_.cores; ++core) {
    const auto k = static_cast<std::size_t>(core);
    CoreCache& cache = cached_[k];
    const std::uint8_t occupied = active[k] != 0 ? 1 : 0;
    if (ws_.leaf_active[k] != occupied) {
      ws_.leaf_active[k] = occupied;
      ws_.leaf_dirty[k] = 1;
      inputs_changed = true;
    }
    if (active[k] == 0) {
      cache.valid = false;
      continue;
    }
    const bool fresh = core == invoking_core;
    if (!fresh && cache.valid) continue;
    const CounterSnapshot& snap = snapshots[k];
    // Same-cell replay: a keyed snapshot's local optimization is a pure
    // function of its evaluation cell, so fresh counters of the cell the
    // cached curve came from reproduce that curve (and its row) exactly.
    // Charge the ops its computation charged; nothing else changes.
    const bool keyed = snap.memo_key >= 0 && !snap.oracle.valid();
    if (cache.valid && keyed && snap.memo_key == cache.memo_key &&
        snap.memo_db == cache.memo_db) {
      decision.ops += cache.ops;  // only the invoking core reaches here
      ++stats_.cell_replays;
      continue;
    }
    // Interval-outcome memo: a previously seen cell replays the stored
    // result - charging exactly the ops a fresh run would have, which keeps
    // the decision (and the modeled RM overhead) bit-identical with the
    // memo on or off.
    std::int32_t* slot = memo_slot(snap);
    if (slot != nullptr && *slot >= 0) {
      const MemoEntry& entry = memo_entries_[static_cast<std::size_t>(*slot)];
      cache.local = entry.local;  // vector assign reuses the cache's storage
      cache.ops = entry.ops;
      ++stats_.memo_hits;
    } else {
      cache.ops = 0;
      local_.optimize_into(snap, cache.local, &cache.ops);
      ++stats_.local_runs;
      if (slot != nullptr) {
        *slot = static_cast<std::int32_t>(memo_entries_.size());
        memo_entries_.push_back({cache.local, cache.ops});
      }
    }
    if (fresh) decision.ops += cache.ops;
    inputs_changed = true;
    cache.valid = true;
    cache.memo_key = keyed ? snap.memo_key : -1;
    cache.memo_db = snap.memo_db;
    std::vector<double>& energy = ws_.curve_energy[k];
    const std::size_t cells = cache.local.choices.size();
    bool changed = energy.size() != cells;
    energy.resize(cells);
    for (std::size_t i = 0; i < cells; ++i) {
      const WayChoice& c = cache.local.choices[i];
      const double e = c.feasible ? c.energy_j : kInfeasibleEnergy;
      changed = changed || std::bit_cast<std::uint64_t>(e) !=
                               std::bit_cast<std::uint64_t>(energy[i]);
      energy[i] = e;
    }
    if (changed) ws_.leaf_dirty[k] = 1;
  }

  // Unchanged decision: every active core kept the very LocalOptResult (so
  // the same settings table, not merely bitwise-equal energies, which a memo
  // hit may bring with different settings) and the occupancy is the same,
  // so no leaf is dirty and the global step would recombine nothing, charge
  // the tree's cached total and pick the same cells of the same tables.
  // The last decision is that outcome; hand it back untouched.
  if (settings_reusable && !inputs_changed) {
    decision.ops += ws_.global.last_ops();
    ++stats_.dp_skips;
    settings_reusable_ = true;
    return decision;
  }

  decision.feasible = true;
  decision.settings.assign(static_cast<std::size_t>(system_.cores),
                           workload::baseline_setting(system_));
  ws_.views.clear();
  for (int core = 0; core < system_.cores; ++core) {
    if (active[static_cast<std::size_t>(core)] == 0) {
      // A single-cell zero-energy surface: the global optimizer has exactly
      // one choice for this core (llc.min_ways, bw.min_shares), so idle
      // cores hold the minimum allocation of both resources and the
      // remaining budget goes to the active ones.
      ws_.views.push_back({system_.llc.min_ways,
                           std::span<const double>(ws_.idle_energy),
                           system_.bw.min_shares, 1});
      continue;
    }
    const LocalOptResult& local = cached_[static_cast<std::size_t>(core)].local;
    ws_.views.push_back(
        {local.min_ways,
         std::span<const double>(ws_.curve_energy[static_cast<std::size_t>(core)]),
         local.min_shares, local.num_shares});
  }

  GlobalOptResult& global = ws_.global_result;
  GlobalOptimizer::optimize_into(ws_.views, system_.total_ways(),
                                 system_.total_shares(), ws_.leaf_dirty,
                                 ws_.global, global, &decision.ops);
  std::fill(ws_.leaf_dirty.begin(), ws_.leaf_dirty.end(), std::uint8_t{0});
  const int recombined = ws_.global.last_recombined();
  stats_.nodes_recombined += static_cast<std::uint64_t>(recombined);
  if (recombined == 0) ++stats_.dp_skips;
  if (!global.feasible) {
    // Should not happen (the baseline allocation is always feasible), but
    // fall back to the baseline setting defensively.
    decision.feasible = false;
    return decision;
  }

  for (int core = 0; core < system_.cores; ++core) {
    if (active[static_cast<std::size_t>(core)] == 0) continue;  // baseline
    const LocalOptResult& local = cached_[static_cast<std::size_t>(core)].local;
    const WayChoice& choice =
        local.at(global.ways[static_cast<std::size_t>(core)],
                 global.shares[static_cast<std::size_t>(core)]);
    QOSRM_CHECK_MSG(choice.feasible, "global optimizer chose an infeasible way");
    decision.settings[static_cast<std::size_t>(core)] = choice.setting;
  }
  settings_reusable_ = true;
  return decision;
}

const RmDecision& ResourceManager::invoke_baseline(
    int invoking_core, std::span<const CounterSnapshot> snapshots,
    std::span<const std::uint8_t> active) {
  RmDecision& decision = ws_.decision;  // invoke() reset ops/feasible/settings
  BaselineWorkspace& bw = ws_.baseline;
  const arch::LlcConfig& llc = system_.llc;
  const int n_alloc = llc.num_allocations();
  const workload::Setting base = workload::baseline_setting(system_);

  // Input refresh, mirroring the RM path: the invoking core's inputs are
  // recomputed from its fresh counters (and only its recomputation charges
  // ops), active cores without a valid cache cold-start, cached cores keep
  // their rows in the workspace, inactive cores drop their cache.
  for (int core = 0; core < system_.cores; ++core) {
    CoreCache& cache = cached_[static_cast<std::size_t>(core)];
    if (active[static_cast<std::size_t>(core)] == 0) {
      cache.valid = false;
      continue;
    }
    const bool fresh = core == invoking_core;
    if (!fresh && cache.valid) continue;
    const CounterSnapshot& snap = snapshots[static_cast<std::size_t>(core)];
    std::uint64_t refresh_ops = 0;
    double* miss_row =
        &bw.miss[static_cast<std::size_t>(core) * static_cast<std::size_t>(n_alloc)];
    for (int i = 0; i < n_alloc; ++i) {
      miss_row[i] = snap.atd_misses_at(llc.min_ways + i);
    }
    if (cfg_.policy == RmPolicy::Fcp) {
      // Slowdown reference: the alpha-relaxed baseline prediction, exactly
      // the QoS target the local optimizer holds the RM variants to.
      bw.t_ref[static_cast<std::size_t>(core)] =
          perf_.predict_time(snap, base) * system_.qos_alpha;
      ++refresh_ops;
      double* time_row = &bw.time_s[static_cast<std::size_t>(core) *
                                    static_cast<std::size_t>(n_alloc)];
      for (int i = 0; i < n_alloc; ++i) {
        time_row[i] = perf_.predict_time(
            snap, {base.c, base.f_idx, llc.min_ways + i, base.b});
        ++refresh_ops;
      }
    } else if (cfg_.policy == RmPolicy::ClassPart) {
      // Classify from the online ATD curve at the same -50%/base/+50% probe
      // points as the offline Table II classifier.
      const int wb = llc.ways_per_core_baseline;
      const double ki =
          snap.instructions > 0.0 ? 1000.0 / snap.instructions : 0.0;
      bw.cls[static_cast<std::size_t>(core)] = workload::classify_part_class(
          snap.atd_misses_at(wb) * ki,
          snap.atd_misses_at(wb > 1 ? wb / 2 : 1) * ki,
          snap.atd_misses_at(wb + wb / 2) * ki);
      refresh_ops += 3;
    }
    if (fresh) decision.ops += refresh_ops;
    cache.valid = true;
  }

  switch (cfg_.policy) {
    case RmPolicy::Ucp:
      ucp_partition(bw.miss, active, llc.min_ways, llc.max_ways,
                    system_.total_ways(), bw.ways, &decision.ops);
      break;
    case RmPolicy::Fcp:
      fcp_partition(bw.time_s, bw.t_ref, active, llc.min_ways, llc.max_ways,
                    system_.total_ways(), bw.ways, &decision.ops);
      break;
    case RmPolicy::ClassPart:
      classpart_partition(bw.cls, active, llc.min_ways, llc.max_ways,
                          system_.total_ways(), bw.ways, &decision.ops);
      break;
    default:
      QOSRM_CHECK_MSG(false, "invoke_baseline on a non-baseline policy");
  }

  for (int core = 0; core < system_.cores; ++core) {
    if (active[static_cast<std::size_t>(core)] == 0) continue;  // baseline
    // Ways-only baseline policies keep every core at its baseline bandwidth
    // share - they have no notion of the CBP knob.
    decision.settings[static_cast<std::size_t>(core)] = {
        base.c, base.f_idx, bw.ways[static_cast<std::size_t>(core)], base.b};
  }
  return decision;
}

}  // namespace qosrm::rm

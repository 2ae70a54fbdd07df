#include "rm/resource_manager.hh"

#include <algorithm>
#include <bit>
#include <cstring>

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

namespace {

LocalOptOptions knobs_for(const RmConfig& config) noexcept {
  if (config.knobs.has_value()) return *config.knobs;
  LocalOptOptions opt;
  opt.allow_dvfs = config.policy == RmPolicy::Rm2 || config.policy == RmPolicy::Rm3;
  opt.allow_resize = config.policy == RmPolicy::Rm3;
  return opt;
}

}  // namespace

MemoScope memo_scope(const RmConfig& config, const arch::SystemConfig& system,
                     const power::PowerModel& offline_power) {
  return {knobs_for(config), config.model, config.energy, system, &offline_power};
}

ResourceManager::ResourceManager(const RmConfig& config,
                                 const arch::SystemConfig& system,
                                 const power::PowerModel& offline_power,
                                 OutcomeMemo* memo)
    : cfg_(config), system_(system), perf_(config.model, system),
      energy_(offline_power, config.energy), local_(perf_, energy_, knobs_for(config)),
      cached_(static_cast<std::size_t>(system.cores)),
      all_active_(static_cast<std::size_t>(system.cores), 1) {
  const auto n = static_cast<std::size_t>(system.cores);
  ws_.idle_energy.assign(1, 0.0);
  // Every leaf starts idle: a core's view becomes its curve when it is
  // first seen active, which flags its leaf.
  ws_.views.assign(n, {system_.llc.min_ways, std::span<const double>(ws_.idle_energy),
                       system_.bw.min_shares, 1});
  ws_.leaf_active.assign(n, 0);
  ws_.leaf_dirty.assign(n, 0);
  ws_.touched.reserve(2 * n);  // a core may flip and cold-start in one call
  ws_.rewrite_mark.assign(n, 0);
  ws_.decision.settings.assign(n, workload::baseline_setting(system_));
  ws_.decision.rewritten.reserve(n);
  if (cfg_.memo != RmMemoMode::Off) {
    const MemoScope scope = memo_scope(cfg_, system_, offline_power);
    if (memo == nullptr) memo = &own_memo_.emplace();
    QOSRM_CHECK_MSG(!memo->lent_, "outcome memo lent to two live managers");
    if (memo->scope_ != scope) {  // entries of another scope are stale
      memo->scope_ = scope;
      memo->db_ = nullptr;
      memo->entries_.clear();
    }
    memo->lent_ = true;
    memo_ = memo;
  }
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

ResourceManager::~ResourceManager() {
  if (memo_ != nullptr) memo_->lent_ = false;
}

void ResourceManager::reset() {
  for (CoreCache& entry : cached_) entry.valid = false;
  scan_all_ = true;
}

OutcomeMemo::Entry** ResourceManager::memo_slot(const CounterSnapshot& snap) {
  if (memo_ == nullptr || snap.memo_key < 0 || snap.oracle.valid()) return nullptr;
  OutcomeMemo& memo = *memo_;
  if (memo.db_ == nullptr) {
    memo.slot_.assign(static_cast<std::size_t>(snap.memo_space), nullptr);
    memo.db_ = snap.memo_db;
  }
  QOSRM_CHECK_MSG(snap.memo_db == memo.db_, "outcome memo met a second database");
  QOSRM_CHECK_MSG(snap.memo_key < static_cast<std::int64_t>(memo.slot_.size()),
                  "memo key outside its database's key space");
  return &memo.slot_[static_cast<std::size_t>(snap.memo_key)];
}

const RmDecision& ResourceManager::invoke(
    int invoking_core, std::span<const CounterSnapshot> snapshots) {
  return invoke(invoking_core, snapshots, all_active_);
}

namespace {

/// Writes `local`'s flat E*(w, b) row into `row`; returns whether the row
/// changed bitwise (its length included).
bool flatten_into(const LocalOptResult& local, std::vector<double>& row) {
  const std::size_t cells = local.choices.size();
  bool changed = row.size() != cells;
  row.resize(cells);
  for (std::size_t i = 0; i < cells; ++i) {
    const WayChoice& c = local.choices[i];
    const double e = c.feasible ? c.energy_j : kInfeasibleEnergy;
    changed = changed ||
              std::bit_cast<std::uint64_t>(e) != std::bit_cast<std::uint64_t>(row[i]);
    row[i] = e;
  }
  return changed;
}

bool same_bits(std::span<const double> a, std::span<const double> b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

}  // namespace

const CounterSnapshot& ResourceManager::counters(const CounterSnapshot& snap) {
  if (!snap.key_only) return snap;
  ws_.counters = snap;
  fill_counters(ws_.counters);
  ++stats_.counter_fills;
  return ws_.counters;
}

bool ResourceManager::refresh_core(int k, bool fresh, const CounterSnapshot& snap,
                                   std::uint64_t& ops) {
  CoreCache& cache = cached_[static_cast<std::size_t>(k)];
  // Interval-outcome memo: a keyed snapshot's local optimization is a pure
  // function of its evaluation cell, so a previously seen cell refers to the
  // stored result - charging exactly the ops a fresh run would have, which
  // keeps the decision (and the modeled RM overhead) bit-identical with the
  // memo on or off. A hit on the entry a valid core already holds (fresh
  // counters of its cell) changes nothing else. A new cell is computed
  // straight into a new entry, flattened once. Without a slot the curve is
  // recomputed into the core's own entry. Only these two local runs read
  // counters beyond the key, so only they fill.
  const std::vector<double>& old_row = cache.entry->energy;
  bool changed = false;
  if (MemoEntry** slot = memo_slot(snap); slot != nullptr) {
    if (*slot == nullptr) {
      MemoEntry& entry = memo_->entries_.emplace_back();
      *slot = &entry;
      local_.optimize_into(counters(snap), entry.local, &entry.ops);
      (void)flatten_into(entry.local, entry.energy);
      ++stats_.local_runs;
    } else if (cache.valid && cache.entry == *slot) {
      ops += cache.entry->ops;  // only the invoking core reaches here
      ++stats_.cell_replays;
      return false;
    } else {
      ++stats_.memo_hits;
    }
    cache.entry = *slot;
    changed = !same_bits(old_row, cache.entry->energy);
  } else {
    MemoEntry& own = cache.own;
    own.ops = 0;
    local_.optimize_into(counters(snap), own.local, &own.ops);
    ++stats_.local_runs;
    const bool own_changed = flatten_into(own.local, own.energy);
    changed = cache.entry == &own ? own_changed : !same_bits(old_row, own.energy);
    cache.entry = &own;
  }
  if (fresh) ops += cache.entry->ops;
  cache.valid = true;

  const LocalOptResult& local = cache.entry->local;
  EnergyCurveView& view = ws_.views[static_cast<std::size_t>(k)];
  changed = changed || view.min_ways != local.min_ways ||
            view.min_shares != local.min_shares ||
            view.num_shares != local.num_shares;
  view = {local.min_ways, std::span<const double>(cache.entry->energy),
          local.min_shares, local.num_shares};
  if (changed) ws_.leaf_dirty[static_cast<std::size_t>(k)] = 1;
  ws_.touched.push_back(k);
  return true;
}

void ResourceManager::rewrite(int k, std::span<const std::uint8_t> active,
                              const GlobalOptResult& global) {
  const auto i = static_cast<std::size_t>(k);
  workload::Setting& setting = ws_.decision.settings[i];
  if (active[i] == 0) {
    setting = workload::baseline_setting(system_);
  } else {
    const WayChoice& choice =
        cached_[i].entry->local.at(global.ways[i], global.shares[i]);
    QOSRM_CHECK_MSG(choice.feasible, "global optimizer chose an infeasible way");
    setting = choice.setting;
  }
  if (ws_.rewrite_mark[i] != 0) return;
  ws_.rewrite_mark[i] = 1;
  ws_.decision.rewritten.push_back(k);
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
  decision.rewritten.clear();
  // Whether decision.settings still holds the last call's feasible RM
  // decision; anything but a full feasible pass below leaves it false.
  const bool settings_reusable = settings_reusable_;
  settings_reusable_ = false;
  if (cfg_.policy == RmPolicy::Idle || is_baseline_policy(cfg_.policy)) {
    decision.feasible = true;
    decision.settings.assign(static_cast<std::size_t>(system_.cores),
                             workload::baseline_setting(system_));
    for (int core = 0; core < system_.cores; ++core) decision.rewritten.push_back(core);
    if (cfg_.policy == RmPolicy::Idle) return decision;
    return invoke_baseline(invoking_core, snapshots, active);
  }

  // Local optimization: fresh curve for the invoking core; active cores
  // never seen before also get one from their latest counters (cold start),
  // matching Fig. 3 where other cores' curves are "already available".
  // Inactive cores drop their cache (their counters describe an app that
  // has departed) and take no part in the local step. A core's global-tree
  // leaf is dirtied only when its occupancy flips or its row changes
  // bitwise. With the occupancy of the last call and no cold start pending,
  // every other core's cache is valid and its leaf unchanged, so only the
  // invoking core is visited.
  const bool scan_all =
      scan_all_ || !std::equal(active.begin(), active.end(), ws_.leaf_active.begin());
  scan_all_ = false;
  ws_.touched.clear();
  bool inputs_changed = false;  // an occupancy flip or a replaced curve
  if (!scan_all) {
    inputs_changed = refresh_core(invoking_core, true,
                                  snapshots[static_cast<std::size_t>(invoking_core)],
                                  decision.ops);
  } else {
    for (int core = 0; core < system_.cores; ++core) {
      const auto k = static_cast<std::size_t>(core);
      CoreCache& cache = cached_[k];
      const std::uint8_t occupied = active[k] != 0 ? 1 : 0;
      if (ws_.leaf_active[k] != occupied) {
        ws_.leaf_active[k] = occupied;
        ws_.leaf_dirty[k] = 1;
        inputs_changed = true;
        ws_.touched.push_back(core);
        // A core turning active has no valid cache (it was dropped when
        // the core was seen idle), so the cold start below sets its view.
        if (occupied == 0) {
          ws_.views[k] = {system_.llc.min_ways, std::span<const double>(ws_.idle_energy),
                          system_.bw.min_shares, 1};
        }
      }
      if (occupied == 0) {
        cache.valid = false;
        continue;
      }
      const bool fresh = core == invoking_core;
      if (!fresh && cache.valid) continue;
      inputs_changed = refresh_core(core, fresh, snapshots[k], decision.ops) ||
                       inputs_changed;
    }
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

  GlobalOptResult& global = ws_.global_result;
  GlobalOptimizer::optimize_into(ws_.views, system_.total_ways(),
                                 system_.total_shares(), ws_.leaf_dirty,
                                 ws_.global, global, &decision.ops);
  for (const int k : ws_.touched) ws_.leaf_dirty[static_cast<std::size_t>(k)] = 0;
  const int recombined = ws_.global.last_recombined();
  stats_.nodes_recombined += static_cast<std::uint64_t>(recombined);
  if (recombined == 0) ++stats_.dp_skips;
  if (!global.feasible) {
    // Should not happen (the baseline allocation is always feasible), but
    // fall back to the baseline setting defensively.
    decision.feasible = false;
    decision.settings.assign(static_cast<std::size_t>(system_.cores),
                             workload::baseline_setting(system_));
    for (int core = 0; core < system_.cores; ++core) decision.rewritten.push_back(core);
    return decision;
  }

  // Settings: a core's entry can only move when its curve was replaced, its
  // occupancy flipped or the global step re-placed its leaf; every other
  // entry still holds the last feasible decision's value. Without one,
  // every core is rewritten.
  decision.feasible = true;
  if (!settings_reusable) {
    for (int core = 0; core < system_.cores; ++core) rewrite(core, active, global);
  } else {
    for (const int k : ws_.touched) rewrite(k, active, global);
    for (const int k : ws_.global.last_placed()) rewrite(k, active, global);
  }
  for (const int k : decision.rewritten) ws_.rewrite_mark[static_cast<std::size_t>(k)] = 0;
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
    const CounterSnapshot& snap = counters(snapshots[static_cast<std::size_t>(core)]);
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

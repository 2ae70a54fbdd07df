#include "rm/resource_manager.hh"

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
  ws_.flagged.reserve(n);
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

bool same_bits(std::span<const double> a, std::span<const double> b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/// Whether the `Word`-sized chunks at a and b are equal (a fixed-size
/// memcpy is a register load, not a library call).
template <typename Word>
bool same_word(const std::uint8_t* a, const std::uint8_t* b) {
  Word x = 0;
  Word y = 0;
  std::memcpy(&x, a, sizeof x);
  std::memcpy(&y, b, sizeof y);
  return x == y;
}

/// Whether two occupancy masks of n cores match, compared eight cores at a
/// time, then four, then one.
bool same_mask(const std::uint8_t* a, const std::uint8_t* b, std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    if (!same_word<std::uint64_t>(a + i, b + i)) return false;
  }
  if (i + 4 <= n) {
    if (!same_word<std::uint32_t>(a + i, b + i)) return false;
    i += 4;
  }
  for (; i < n; ++i) {
    if (a[i] != b[i]) return false;
  }
  return true;
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
      (void)entry.local.energy_curve_into(entry.energy);
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
    const bool own_changed = own.local.energy_curve_into(own.energy);
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
  return changed;
}

workload::Setting ResourceManager::setting(int core) const {
  QOSRM_CHECK(core >= 0 && core < system_.cores);
  const auto k = static_cast<std::size_t>(core);
  const bool managed = cached_[k].valid && cfg_.policy != RmPolicy::Idle;
  const GlobalOptResult& global = ws_.global.result();
  // The RM variants' common case reads the cell of the core's curve at its
  // global allocation and builds no baseline.
  if (managed && !is_baseline_policy(cfg_.policy) && global.feasible) {
    const WayChoice& choice =
        cached_[k].entry->local.at(global.ways[k], global.shares[k]);
    QOSRM_CHECK_MSG(choice.feasible, "global optimizer chose an infeasible way");
    return choice.setting;
  }
  const workload::Setting base = workload::baseline_setting(system_);
  // Ways-only baseline policies keep every core at its baseline VF, size
  // and bandwidth share - they have no notion of those knobs.
  if (managed && is_baseline_policy(cfg_.policy)) {
    return {base.c, base.f_idx, ws_.baseline.ways[k], base.b};
  }
  return base;
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
  decision.feasible = true;
  if (cfg_.policy == RmPolicy::Idle) return decision;
  if (is_baseline_policy(cfg_.policy)) {
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
      scan_all_ || !same_mask(active.data(), ws_.leaf_active.data(), active.size());
  scan_all_ = false;
  std::vector<int>& flagged = ws_.flagged;  // leaves for the global step
  if (!scan_all) {
    if (refresh_core(invoking_core, true,
                     snapshots[static_cast<std::size_t>(invoking_core)], decision.ops)) {
      flagged.push_back(invoking_core);
    }
  } else {
    for (int core = 0; core < system_.cores; ++core) {
      const auto k = static_cast<std::size_t>(core);
      CoreCache& cache = cached_[k];
      const std::uint8_t occupied = active[k] != 0 ? 1 : 0;
      bool flag = false;
      if (ws_.leaf_active[k] != occupied) {
        ws_.leaf_active[k] = occupied;
        flag = true;
        // A core turning active has no valid cache (it was dropped when
        // the core was seen idle), so the cold start below sets its view.
        if (occupied == 0) {
          ws_.views[k] = {system_.llc.min_ways, std::span<const double>(ws_.idle_energy),
                          system_.bw.min_shares, 1};
        }
      }
      if (occupied == 0) {
        cache.valid = false;
      } else if (const bool fresh = core == invoking_core; fresh || !cache.valid) {
        flag = refresh_core(core, fresh, snapshots[k], decision.ops) || flag;
      }
      if (flag) flagged.push_back(core);
    }
  }

  // No flagged leaf after a feasible global step: the step would recombine
  // nothing, charge the tree's cached total and keep the allocation that
  // setting() reads each core's current curve at. A core whose curve was
  // replaced by a bitwise-equal one is read from its new table.
  if (flagged.empty() && ws_.global.result().feasible) {
    decision.ops += ws_.global.last_ops();
    ++stats_.dp_skips;
    return decision;
  }

  const GlobalOptResult& global =
      GlobalOptimizer::optimize(ws_.views, system_.total_ways(), system_.total_shares(),
                                flagged, ws_.global, &decision.ops);
  flagged.clear();
  const int recombined = ws_.global.last_recombined();
  stats_.nodes_recombined += static_cast<std::uint64_t>(recombined);
  if (recombined == 0) ++stats_.dp_skips;
  // An infeasible result should not happen (the baseline allocation is
  // always feasible); setting() then falls back to the baseline defensively.
  decision.feasible = global.feasible;
  return decision;
}

const RmDecision& ResourceManager::invoke_baseline(
    int invoking_core, std::span<const CounterSnapshot> snapshots,
    std::span<const std::uint8_t> active) {
  RmDecision& decision = ws_.decision;  // invoke() reset ops and feasible
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
  return decision;
}

}  // namespace qosrm::rm

#include "rmsim/service.hh"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <limits>

#include "common/binary_io.hh"
#include "common/check.hh"
#include "common/histogram.hh"
#include "common/stats.hh"
#include "common/str.hh"
#include "common/thread_pool.hh"
#include "workload/classify.hh"

namespace qosrm::rmsim {

namespace {

constexpr NamedValue<AdmissionPolicy> kAdmissionNames[] = {
    {"fifo", AdmissionPolicy::Fifo},
    {"sdf", AdmissionPolicy::Sdf},
    {"qos-aware", AdmissionPolicy::QosAware}};

/// Violation-magnitude histogram layout. Quantiles interpolate within bins,
/// so the bin count bounds the quantile resolution (2.0 / 4096).
constexpr double kHistMaxViolation = 2.0;
constexpr std::size_t kHistBins = 4096;

/// What the service tracks per occupied core beyond the kernel's interval
/// state: the admitted application's remaining demand and its energy.
struct Tenant {
  int remaining = 0;  ///< intervals left including the running one
  double app_energy_j = 0.0;  ///< core+memory energy of the current app
};

struct QueueEntry {
  double arrival_s = 0.0;
  int app = 0;
  int demand = 0;
};

}  // namespace

const char* admission_policy_name(AdmissionPolicy policy) noexcept {
  return name_of(kAdmissionNames, policy);
}

bool try_parse_admissions(const std::string& spec,
                          std::vector<AdmissionPolicy>* out,
                          std::string* error) {
  return parse_name_list_flag("admission", spec, kAdmissionNames, out, error);
}

ServicePoint ServiceGrid::point(std::size_t idx) const {
  QOSRM_CHECK_MSG(idx < size(), "service grid index out of range");
  const ServiceCell c = shape().cell(idx);
  return {patterns[c.pattern], loads[c.load], admissions[c.admission],
          policies[c.policy], qos_alphas[c.alpha]};
}

double mean_baseline_interval_s(const workload::SimDb& db) {
  RunningStats app_means;
  for (int app = 0; app < db.suite().size(); ++app) {
    const auto& seq = db.suite().app(app).phase_sequence;
    RunningStats intervals;
    for (const int phase : seq) intervals.add(db.baseline_time(app, phase));
    app_means.add(intervals.mean());
  }
  QOSRM_CHECK(app_means.mean() > 0.0);
  return app_means.mean();
}

struct ServiceEngine::Impl {
  const workload::SimDb* db;
  ServiceConfig cfg;
  ServicePoint point;
  arch::SystemConfig sys;

  rm::ResourceManager manager;
  IntervalKernel kernel;
  workload::ArrivalTrace trace;

  /// Per-app LFOC-style partitioning class (light/streaming/sensitive),
  /// precomputed from the database's MPKI probes at construction so the
  /// steady-state admission decisions are array lookups (0 allocs).
  std::vector<workload::PartClass> app_class;
  /// Sensitive apps currently resident on a core or waiting in the queue -
  /// the pool-pressure input of the qos-aware rejection predicate.
  int sensitive_in_system = 0;
  /// Way allocation below which a sensitive app's own miss curve (the -50%
  /// MPKI probe of the Table II swing rule) predicts an Eq. 6 magnitude
  /// beyond the alpha relaxation; see DESIGN.md.
  int min_useful_ways = 0;

  std::vector<Tenant> tenants;

  // Fixed-capacity FIFO ring (no allocation while queueing/draining).
  std::vector<QueueEntry> queue;
  std::size_t q_head = 0;
  std::size_t q_size = 0;

  Histogram violation_hist;
  RunningStats violation_stats;
  RunningStats app_energy_stats;
  RunningStats wait_stats;

  std::size_t next_arrival = 0;
  std::uint64_t served = 0;
  std::uint64_t rejected = 0;
  std::uint64_t qos_rejected = 0;
  std::uint64_t intervals = 0;
  std::uint64_t violations = 0;
  double core_energy_j = 0.0;  ///< core+memory energy over ALL intervals
  double busy_s = 0.0;
  double wall_s = 0.0;

  static arch::SystemConfig system_for(const workload::SimDb& db,
                                       const ServicePoint& point) {
    arch::SystemConfig sys = db.system();
    if (point.qos_alpha > 0.0) sys.qos_alpha = point.qos_alpha;
    return sys;
  }

  Impl(const workload::SimDb& database, const ServiceConfig& config,
       const ServicePoint& grid_point, rm::OutcomeMemo* memo)
      : db(&database), cfg(config), point(grid_point),
        sys(system_for(database, grid_point)),
        manager(rm_config_for(grid_point.policy, config.model), sys,
                database.power(), memo),
        violation_hist(0.0, kHistMaxViolation, kHistBins) {
    QOSRM_CHECK_MSG(cfg.sim.qos_alpha_override == 0.0,
                    "ServiceConfig::sim.qos_alpha_override is not read by the "
                    "service; set the alpha through ServicePoint::qos_alpha");
    QOSRM_CHECK_MSG(cfg.arrivals > 0, "service run needs at least one arrival");
    QOSRM_CHECK_MSG(cfg.queue_capacity >= 1, "queue capacity must be >= 1");
    QOSRM_CHECK_MSG(cfg.demand_min > 0 && cfg.demand_max >= cfg.demand_min,
                    "demand range must satisfy 0 < demand_min <= demand_max");

    // All (policy, alpha) cells of one (pattern, load) grid point face the
    // SAME arrival trace: the trace seed mixes only the base seed with the
    // pattern and the load, so policies are compared on identical demand.
    Fnv1a64 seed_hash;
    seed_hash.add_u64(cfg.seed);
    seed_hash.add_u32(static_cast<std::uint32_t>(point.pattern));
    seed_hash.add_f64(point.load);

    workload::ArrivalGenOptions gen;
    gen.pattern = point.pattern;
    gen.load = point.load;
    gen.cores = sys.cores;
    gen.count = cfg.arrivals;
    gen.seed = seed_hash.digest();
    gen.mean_service_time =
        mean_baseline_interval_s(*db) *
        0.5 * static_cast<double>(cfg.demand_min + cfg.demand_max);
    gen.num_apps = db->suite().size();
    gen.demand_min = cfg.demand_min;
    gen.demand_max = cfg.demand_max;
    workload::generate_arrivals_into(gen, &trace);

    // Admission taxonomy: the same MPKI probe points as classify_app / the
    // classpart baseline (baseline, -50%, +50% allocations). Computed once,
    // outside the event loop.
    const int wb = sys.llc.ways_per_core_baseline;
    const int w_lo = std::max(1, wb / 2);
    const int w_hi = wb + wb / 2;
    app_class.reserve(static_cast<std::size_t>(db->suite().size()));
    for (int a = 0; a < db->suite().size(); ++a) {
      app_class.push_back(workload::classify_part_class(
          db->app_mpki(a, wb), db->app_mpki(a, w_lo), db->app_mpki(a, w_hi)));
    }
    min_useful_ways = std::max(sys.llc.min_ways, w_lo);

    queue.resize(cfg.queue_capacity);
    kernel.bind(*db, cfg.sim, manager);
    reset();
  }

  void reset() {
    kernel.reset();
    tenants.assign(static_cast<std::size_t>(sys.cores), Tenant{});
    q_head = 0;
    q_size = 0;
    violation_hist.reset();
    violation_stats = {};
    app_energy_stats = {};
    wait_stats = {};
    next_arrival = 0;
    served = 0;
    rejected = 0;
    qos_rejected = 0;
    sensitive_in_system = 0;
    intervals = 0;
    violations = 0;
    core_energy_j = 0.0;
    busy_s = 0.0;
    wall_s = 0.0;
    manager.reset();
  }

  /// Seats (app, demand) on idle core `k` at time `now_s`: cold-start
  /// counters at the baseline setting (like the closed mix's run start),
  /// then an RM invocation so the machine re-balances immediately.
  void admit(int k, int app, int demand, double arrival_s, double now_s) {
    tenants[static_cast<std::size_t>(k)] = {demand, 0.0};
    wait_stats.add(now_s - arrival_s);
    kernel.seat(k, app);
    kernel.invoke(k);
    kernel.freeze(k, now_s);
  }

  [[nodiscard]] bool is_sensitive(int app) const {
    return app_class[static_cast<std::size_t>(app)] ==
           workload::PartClass::Sensitive;
  }

  /// Queue-release priority class of the qos-aware admission policy: light
  /// apps leave first (they barely touch the LLC, so seating them raises
  /// throughput without adding way pressure), then streaming, then
  /// sensitive.
  [[nodiscard]] int class_rank(int app) const {
    return static_cast<int>(app_class[static_cast<std::size_t>(app)]) == 1
               ? 1  // streaming
               : (is_sensitive(app) ? 2 : 0);
  }

  /// The qos-aware rejection predicate (see DESIGN.md): a cache-sensitive
  /// arrival is turned away when the system's way budget, divided over the
  /// sensitive applications already in the system plus this one, would fall
  /// below the -50% MPKI probe point - the allocation at which the Table II
  /// swing rule already certifies a > 20% MPKI inflation, i.e. a predicted
  /// Eq. 6 magnitude beyond the alpha relaxation. Light and streaming apps
  /// are never qos-rejected: extra ways do not help them, so they cannot
  /// blow the target through cache contention.
  [[nodiscard]] bool qos_reject(int app) const {
    if (!is_sensitive(app)) return false;
    const int budget = sys.llc.total_ways(sys.cores);
    return budget / (sensitive_in_system + 1) < min_useful_ways;
  }

  /// Queue offset (in [0, q_size)) the admission policy releases next.
  /// Fifo: the head. Sdf: smallest (demand, arrival time). QosAware:
  /// smallest (class rank, demand, arrival time). The scan order is fixed,
  /// so every tie-break is deterministic.
  [[nodiscard]] std::size_t pick_queue_slot() const {
    if (point.admission == AdmissionPolicy::Fifo || q_size <= 1) return 0;
    std::size_t best = 0;
    for (std::size_t off = 1; off < q_size; ++off) {
      const QueueEntry& e = queue[(q_head + off) % queue.size()];
      const QueueEntry& b = queue[(q_head + best) % queue.size()];
      if (point.admission == AdmissionPolicy::QosAware) {
        const int re = class_rank(e.app);
        const int rb = class_rank(b.app);
        if (re != rb) {
          if (re < rb) best = off;
          continue;
        }
      }
      if (e.demand != b.demand) {
        if (e.demand < b.demand) best = off;
        continue;
      }
      if (e.arrival_s < b.arrival_s) best = off;
    }
    return best;
  }

  /// Removes and returns the entry at queue offset `off`, preserving the
  /// arrival order of everything else (entries in front shift back one
  /// slot). O(off) moves inside the preallocated ring; no allocation.
  QueueEntry dequeue_at(std::size_t off) {
    const std::size_t cap = queue.size();
    const QueueEntry taken = queue[(q_head + off) % cap];
    for (std::size_t i = off; i > 0; --i) {
      queue[(q_head + i) % cap] = queue[(q_head + i - 1) % cap];
    }
    q_head = (q_head + 1) % cap;
    --q_size;
    return taken;
  }

  void on_arrival() {
    const workload::ArrivalEvent& ev = trace.events[next_arrival++];
    wall_s = std::max(wall_s, ev.time_s);
    for (int k = 0; k < sys.cores; ++k) {
      if (!kernel.active(k)) {
        if (is_sensitive(ev.app)) ++sensitive_in_system;
        admit(k, ev.app, ev.demand_intervals, ev.time_s, ev.time_s);
        return;
      }
    }
    if (point.admission == AdmissionPolicy::QosAware && qos_reject(ev.app)) {
      ++rejected;
      ++qos_rejected;
      return;
    }
    if (q_size < queue.size()) {
      queue[(q_head + q_size) % queue.size()] = {ev.time_s, ev.app,
                                                 ev.demand_intervals};
      ++q_size;
      if (is_sensitive(ev.app)) ++sensitive_in_system;
    } else {
      ++rejected;
    }
  }

  void on_completion(int k) {
    const IntervalOutcome done = kernel.finish(k);
    const CoreTimeline& st = kernel.core(k);
    Tenant& tenant = tenants[static_cast<std::size_t>(k)];
    busy_s += done.duration_s;
    ++intervals;
    tenant.app_energy_j += done.energy_j;
    core_energy_j += done.energy_j;
    wall_s = std::max(wall_s, st.end_s);
    if (done.violated) {
      ++violations;
      violation_hist.add(done.violation);
      violation_stats.add(done.violation);
    }

    if (--tenant.remaining > 0) {
      kernel.next_interval(k);
      return;
    }
    // Departure: free the core, seat the next queued app on it, or - with
    // an empty queue - let the RM redistribute the freed resources among
    // the cores that remain busy.
    ++served;
    app_energy_stats.add(tenant.app_energy_j);
    if (is_sensitive(st.app)) --sensitive_in_system;
    kernel.vacate(k);
    if (q_size > 0) {
      const QueueEntry entry = dequeue_at(pick_queue_slot());
      admit(k, entry.app, entry.demand, entry.arrival_s, st.end_s);
      return;
    }
    for (int j = 0; j < sys.cores; ++j) {
      if (kernel.active(j)) {
        // Running intervals are frozen, and core j's own boundary invoke
        // supersedes the setting this one decides for it. What it does is
        // charge the RM execution to j's next interval and bring the
        // manager's occupancy and combine tree up to date.
        kernel.invoke(j);
        break;
      }
    }
  }

  bool step() {
    const double arrival_t =
        next_arrival < trace.events.size()
            ? trace.events[next_arrival].time_s
            : std::numeric_limits<double>::infinity();
    const int next_core = kernel.next_completion();
    if (next_core < 0 && next_arrival >= trace.events.size()) {
      // Drained. The queue must be empty: entries only exist while every
      // core is busy.
      QOSRM_CHECK(q_size == 0);
      return false;
    }
    // Completions at time t run before an arrival at the same t, so the
    // arrival can be seated on the just-freed core instead of queueing.
    if (next_core >= 0 && kernel.core(next_core).end_s <= arrival_t) {
      on_completion(next_core);
    } else {
      on_arrival();
    }
    return true;
  }

  [[nodiscard]] ServiceMetrics metrics() const {
    ServiceMetrics m;
    m.arrivals = next_arrival;
    m.served = served;
    m.rejected = rejected;
    m.qos_rejected = qos_rejected;
    m.intervals = intervals;
    m.violations = violations;
    m.violation_rate =
        intervals > 0
            ? static_cast<double>(violations) / static_cast<double>(intervals)
            : 0.0;
    m.p50_violation = violations > 0 ? violation_hist.quantile(0.50) : 0.0;
    m.p95_violation = violations > 0 ? violation_hist.quantile(0.95) : 0.0;
    m.p99_violation = violations > 0 ? violation_hist.quantile(0.99) : 0.0;
    m.max_violation = violation_stats.max();
    m.mean_violation = violation_stats.mean();
    m.uncore_energy_j = db->power().uncore_power(sys.cores) * wall_s;
    m.energy_total_j = core_energy_j + m.uncore_energy_j;
    m.energy_per_app_j = app_energy_stats.mean();
    m.rm_invocations = kernel.rm_invocations();
    m.rm_ops = kernel.rm_ops();
    m.decisions_per_sec =
        wall_s > 0.0 ? static_cast<double>(m.rm_invocations) / wall_s : 0.0;
    m.occupancy = wall_s > 0.0
                      ? busy_s / (static_cast<double>(sys.cores) * wall_s)
                      : 0.0;
    m.mean_wait_s = wait_stats.mean();
    m.wall_time_s = wall_s;
    return m;
  }
};

ServiceEngine::ServiceEngine(const workload::SimDb& db,
                             const ServiceConfig& config,
                             const ServicePoint& point, rm::OutcomeMemo* memo)
    : impl_(std::make_unique<Impl>(db, config, point, memo)) {}

ServiceEngine::~ServiceEngine() = default;

void ServiceEngine::reset() { impl_->reset(); }

bool ServiceEngine::step() { return impl_->step(); }

ServiceMetrics ServiceEngine::run() {
  impl_->reset();
  while (impl_->step()) {
  }
  QOSRM_CHECK_MSG(impl_->served + impl_->rejected == impl_->trace.events.size(),
                  "service drain lost arrivals");
  return impl_->metrics();
}

ServiceMetrics ServiceEngine::metrics() const { return impl_->metrics(); }

const rm::RmInvokeStats& ServiceEngine::rm_stats() const {
  return impl_->manager.stats();
}

ServiceResult run_service(const workload::SimDb& db, const ServiceGrid& grid,
                          const ServiceConfig& config,
                          const ServiceOptions& options) {
  QOSRM_CHECK_MSG(!grid.patterns.empty(), "service grid has no arrival patterns");
  QOSRM_CHECK_MSG(!grid.loads.empty(), "service grid has no load levels");
  QOSRM_CHECK_MSG(!grid.admissions.empty(),
                  "service grid has no admission policies");
  QOSRM_CHECK_MSG(!grid.policies.empty(), "service grid has no policies");
  QOSRM_CHECK_MSG(!grid.qos_alphas.empty(), "service grid has no qos alphas");

  ServiceResult result;
  std::vector<ServiceRow>& rows = result.rows;
  rows.resize(grid.size());

  // Every task writes its own slot, so the result vector is identical for
  // any thread count. One outcome memo per lane, owned by this call.
  const std::size_t lanes = pool_threads(options.threads, rows.size());
  std::vector<rm::OutcomeMemo> memos(lanes);
  const auto run_point = [&](std::size_t lane, std::size_t idx) {
    const ServicePoint point = grid.point(idx);
    ServiceRow& row = rows[idx];
    row.pattern = point.pattern;
    row.load = point.load;
    row.admission = point.admission;
    row.policy = point.policy;
    row.model = config.model;
    row.qos_alpha = point.qos_alpha;
    ServiceEngine engine(db, config, point, &memos[lane]);
    row.metrics = engine.run();
  };
  parallel_for(lanes, rows.size(), run_point);
  return result;
}

std::uint64_t service_fingerprint(const ServiceGrid& grid,
                                  const ServiceConfig& config,
                                  std::uint64_t db_fingerprint) {
  Fnv1a64 h;
  h.add_u32(2);  // service fingerprint schema version (2: admission axis)
  h.add_u64(db_fingerprint);

  h.add_u64(grid.patterns.size());
  for (const workload::ArrivalPattern p : grid.patterns) {
    h.add_u32(static_cast<std::uint32_t>(p));
  }
  h.add_u64(grid.loads.size());
  for (const double l : grid.loads) h.add_f64(l);
  h.add_u64(grid.admissions.size());
  for (const AdmissionPolicy a : grid.admissions) {
    h.add_u32(static_cast<std::uint32_t>(a));
  }
  h.add_u64(grid.policies.size());
  for (const rm::RmPolicy p : grid.policies) {
    h.add_u32(static_cast<std::uint32_t>(p));
  }
  h.add_u64(grid.qos_alphas.size());
  for (const double a : grid.qos_alphas) h.add_f64(a);

  h.add_u64(config.arrivals);
  h.add_u64(config.seed);
  h.add_u32(static_cast<std::uint32_t>(config.model));
  h.add_i64(config.demand_min);
  h.add_i64(config.demand_max);
  h.add_u64(config.queue_capacity);
  hash_sim_options(h, config.sim);
  // The histogram layout is constant but keeps its place in the hash:
  // moving it would change every stamped service fingerprint.
  h.add_f64(kHistMaxViolation);
  h.add_u64(kHistBins);
  return h.digest();
}

bool try_parse_loads(const std::string& spec, std::vector<double>* out,
                     std::string* error) {
  return parse_list_flag(
      "loads", spec, "a finite value > 0",
      [](const std::string& entry, double* value) {
        char* end = nullptr;
        *value = std::strtod(entry.c_str(), &end);
        return end != entry.c_str() && *end == '\0' && std::isfinite(*value) &&
               *value > 0.0;
      },
      out, error);
}

}  // namespace qosrm::rmsim

#include "rmsim/core_timeline.hh"

#include <limits>

#include "common/binary_io.hh"
#include "rmsim/snapshot.hh"

namespace qosrm::rmsim {

void hash_sim_options(Fnv1a64& h, const SimOptions& options) {
  h.add_u32(options.model_overheads ? 1u : 0u);
  h.add_f64(rm::kRmInstrBase);
  h.add_f64(rm::kRmInstrPerOp);
  h.add_f64(arch::kDvfsTransitionTimeS);
  h.add_f64(arch::kDvfsTransitionEnergyJ);
  h.add_f64(kQosEpsilon);
}

rm::RmConfig rm_config_for(rm::RmPolicy policy, rm::PerfModelKind model) {
  rm::RmConfig config;
  config.policy = policy;
  config.model = model;
  config.energy.perfect = model == rm::PerfModelKind::Perfect;
  return config;
}

void IntervalKernel::bind(const workload::SimDb& db, const SimOptions& options,
                          rm::ResourceManager& manager) {
  db_ = &db;
  manager_ = &manager;
  opt_ = options;
  base_ = workload::baseline_setting(manager.system());
  qos_alpha_ = manager.system().qos_alpha;
  managed_ = manager.config().policy != rm::RmPolicy::Idle;
  perfect_ = manager.config().model == rm::PerfModelKind::Perfect;
  reset();
}

void IntervalKernel::reset() {
  const auto n = static_cast<std::size_t>(manager_->system().cores);
  cores_.assign(n, CoreTimeline{});
  // A core's snapshot is stamped by seat() before the manager first reads
  // it, and the manager fills the counters it reads itself.
  snapshots_.resize(n);
  active_.assign(n, 0);
  rm_invocations_ = 0;
  rm_ops_ = 0;
}

int IntervalKernel::phase_at(const CoreTimeline& st, int seq_pos) const {
  const auto& seq = db_->suite().app(st.app).phase_sequence;
  return seq[static_cast<std::size_t>(seq_pos) % seq.size()];
}

void IntervalKernel::seat(int k, int app) {
  CoreTimeline& st = cores_[static_cast<std::size_t>(k)];
  st = CoreTimeline{};
  st.app = app;
  st.setting = base_;
  st.pending = base_;
  active_[static_cast<std::size_t>(k)] = 1;
  if (managed_) {
    const int phase0 = phase_at(st, 0);
    make_snapshot_into(*db_, app, phase0, base_, perfect_ ? phase0 : -1,
                       snapshots_[static_cast<std::size_t>(k)]);
  }
}

void IntervalKernel::freeze(int k, double now_s) {
  CoreTimeline& st = cores_[static_cast<std::size_t>(k)];
  if (!(st.pending == st.setting)) {
    if (opt_.model_overheads) {
      const rm::OverheadModel overheads(db_->power());
      st.next_overhead += overheads.transition(st.setting, st.pending);
    }
    st.setting = st.pending;
  }
  st.running = true;
  st.phase = phase_at(st, st.seq_pos);
  st.start_s = now_s;
  const workload::IntervalCell cell = db_->interval_cell(st.app, st.phase, st.setting);
  st.end_s = now_s + cell.total_seconds + st.next_overhead.time_s;
  st.energy_j = cell.total_joules + st.next_overhead.energy_j;
  st.base_time_s = cell.baseline_time;
  st.cell_key = cell.key;
  st.next_overhead = {};
}

IntervalOutcome IntervalKernel::finish(int k) {
  CoreTimeline& st = cores_[static_cast<std::size_t>(k)];
  IntervalOutcome out;
  out.duration_s = st.end_s - st.start_s;
  out.energy_j = st.energy_j;
  // QoS target is the alpha-relaxed baseline time (Eq. 3); the violation
  // magnitude (Eq. 6) is measured against that SAME target, so relaxing
  // alpha shrinks both the violation count and the reported magnitudes.
  const double qos_target_s = st.base_time_s * qos_alpha_;
  if (out.duration_s > qos_target_s * (1.0 + kQosEpsilon)) {
    out.violated = true;
    out.violation = (out.duration_s - qos_target_s) / qos_target_s;
  }
  ++st.seq_pos;
  st.running = false;
  return out;
}

void IntervalKernel::next_interval(int k) {
  const CoreTimeline& st = cores_[static_cast<std::size_t>(k)];
  if (managed_) {
    // The finished interval's (phase, setting) is the cell freeze() read.
    make_snapshot_into(*db_, st.app, st.phase, st.setting,
                       perfect_ ? phase_at(st, st.seq_pos) : -1, st.cell_key,
                       snapshots_[static_cast<std::size_t>(k)]);
    invoke(k);
  }
  freeze(k, st.end_s);
}

void IntervalKernel::invoke(int k) {
  if (!managed_) return;
  const rm::RmDecision& decision = manager_->invoke(k, snapshots_, active_);
  ++rm_invocations_;
  rm_ops_ += decision.ops;
  CoreTimeline& st = cores_[static_cast<std::size_t>(k)];
  if (opt_.model_overheads) {
    const rm::OverheadModel overheads(db_->power());
    st.next_overhead += overheads.rm_execution(decision.ops, st.setting);
  }
  st.pending = manager_->setting(k);
}

void IntervalKernel::vacate(int k) { active_[static_cast<std::size_t>(k)] = 0; }

int IntervalKernel::next_completion() const noexcept {
  int next = -1;
  double best_end = std::numeric_limits<double>::infinity();
  for (std::size_t k = 0; k < cores_.size(); ++k) {
    if (cores_[k].running && cores_[k].end_s < best_end) {
      best_end = cores_[k].end_s;
      next = static_cast<int>(k);
    }
  }
  return next;
}

}  // namespace qosrm::rmsim

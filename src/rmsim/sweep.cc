#include "rmsim/sweep.hh"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdlib>

#include "common/binary_io.hh"
#include "common/check.hh"
#include "common/str.hh"
#include "common/thread_pool.hh"

namespace qosrm::rmsim {

SweepRunner::SweepRunner(const workload::SimDb& db, const SweepOptions& options)
    : db_(&db), opt_(options) {}

SweepResult SweepRunner::run(const SweepGrid& grid) {
  QOSRM_CHECK_MSG(!grid.mixes.empty(), "sweep grid has no workload mixes");
  QOSRM_CHECK_MSG(!grid.policies.empty(), "sweep grid has no policies");
  QOSRM_CHECK_MSG(!grid.models.empty(), "sweep grid has no perf models");
  QOSRM_CHECK_MSG(!grid.qos_alphas.empty(), "sweep grid has no qos alphas");

  // One simulator per qos_alpha (the alpha lives in the simulator options).
  std::vector<IntervalSimulator> sims;
  sims.reserve(grid.qos_alphas.size());
  for (const double alpha : grid.qos_alphas) {
    SimOptions sim = opt_.sim;
    sim.qos_alpha_override = alpha;
    sims.emplace_back(*db_, sim);
  }

  const GridShape shape = grid.shape();
  const std::size_t n_mix = shape.mixes;
  std::vector<RunResult> idle(grid.qos_alphas.size() * n_mix);
  const std::size_t idle_lanes = pool_threads(opt_.threads, idle.size());
  const std::size_t row_lanes = pool_threads(opt_.threads, shape.size());

  // Per-lane state, owned by this call: a lane runs many simulations, so
  // the per-run warmup buffers (core state, counter snapshots) are reused
  // across its rows, and the rows of one RM configuration share the
  // interval outcomes they compute (the memo is rescoped when a lane's next
  // row has another configuration; rows are mix-minor, so a configuration's
  // mixes run back to back). Results are independent of either reuse.
  struct Lane {
    RunScratch scratch;
    rm::OutcomeMemo memo;
  };
  std::vector<Lane> lanes(std::max(idle_lanes, row_lanes));

  // Pass 1: the idle reference of every (alpha, mix), alpha-major. Every
  // index writes its own slot, as in pass 2, so both passes produce the
  // same vectors for any thread count.
  parallel_for(idle_lanes, idle.size(), [&](std::size_t lane, std::size_t i) {
    idle[i] = run_idle_reference(sims[i / n_mix], grid.mixes[i % n_mix],
                                 &lanes[lane].scratch);
  });

  // Pass 2: every row against its reference.
  SweepResult out;
  out.rows.resize(shape.size());
  out.idle_computations = idle.size();
  const auto run_point = [&](std::size_t lane, std::size_t idx) {
    const GridCell c = shape.cell(idx);
    const workload::WorkloadMix& mix = grid.mixes[c.mix];
    SweepRow& row = out.rows[idx];
    row.workload = mix.name;
    row.scenario = mix.scenario;
    row.policy = grid.policies[c.policy];
    row.model = grid.models[c.model];
    row.qos_alpha = grid.qos_alphas[c.alpha];

    const rm::RmConfig config = rm_config_for(row.policy, row.model);
    row.result = run_against_idle(sims[c.alpha], mix, config,
                                  idle[c.alpha * n_mix + c.mix],
                                  &lanes[lane].scratch, &lanes[lane].memo);
  };
  parallel_for(row_lanes, out.rows.size(), run_point);

  out.aggregates =
      compute_aggregates(out.rows, shape, scenario_weights(db_->suite()));
  return out;
}

std::uint64_t sweep_fingerprint(const SweepGrid& grid, const SimOptions& sim,
                                std::uint64_t db_fingerprint) {
  Fnv1a64 h;
  h.add_u32(1);  // sweep fingerprint schema version
  h.add_u64(db_fingerprint);

  h.add_u64(grid.mixes.size());
  for (const workload::WorkloadMix& mix : grid.mixes) {
    h.add_string(mix.name);
    h.add_u32(static_cast<std::uint32_t>(mix.scenario));
    h.add_u64(mix.app_ids.size());
    for (const int app : mix.app_ids) h.add_i64(app);
  }
  h.add_u64(grid.policies.size());
  for (const rm::RmPolicy p : grid.policies) {
    h.add_u32(static_cast<std::uint32_t>(p));
  }
  h.add_u64(grid.models.size());
  for (const rm::PerfModelKind m : grid.models) {
    h.add_u32(static_cast<std::uint32_t>(m));
  }
  h.add_u64(grid.qos_alphas.size());
  for (const double a : grid.qos_alphas) h.add_f64(a);

  hash_sim_options(h, sim);
  h.add_f64(sim.qos_alpha_override);
  return h.digest();
}

bool try_parse_policies(const std::string& spec, std::vector<rm::RmPolicy>* out,
                        std::string* error) {
  static constexpr NamedValue<rm::RmPolicy> kNames[] = {
      {"idle", rm::RmPolicy::Idle}, {"rm1", rm::RmPolicy::Rm1},
      {"rm2", rm::RmPolicy::Rm2},   {"rm3", rm::RmPolicy::Rm3},
      {"ucp", rm::RmPolicy::Ucp},   {"fcp", rm::RmPolicy::Fcp},
      {"classpart", rm::RmPolicy::ClassPart}};
  return parse_name_list_flag("policies", spec, kNames, out, error);
}

bool try_parse_models(const std::string& spec,
                      std::vector<rm::PerfModelKind>* out, std::string* error,
                      const char* flag) {
  static constexpr NamedValue<rm::PerfModelKind> kNames[] = {
      {"model1", rm::PerfModelKind::Model1}, {"m1", rm::PerfModelKind::Model1},
      {"model2", rm::PerfModelKind::Model2}, {"m2", rm::PerfModelKind::Model2},
      {"model3", rm::PerfModelKind::Model3}, {"m3", rm::PerfModelKind::Model3},
      {"perfect", rm::PerfModelKind::Perfect}};
  return parse_name_list_flag(flag, spec, kNames, out, error);
}

bool try_parse_alphas(const std::string& spec, std::vector<double>* out,
                      std::string* error) {
  // 0 selects the system default; anything else must be a usable relaxation
  // factor (negative/NaN would silently fall back to the default while
  // mislabeling every CSV row, and a subnormal one underflows the QoS target
  // to zero, so violation magnitudes become infinite).
  return parse_list_flag(
      "alphas", spec, "0 or a positive factor that is a normal double",
      [](const std::string& entry, double* value) {
        char* end = nullptr;
        *value = std::strtod(entry.c_str(), &end);
        return end != entry.c_str() && *end == '\0' &&
               (*value == 0.0 || (std::isnormal(*value) && *value > 0.0));
      },
      out, error);
}

}  // namespace qosrm::rmsim

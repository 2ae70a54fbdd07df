#include "rmsim/sweep.hh"

#include <array>
#include <cmath>
#include <cstdlib>
#include <memory>

#include "common/binary_io.hh"
#include "common/check.hh"
#include "common/csv.hh"
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

  // One runner per qos_alpha (the alpha lives in the simulator options);
  // each runner's compute-once cache is shared by every worker thread, so
  // idle references are simulated once per (mix, alpha).
  std::vector<std::unique_ptr<ExperimentRunner>> runners;
  runners.reserve(grid.qos_alphas.size());
  for (const double alpha : grid.qos_alphas) {
    SimOptions sim = opt_.sim;
    sim.qos_alpha_override = alpha;
    runners.push_back(std::make_unique<ExperimentRunner>(*db_, sim));
  }

  const std::size_t n_mix = grid.mixes.size();
  const std::size_t n_pol = grid.policies.size();
  const std::size_t n_mod = grid.models.size();

  SweepResult out;
  out.rows.resize(grid.size());

  // Row index decomposes mix-minor / alpha-major; every task writes its own
  // slot, so the result vector is identical for any thread count.
  const auto run_point = [&](std::size_t idx) {
    std::size_t rest = idx;
    const std::size_t mi = rest % n_mix;
    rest /= n_mix;
    const std::size_t pi = rest % n_pol;
    rest /= n_pol;
    const std::size_t ki = rest % n_mod;
    const std::size_t ai = rest / n_mod;

    const workload::WorkloadMix& mix = grid.mixes[mi];
    SweepRow& row = out.rows[idx];
    row.workload = mix.name;
    row.scenario = mix.scenario;
    row.policy = grid.policies[pi];
    row.model = grid.models[ki];
    row.qos_alpha = grid.qos_alphas[ai];

    const rm::RmConfig config = rm_config_for(row.policy, row.model);
    // Per-thread simulation scratch: worker threads run many rows, so the
    // per-run warmup buffers (core state, counter snapshots) are reused for
    // the thread's whole lifetime. Results are independent of the reuse.
    thread_local RunScratch scratch;
    row.result = runners[ai]->run(mix, config, &scratch);
  };

  const std::size_t threads = pool_threads(opt_.threads, out.rows.size());
  if (threads <= 1) {
    for (std::size_t i = 0; i < out.rows.size(); ++i) run_point(i);
  } else {
    ThreadPool pool(threads - 1);  // pool workers + the calling thread
    parallel_for(pool, 0, out.rows.size(), run_point);
  }

  for (const auto& runner : runners) {
    out.idle_computations += runner->idle_computations();
  }
  out.aggregates = compute_aggregates(out.rows, grid.shape(),
                                      scenario_weights(db_->suite()));
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

std::vector<SweepAggregate> compute_aggregates(
    const std::vector<SweepRow>& rows, const GridShape& shape,
    const std::array<double, 4>& weights) {
  QOSRM_CHECK_MSG(rows.size() == shape.size(),
                  "aggregate row count does not match the grid shape");
  const std::size_t n_mix = shape.mixes;
  const std::size_t n_pol = shape.policies;
  const std::size_t n_mod = shape.models;

  // Aggregates, in row (alpha-major) order. Labels come from the first row
  // of each (policy, model, alpha) block, so no grid is needed.
  std::vector<SweepAggregate> aggregates;
  aggregates.reserve(n_pol * n_mod * shape.alphas);
  std::vector<workload::Scenario> scenarios;
  std::vector<double> savings;
  scenarios.reserve(n_mix);
  savings.reserve(n_mix);
  for (std::size_t ai = 0; ai < shape.alphas; ++ai) {
    for (std::size_t ki = 0; ki < n_mod; ++ki) {
      for (std::size_t pi = 0; pi < n_pol; ++pi) {
        scenarios.clear();
        savings.clear();
        double violation_sum = 0.0;
        for (std::size_t mi = 0; mi < n_mix; ++mi) {
          const std::size_t idx = mi + n_mix * (pi + n_pol * (ki + n_mod * ai));
          const SweepRow& row = rows[idx];
          scenarios.push_back(row.scenario);
          savings.push_back(row.result.savings);
          violation_sum += row.result.run.violation_rate();
        }
        const std::size_t block = n_mix * (pi + n_pol * (ki + n_mod * ai));
        SweepAggregate agg;
        agg.policy = rows[block].policy;
        agg.model = rows[block].model;
        agg.qos_alpha = rows[block].qos_alpha;
        agg.weighted_savings = weighted_average_savings(scenarios, savings, weights);
        double sum = 0.0;
        for (const double s : savings) sum += s;
        agg.mean_savings = sum / static_cast<double>(n_mix);
        agg.mean_violation_rate = violation_sum / static_cast<double>(n_mix);
        aggregates.push_back(agg);
      }
    }
  }
  return aggregates;
}

namespace {

/// Full-precision double formatting so equal results yield byte-identical
/// CSV files.
std::string fmt(double v) { return format("%.17g", v); }

}  // namespace

void write_rows_csv(const SweepResult& result, const std::string& path) {
  CsvWriter csv(path,
                {"workload", "scenario", "policy", "model", "qos_alpha",
                 "savings", "total_energy_j", "uncore_energy_j", "wall_time_s",
                 "intervals", "violations", "violation_rate", "rm_invocations",
                 "rm_ops"});
  for (const SweepRow& row : result.rows) {
    const RunResult& run = row.result.run;
    csv.add_row({row.workload, std::to_string(static_cast<int>(row.scenario)),
                 rm::rm_policy_name(row.policy), rm::perf_model_name(row.model),
                 fmt(row.qos_alpha), fmt(row.result.savings),
                 fmt(run.total_energy_j()), fmt(run.uncore_energy_j),
                 fmt(run.wall_time_s), std::to_string(run.total_intervals()),
                 std::to_string(run.total_violations()),
                 fmt(run.violation_rate()), std::to_string(run.rm_invocations),
                 std::to_string(run.rm_ops)});
  }
  csv.close();  // atomic commit; throws instead of publishing a partial file
}

void write_aggregates_csv(const SweepResult& result, const std::string& path) {
  CsvWriter csv(path, {"policy", "model", "qos_alpha", "weighted_savings",
                       "mean_savings", "mean_violation_rate"});
  for (const SweepAggregate& agg : result.aggregates) {
    csv.add_row({rm::rm_policy_name(agg.policy), rm::perf_model_name(agg.model),
                 fmt(agg.qos_alpha), fmt(agg.weighted_savings),
                 fmt(agg.mean_savings), fmt(agg.mean_violation_rate)});
  }
  csv.close();  // atomic commit; throws instead of publishing a partial file
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

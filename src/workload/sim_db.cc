#include "workload/sim_db.hh"

#include <algorithm>
#include <utility>

#include "common/check.hh"
#include "common/thread_pool.hh"

namespace qosrm::workload {

Setting baseline_setting(const arch::SystemConfig& system) {
  return {arch::kBaselineCoreSize, arch::VfTable::kBaselineIndex,
          system.llc.ways_per_core_baseline, system.bw.shares_per_core_baseline};
}

std::vector<std::vector<PhaseStats>> characterize_suite(
    const SpecSuite& suite, const CharacterizationSystem& system,
    const SimDbOptions& options, int lane_width) {
  std::vector<std::vector<PhaseStats>> stats(static_cast<std::size_t>(suite.size()));

  // Flatten (app, phase) pairs for the parallel sweep.
  std::vector<std::pair<int, int>> jobs;
  for (int a = 0; a < suite.size(); ++a) {
    const auto n = static_cast<std::size_t>(suite.app(a).num_phases());
    stats[static_cast<std::size_t>(a)].resize(n);
    for (std::size_t ph = 0; ph < n; ++ph) {
      jobs.emplace_back(a, static_cast<int>(ph));
    }
  }

  auto run_job = [&](std::size_t /*lane*/, std::size_t j) {
    const auto [a, ph] = jobs[j];
    const AppProfile& app = suite.app(a);
    const std::uint64_t seed =
        app.trace_seed + 0x9e3779b97f4a7c15ULL * static_cast<std::uint64_t>(ph + 1);
    stats[static_cast<std::size_t>(a)][static_cast<std::size_t>(ph)] =
        characterize_phase(app.phases[static_cast<std::size_t>(ph)], system,
                           options.phase, seed, lane_width);
  };

  // threads = 1 is serial; otherwise one lane more than a sweep with the
  // same --threads runs. perfbench's setup_s is baselined on that count.
  const std::size_t lanes =
      options.threads == 1 ? 1 : pool_threads(options.threads, jobs.size()) + 1;
  parallel_for(lanes, jobs.size(), run_job);
  return stats;
}

SimDb::SimDb(const SpecSuite& suite, const arch::SystemConfig& system,
             const power::PowerModel& power, const SimDbOptions& options)
    : SimDb(suite, system, power, options.phase,
            characterize_suite(suite, characterization_system(system), options)) {}

SimDb::SimDb(const SpecSuite& suite, const arch::SystemConfig& system,
             const power::PowerModel& power, const PhaseStatsOptions& phase_options,
             std::vector<std::vector<PhaseStats>> stats)
    : suite_(&suite),
      system_(system),
      power_(power),
      phase_opts_(phase_options),
      stats_(std::move(stats)) {
  QOSRM_CHECK(static_cast<int>(stats_.size()) == suite.size());
  const Setting base = baseline_setting(system_);
  grids_.resize(stats_.size());
  aggregates_.resize(stats_.size());
  for (int a = 0; a < suite.size(); ++a) {
    const auto& per_app = stats_[static_cast<std::size_t>(a)];
    QOSRM_CHECK(static_cast<int>(per_app.size()) == suite.app(a).num_phases());
    auto& app_grids = grids_[static_cast<std::size_t>(a)];
    app_grids.resize(per_app.size());

    for (std::size_t ph = 0; ph < per_app.size(); ++ph) {
      const PhaseStats& st = per_app[ph];
      PhaseGrid& g = app_grids[ph];
      g.max_ways = st.max_ways();
      g.min_shares = system_.bw.min_shares;
      g.num_shares = system_.bw.num_allocations();
      QOSRM_CHECK(g.max_ways >= 1);
      QOSRM_CHECK(g.num_shares >= 1);
      const std::size_t cells = static_cast<std::size_t>(arch::kNumCoreSizes) *
                                static_cast<std::size_t>(arch::VfTable::kNumPoints) *
                                static_cast<std::size_t>(g.num_shares) *
                                static_cast<std::size_t>(g.max_ways);
      g.total_s.resize(cells);
      g.total_j.resize(cells);
      g.key_off = key_space_;
      key_space_ += static_cast<std::int64_t>(cells);

      // Cells in flat_index order.
      std::size_t idx = 0;
      for (const arch::CoreSize c : arch::kAllCoreSizes) {
        for (int f = 0; f < arch::VfTable::kNumPoints; ++f) {
          for (int b = g.min_shares; b < g.min_shares + g.num_shares; ++b) {
            for (int w = 1; w <= g.max_ways; ++w, ++idx) {
              const Setting s{c, f, w, b};
              const arch::IntervalTiming t = timing(st, s);
              g.total_s[idx] = t.total_seconds;
              g.total_j[idx] = energy(st, s, t).total_j();
            }
          }
        }
      }
      g.baseline_time_s = g.total_s[flat_index(g, base)];
    }

    // Per-app aggregates, accumulated in phase order.
    AppAggregates& agg = aggregates_[static_cast<std::size_t>(a)];
    const int agg_ways = per_app.empty() ? 1 : per_app.front().max_ways();
    agg.mpki.assign(static_cast<std::size_t>(agg_ways), 0.0);
    for (int w = 1; w <= agg_ways; ++w) {
      double acc = 0.0;
      for (std::size_t ph = 0; ph < per_app.size(); ++ph) {
        const double weight = suite.app(a).phases[ph].weight;
        acc += weight * per_app[ph].mpki(w);
      }
      agg.mpki[static_cast<std::size_t>(w - 1)] = acc;
    }
    const int wb = system_.llc.ways_per_core_baseline;
    for (int c_idx = 0; c_idx < arch::kNumCoreSizes; ++c_idx) {
      double acc = 0.0;
      for (std::size_t ph = 0; ph < per_app.size(); ++ph) {
        const double weight = suite.app(a).phases[ph].weight;
        acc += weight * per_app[ph].mlp_true(arch::kAllCoreSizes[c_idx], wb);
      }
      agg.mlp[static_cast<std::size_t>(c_idx)] = acc;
    }
  }
}

const PhaseStats& SimDb::stats(int app, int phase) const {
  QOSRM_CHECK(app >= 0 && app < suite_->size());
  const auto& per_app = stats_[static_cast<std::size_t>(app)];
  QOSRM_CHECK(phase >= 0 && phase < static_cast<int>(per_app.size()));
  return per_app[static_cast<std::size_t>(phase)];
}

arch::IntervalTiming SimDb::timing(int app, int phase, const Setting& s) const {
  return timing(stats(app, phase), s);
}

power::IntervalEnergy SimDb::energy(int app, int phase, const Setting& s) const {
  const PhaseStats& st = stats(app, phase);
  return energy(st, s, timing(st, s));
}

power::IntervalEnergy SimDb::energy(int app, int phase, const Setting& s,
                                    const arch::IntervalTiming& t) const {
  return energy(stats(app, phase), s, t);
}

arch::IntervalTiming SimDb::timing(const PhaseStats& st, const Setting& s) const {
  QOSRM_CHECK(s.f_idx >= 0 && s.f_idx < arch::VfTable::kNumPoints);
  const int w = std::clamp(s.w, 1, st.max_ways());
  // CBP-style bandwidth ground truth: b granted shares inflate (or, above
  // the baseline share, deflate) the effective DRAM latency by the
  // queuing-contention multiplier. The baseline share's multiplier is
  // exactly 1.0, so its cells - the entire grid, in the degenerate
  // single-share default - are bit-identical to the pre-CBP evaluation.
  const int b = std::clamp(s.b, system_.bw.min_shares, system_.bw.max_shares);
  const double l_eff =
      system_.mem_latency_s * arch::bw_latency_scale(system_.bw, b);
  return arch::evaluate_interval(st.characteristics(),
                                 st.memory_truth(s.c, w, l_eff), s.c,
                                 arch::VfTable::frequency_hz(s.f_idx));
}

power::IntervalEnergy SimDb::energy(const PhaseStats& st, const Setting& s,
                                    const arch::IntervalTiming& t) const {
  const int w = std::clamp(s.w, 1, st.max_ways());
  return power_.interval_energy(s.c, arch::VfTable::point(s.f_idx), t,
                                st.interval_instructions, st.dram_accesses(w));
}

int SimDb::num_phases(int app) const {
  QOSRM_CHECK(app >= 0 && app < suite_->size());
  return static_cast<int>(stats_[static_cast<std::size_t>(app)].size());
}

double SimDb::app_mpki(int app, int w) const {
  QOSRM_CHECK(app >= 0 && app < static_cast<int>(aggregates_.size()));
  const auto& mpki = aggregates_[static_cast<std::size_t>(app)].mpki;
  const int clamped = std::clamp(w, 1, static_cast<int>(mpki.size()));
  return mpki[static_cast<std::size_t>(clamped - 1)];
}

double SimDb::app_mlp(int app, arch::CoreSize c) const {
  QOSRM_CHECK(app >= 0 && app < static_cast<int>(aggregates_.size()));
  return aggregates_[static_cast<std::size_t>(app)]
      .mlp[static_cast<std::size_t>(arch::core_size_index(c))];
}

}  // namespace qosrm::workload

#include "workload/eval_table.hh"

#include <algorithm>

#include "common/check.hh"

namespace qosrm::workload {

Setting baseline_setting(const arch::SystemConfig& system) {
  Setting s;
  s.c = arch::kBaselineCoreSize;
  s.f_idx = arch::VfTable::kBaselineIndex;
  s.w = system.llc.ways_per_core_baseline;
  s.b = system.bw.shares_per_core_baseline;
  return s;
}

EvalTable::EvalTable(const SpecSuite& suite, const arch::SystemConfig& system,
                     const power::PowerModel& power,
                     const std::vector<std::vector<PhaseStats>>& stats) {
  QOSRM_CHECK(static_cast<int>(stats.size()) == suite.size());
  const Setting base = baseline_setting(system);

  grids_.resize(stats.size());
  aggregates_.resize(stats.size());
  for (int a = 0; a < suite.size(); ++a) {
    const auto& per_app = stats[static_cast<std::size_t>(a)];
    auto& app_grids = grids_[static_cast<std::size_t>(a)];
    app_grids.resize(per_app.size());

    for (std::size_t ph = 0; ph < per_app.size(); ++ph) {
      const PhaseStats& st = per_app[ph];
      PhaseGrid& g = app_grids[ph];
      g.max_ways = st.max_ways();
      g.min_shares = system.bw.min_shares;
      g.num_shares = system.bw.num_allocations();
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

      const arch::IntervalCharacteristics chars = st.characteristics();
      std::size_t idx = 0;
      for (const arch::CoreSize c : arch::kAllCoreSizes) {
        for (int f = 0; f < arch::VfTable::kNumPoints; ++f) {
          for (int bi = 0; bi < g.num_shares; ++bi) {
            // CBP-style bandwidth ground truth: b granted shares inflate
            // (or, above the baseline share, deflate) the effective DRAM
            // latency by the queuing-contention multiplier. The baseline
            // share's multiplier is exactly 1.0, so its cells - the entire
            // grid, in the degenerate single-share default - are
            // bit-identical to the pre-CBP evaluation.
            const double l_eff =
                system.mem_latency_s *
                arch::bw_latency_scale(system.bw, g.min_shares + bi);
            for (int w = 1; w <= g.max_ways; ++w, ++idx) {
              const arch::IntervalTiming t = arch::evaluate_interval(
                  chars, st.memory_truth(c, w, l_eff), c,
                  arch::VfTable::frequency_hz(f));
              const power::IntervalEnergy e = power.interval_energy(
                  c, arch::VfTable::point(f), t, st.interval_instructions,
                  st.dram_accesses(w));
              // The struct fields the hot loops read, bit-identical to the
              // structs SimDb::timing()/energy() rebuild.
              g.total_s[idx] = t.total_seconds;
              g.total_j[idx] = e.total_j();
            }
          }
        }
      }
      g.baseline_time_s = g.total_s[flat_index(g, base)];
    }

    // Per-app aggregates, accumulated in the same phase order (and with the
    // same arithmetic) as the former per-query loops, for bit-identity.
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
    const int wb = system.llc.ways_per_core_baseline;
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

double EvalTable::app_mpki(int app, int w) const {
  QOSRM_CHECK(app >= 0 && app < static_cast<int>(aggregates_.size()));
  const auto& mpki = aggregates_[static_cast<std::size_t>(app)].mpki;
  const int clamped = std::clamp(w, 1, static_cast<int>(mpki.size()));
  return mpki[static_cast<std::size_t>(clamped - 1)];
}

double EvalTable::app_mlp(int app, arch::CoreSize c) const {
  QOSRM_CHECK(app >= 0 && app < static_cast<int>(aggregates_.size()));
  return aggregates_[static_cast<std::size_t>(app)]
      .mlp[static_cast<std::size_t>(arch::core_size_index(c))];
}

}  // namespace qosrm::workload

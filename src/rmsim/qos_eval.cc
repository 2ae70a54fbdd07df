#include "rmsim/qos_eval.hh"

#include <algorithm>
#include <span>

#include "arch/dvfs.hh"
#include "common/check.hh"
#include "common/stats.hh"
#include "rmsim/snapshot.hh"

namespace qosrm::rmsim {
namespace {

/// Strict ">" guard on the ground-truth comparison: a target no slower than
/// the baseline up to rounding is not a violation.
constexpr double kActualEpsilon = 1e-9;

}  // namespace

std::vector<QosEvalResult> evaluate_qos(
    const workload::SimDb& db, const std::vector<rm::PerfModelKind>& models) {
  const arch::SystemConfig& sys = db.system();
  const workload::Setting base = workload::baseline_setting(sys);

  std::vector<QosEvalResult> results(models.size());
  std::vector<WeightedStats> magnitude(models.size());
  for (std::size_t m = 0; m < models.size(); ++m) results[m].model = models[m];

  std::vector<rm::PerfModel> perf;
  perf.reserve(models.size());
  for (const rm::PerfModelKind m : models) perf.emplace_back(m, sys);

  // Enumerate all settings once. The model-accuracy sweep covers the
  // (c, f, w) space at the baseline bandwidth share (the only share in the
  // degenerate config): the bandwidth knob enters the models through the
  // same scaled-latency term as the ground truth, so its accuracy is pinned
  // by the baseline row. Current settings are the (c, w) pairs at the
  // baseline VF point, since no prediction depends on the current frequency
  // (see qos_eval.hh).
  std::vector<workload::Setting> settings;
  std::vector<workload::Setting> currents;
  for (const arch::CoreSize c : arch::kAllCoreSizes) {
    for (int w = sys.llc.min_ways; w <= sys.llc.max_ways; ++w) {
      currents.push_back({c, base.f_idx, w, base.b});
    }
    for (int f = 0; f < arch::VfTable::kNumPoints; ++f) {
      for (int w = sys.llc.min_ways; w <= sys.llc.max_ways; ++w) {
        settings.push_back({c, f, w, base.b});
      }
    }
  }

  const int n_apps = db.suite().size();
  for (int app = 0; app < n_apps; ++app) {
    const double app_weight = 1.0 / static_cast<double>(n_apps);
    for (int phase = 0; phase < db.num_phases(app); ++phase) {
      const double phase_weight =
          db.suite().app(app).phases[static_cast<std::size_t>(phase)].weight *
          app_weight;

      // Ground-truth times of this phase at every setting (and baseline).
      // Settings are enumerated (c, f, w)-major above, so each (c, f) block
      // is one contiguous SoA row read.
      std::vector<double> t_act(settings.size());
      std::size_t s = 0;
      for (const arch::CoreSize c : arch::kAllCoreSizes) {
        for (int f = 0; f < arch::VfTable::kNumPoints; ++f) {
          const std::span<const double> row =
              db.total_seconds_row(app, phase, c, f, base.b);
          for (int w = sys.llc.min_ways; w <= sys.llc.max_ways; ++w, ++s) {
            const int wc = std::clamp(w, 1, static_cast<int>(row.size()));
            t_act[s] = row[static_cast<std::size_t>(wc - 1)];
          }
        }
      }
      QOSRM_CHECK(s == settings.size());
      const double t_act_base = db.total_seconds(app, phase, base);

      for (const workload::Setting& current : currents) {
        // Counters this phase would produce at the current setting. The
        // perfect model is exact by construction and is evaluated in Fig. 9
        // instead, so the oracle ref is not needed here.
        const rm::CounterSnapshot snap = make_snapshot(db, app, phase, current);

        for (std::size_t m = 0; m < models.size(); ++m) {
          const double t_pred_base =
              perf[m].predict_time(snap, base) * sys.qos_alpha;
          for (std::size_t tgt = 0; tgt < settings.size(); ++tgt) {
            const double t_pred = perf[m].predict_time(snap, settings[tgt]);
            if (t_pred > t_pred_base) continue;  // RM would never select it
            results[m].selectable_mass += phase_weight;
            if (t_act[tgt] > t_act_base * (1.0 + kActualEpsilon)) {
              results[m].violating_mass += phase_weight;
              const double v = (t_act[tgt] - t_act_base) / t_act_base;  // Eq. 6
              magnitude[m].add(v, phase_weight);
              results[m].histogram.add(v, phase_weight);
            }
          }
        }
      }
    }
  }

  for (std::size_t m = 0; m < models.size(); ++m) {
    QosEvalResult& r = results[m];
    r.violation_probability =
        r.selectable_mass > 0.0 ? r.violating_mass / r.selectable_mass : 0.0;
    r.expected_violation = magnitude[m].mean();
    r.violation_stddev = magnitude[m].stddev();
  }
  return results;
}

}  // namespace qosrm::rmsim

#include "workload/spec_suite.hh"

#include <algorithm>
#include <cmath>

#include "common/check.hh"
#include "common/rng.hh"

namespace qosrm::workload {

namespace {

/// Base behaviour of one application; phases are perturbed variants.
struct AppSpec {
  const char* name;
  Category category;
  double lpki;     ///< LLC accesses per kilo-instruction
  double hot;      ///< reuse mass at recency 0-1 (always hits)
  double sens;     ///< reuse mass in the sensitive band (cache sensitivity)
  double center;   ///< centre of the sensitive band (ways)
  double width;    ///< width of the sensitive band
  double cold;     ///< streaming mass (misses at every allocation)
  double dep;      ///< dependence-chain probability (kills MLP)
  double wf;       ///< dirty-block fraction (writeback traffic)
  double burst;    ///< mean loads per burst (enables MLP)
  double gap;      ///< mean instruction gap inside a burst
  double ilp;      ///< inherent ILP
  double cpi_bp;   ///< branch stall CPI
  double cpi_cc;   ///< private-cache stall CPI
  int phases;      ///< number of SimPoint-like phases
  int intervals;   ///< application length in RM intervals
};

// Calibration notes:
//  * CS needs MPKI(8w) >= 0.2 and >= 20% MPKI swing at +-50% allocation:
//    achieved with a sensitive band centred near 6-10 ways.
//  * PS needs MLP(L)-MLP(S) > 0.3*MLP(M) and MLP(L) >= 2: achieved with
//    bursts of independent loads spanning more than the S-core ROB.
//  * PI via dependence chains (dep >= 0.6) or sparse isolated loads.
//  * CI via streaming (cold-dominant) or tiny LLC footprints (hot-dominant).
constexpr AppSpec kSpecs[] = {
    // --- CS-PS ---------------------------------------------------------------
    {"tonto", Category::CS_PS, 9.0, 0.36, 0.44, 9.0, 2.5, 0.06, 0.05, 0.22, 14, 14,
     3.9, 0.06, 0.15, 4, 36},
    {"mcf", Category::CS_PS, 13.0, 0.26, 0.49, 10.0, 3.0, 0.10, 0.08, 0.30, 16, 11,
     3.5, 0.08, 0.20, 5, 64},
    {"omnetpp", Category::CS_PS, 11.0, 0.30, 0.47, 8.0, 2.5, 0.08, 0.08, 0.28, 14, 13,
     3.7, 0.10, 0.18, 4, 48},
    {"soplex", Category::CS_PS, 12.0, 0.28, 0.49, 7.0, 2.0, 0.08, 0.06, 0.26, 15, 12,
     4.1, 0.05, 0.16, 4, 40},
    {"sphinx3", Category::CS_PS, 10.0, 0.33, 0.47, 9.0, 2.8, 0.05, 0.05, 0.20, 14, 13,
     3.8, 0.07, 0.14, 5, 56},
    // --- CS-PI ---------------------------------------------------------------
    {"bzip2", Category::CS_PI, 8.0, 0.34, 0.46, 7.0, 2.2, 0.05, 0.70, 0.30, 5, 30,
     2.0, 0.09, 0.18, 4, 44},
    {"gcc", Category::CS_PI, 7.5, 0.35, 0.47, 8.0, 2.5, 0.06, 0.75, 0.28, 4, 35,
     1.9, 0.12, 0.20, 5, 52},
    {"gobmk", Category::CS_PI, 6.0, 0.38, 0.45, 6.0, 2.0, 0.05, 0.65, 0.22, 4, 32,
     1.8, 0.14, 0.16, 4, 36},
    {"gromacs", Category::CS_PI, 6.5, 0.37, 0.45, 7.0, 2.2, 0.06, 0.72, 0.18, 5, 30,
     2.2, 0.06, 0.14, 4, 40},
    {"h264ref", Category::CS_PI, 8.0, 0.35, 0.47, 9.0, 2.6, 0.05, 0.68, 0.26, 5, 28,
     2.3, 0.08, 0.15, 4, 48},
    {"hmmer", Category::CS_PI, 7.0, 0.38, 0.47, 7.0, 2.0, 0.04, 0.78, 0.20, 4, 30,
     2.1, 0.05, 0.13, 3, 32},
    {"xalancbmk", Category::CS_PI, 9.0, 0.32, 0.48, 10.0, 2.8, 0.06, 0.70, 0.30, 5,
     26, 2.0, 0.11, 0.19, 5, 60},
    // --- CI-PS ---------------------------------------------------------------
    {"namd", Category::CI_PS, 8.0, 0.38, 0.05, 4.0, 2.0, 0.57, 0.02, 0.18, 12, 16,
     5.5, 0.04, 0.10, 3, 36},
    {"zeusmp", Category::CI_PS, 10.0, 0.35, 0.04, 4.0, 2.0, 0.61, 0.03, 0.30, 12, 14,
     5.2, 0.05, 0.12, 4, 44},
    {"GemsFDTD", Category::CI_PS, 12.0, 0.30, 0.04, 5.0, 2.0, 0.66, 0.02, 0.34, 14,
     12, 5.6, 0.04, 0.12, 4, 52},
    {"bwaves", Category::CI_PS, 13.0, 0.27, 0.03, 4.0, 2.0, 0.70, 0.02, 0.36, 16, 11,
     6.2, 0.03, 0.10, 4, 64},
    {"leslie3d", Category::CI_PS, 11.0, 0.33, 0.05, 5.0, 2.0, 0.62, 0.03, 0.32, 12,
     14, 5.0, 0.05, 0.11, 4, 48},
    {"libquantum", Category::CI_PS, 14.0, 0.24, 0.02, 4.0, 2.0, 0.74, 0.01, 0.25, 16,
     11, 6.5, 0.02, 0.08, 3, 72},
    {"wrf", Category::CI_PS, 9.0, 0.36, 0.05, 5.0, 2.0, 0.59, 0.03, 0.28, 12, 16,
     4.8, 0.06, 0.13, 4, 40},
    // --- CI-PI ---------------------------------------------------------------
    {"cactusADM", Category::CI_PI, 1.0, 0.80, 0.10, 5.0, 2.0, 0.10, 0.30, 0.20, 2,
     60, 1.6, 0.07, 0.12, 3, 44},
    {"dealII", Category::CI_PI, 0.8, 0.85, 0.10, 5.0, 2.0, 0.05, 0.25, 0.18, 2, 60,
     2.0, 0.06, 0.10, 4, 36},
    {"gamess", Category::CI_PI, 0.5, 0.90, 0.06, 4.0, 2.0, 0.04, 0.20, 0.12, 2, 70,
     2.2, 0.05, 0.08, 3, 48},
    {"perlbench", Category::CI_PI, 1.0, 0.85, 0.09, 5.0, 2.0, 0.06, 0.35, 0.22, 2,
     55, 1.8, 0.12, 0.14, 4, 40},
    {"povray", Category::CI_PI, 0.4, 0.92, 0.05, 4.0, 2.0, 0.03, 0.25, 0.12, 2, 70,
     2.0, 0.08, 0.09, 3, 32},
    {"sjeng", Category::CI_PI, 1.1, 0.84, 0.06, 5.0, 2.0, 0.10, 0.40, 0.18, 2, 50,
     1.6, 0.15, 0.13, 4, 36},
    {"astar", Category::CI_PI, 2.5, 0.72, 0.06, 5.0, 2.0, 0.22, 0.75, 0.24, 3, 40,
     1.5, 0.13, 0.16, 4, 44},
    {"lbm", Category::CI_PI, 9.0, 0.30, 0.03, 4.0, 2.0, 0.67, 0.85, 0.45, 6, 25, 2.2,
     0.03, 0.10, 3, 56},
};

constexpr std::size_t kNumApps = std::size(kSpecs);
static_assert(kNumApps == 27, "paper uses 27 of the 29 SPEC CPU2006 apps");

/// Stable per-app seed derived from the suite layout (not from pointer
/// values), so traces are reproducible across runs and platforms.
std::uint64_t app_seed(std::size_t app_idx) {
  std::uint64_t s = 0x5eed5eedULL + 0x9e3779b97f4a7c15ULL * (app_idx + 1);
  return splitmix64(s);
}

PhaseParams make_phase(const AppSpec& spec, int phase_idx, Rng& rng) {
  PhaseParams p;
  p.name = std::string(spec.name) + "/p" + std::to_string(phase_idx);

  // Perturb the base behaviour per phase; clamps keep every phase within the
  // regime that preserves the intended category.
  auto jitter = [&](double base, double rel) {
    return base * rng.uniform(1.0 - rel, 1.0 + rel);
  };
  p.lpki = std::max(0.1, jitter(spec.lpki, 0.18));
  const double center = std::clamp(spec.center + rng.uniform(-1.2, 1.2), 3.0, 12.0);
  const double width = std::max(1.2, jitter(spec.width, 0.2));
  const double hot = std::max(0.0, jitter(spec.hot, 0.1));
  const double sens = std::max(0.0, jitter(spec.sens, 0.15));
  const double cold = std::max(0.0, jitter(spec.cold, 0.15));
  p.reuse = make_stack_profile(hot, sens, center, width, cold);
  p.dep_frac = std::clamp(jitter(std::max(spec.dep, 0.01), 0.15), 0.0, 0.95);
  p.write_frac = std::clamp(jitter(spec.wf, 0.15), 0.0, 0.8);
  p.burst_size = std::max(1.0, jitter(spec.burst, 0.2));
  p.intra_gap = std::max(4.0, jitter(spec.gap, 0.2));
  p.ilp = std::max(1.05, jitter(spec.ilp, 0.08));
  p.cpi_branch = std::max(0.005, jitter(spec.cpi_bp, 0.25));
  p.cpi_cache = std::max(0.01, jitter(spec.cpi_cc, 0.25));
  return p;
}

}  // namespace

const char* category_name(Category c) noexcept {
  switch (c) {
    case Category::CS_PS:
      return "CS-PS";
    case Category::CS_PI:
      return "CS-PI";
    case Category::CI_PS:
      return "CI-PS";
    case Category::CI_PI:
      return "CI-PI";
  }
  return "?";
}

SpecSuite::SpecSuite() {
  apps_.reserve(kNumApps);
  categories_.reserve(kNumApps);
  for (std::size_t i = 0; i < kNumApps; ++i) {
    const AppSpec& spec = kSpecs[i];
    Rng rng(app_seed(i));

    AppProfile app;
    app.name = spec.name;
    app.trace_seed = app_seed(i) ^ 0xabcdef12345ULL;

    std::vector<double> weights;
    for (int ph = 0; ph < spec.phases; ++ph) {
      app.phases.push_back(make_phase(spec, ph, rng));
      weights.push_back(rng.uniform(0.5, 1.5));
    }
    double total = 0.0;
    for (const double w : weights) total += w;
    for (std::size_t ph = 0; ph < weights.size(); ++ph) {
      weights[ph] /= total;
      app.phases[ph].weight = weights[ph];
    }

    app.phase_sequence = make_phase_sequence(spec.phases, weights, spec.intervals,
                                             /*stay=*/0.80, app_seed(i) ^ 0x777ULL);
    apps_.push_back(std::move(app));
    categories_.push_back(spec.category);
  }
}

int SpecSuite::index_of(const std::string& name) const {
  for (int i = 0; i < size(); ++i) {
    if (apps_[static_cast<std::size_t>(i)].name == name) return i;
  }
  return -1;
}

Category SpecSuite::intended_category(int idx) const {
  QOSRM_CHECK(idx >= 0 && idx < size());
  return categories_[static_cast<std::size_t>(idx)];
}

std::vector<int> SpecSuite::apps_in_category(Category c) const {
  std::vector<int> out;
  for (int i = 0; i < size(); ++i) {
    if (categories_[static_cast<std::size_t>(i)] == c) out.push_back(i);
  }
  return out;
}

const SpecSuite& spec_suite() {
  static const SpecSuite suite;
  return suite;
}

}  // namespace qosrm::workload

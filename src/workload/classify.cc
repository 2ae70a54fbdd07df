#include "workload/classify.hh"

#include <algorithm>
#include <cmath>


namespace qosrm::workload {
namespace {

// Table II thresholds.
constexpr double kMpkiMin = 0.2;         ///< minimum baseline MPKI to count as CS
constexpr double kMpkiVariation = 0.20;  ///< relative MPKI swing threshold
constexpr double kMlpVariation = 0.30;   ///< (MLP_L - MLP_S) / MLP_M threshold
constexpr double kMlpMinLarge = 2.0;     ///< minimum MLP on the L core for PS

}  // namespace

AppClassification classify_app(const SimDb& db, int app) {
  AppClassification cls;
  cls.app = app;

  const int wb = db.system().llc.ways_per_core_baseline;
  const int w_lo = std::max(1, wb / 2);        // -50% allocation
  const int w_hi = wb + wb / 2;                // +50% allocation
  cls.mpki_base = db.app_mpki(app, wb);
  cls.mpki_lo = db.app_mpki(app, w_lo);
  cls.mpki_hi = db.app_mpki(app, w_hi);
  cls.cache_sensitive =
      classify_part_class(cls.mpki_base, cls.mpki_lo, cls.mpki_hi) ==
      PartClass::Sensitive;

  cls.mlp_s = db.app_mlp(app, arch::CoreSize::S);
  cls.mlp_m = db.app_mlp(app, arch::CoreSize::M);
  cls.mlp_l = db.app_mlp(app, arch::CoreSize::L);
  cls.parallelism_sensitive =
      (cls.mlp_l - cls.mlp_s) > kMlpVariation * cls.mlp_m &&
      cls.mlp_l >= kMlpMinLarge;

  return cls;
}

std::vector<AppClassification> classify_suite(const SimDb& db) {
  std::vector<AppClassification> out;
  out.reserve(static_cast<std::size_t>(db.suite().size()));
  for (int a = 0; a < db.suite().size(); ++a) {
    out.push_back(classify_app(db, a));
  }
  return out;
}

PartClass classify_part_class(double mpki_base, double mpki_lo, double mpki_hi) {
  if (mpki_base < kMpkiMin) return PartClass::Light;
  const double swing = std::max(std::abs(mpki_lo - mpki_base),
                                std::abs(mpki_hi - mpki_base));
  return swing > kMpkiVariation * mpki_base ? PartClass::Sensitive
                                            : PartClass::Streaming;
}

std::array<int, kNumCategories> category_histogram(
    const std::vector<AppClassification>& cls) {
  std::array<int, kNumCategories> hist{};
  for (const auto& c : cls) {
    ++hist[static_cast<std::size_t>(c.category())];
  }
  return hist;
}

}  // namespace qosrm::workload

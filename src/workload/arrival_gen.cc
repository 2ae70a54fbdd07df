#include "workload/arrival_gen.hh"

#include <cmath>
#include <numbers>

#include "common/check.hh"
#include "common/rng.hh"
#include "common/str.hh"

namespace qosrm::workload {
namespace {

constexpr NamedValue<ArrivalPattern> kPatternNames[] = {
    {"poisson", ArrivalPattern::Poisson},
    {"bursty", ArrivalPattern::Bursty},
    {"diurnal", ArrivalPattern::Diurnal}};

// Pattern shapes.
constexpr double kBurstMeanLength = 16.0;  ///< mean arrivals per burst
constexpr double kBurstRateFactor = 4.0;   ///< in-burst rate multiplier
constexpr double kDiurnalAmplitude = 0.8;
constexpr double kDiurnalCycles = 4.0;     ///< over the nominal trace span

/// Exponential draw with the given rate; uniform() < 1 keeps the log finite.
double exp_draw(Rng& rng, double rate) {
  return -std::log(1.0 - rng.uniform()) / rate;
}

void validate(const ArrivalGenOptions& o) {
  QOSRM_CHECK_MSG(std::isfinite(o.load) && o.load > 0.0, "load must be > 0");
  QOSRM_CHECK_MSG(o.cores > 0, "cores must be > 0");
  QOSRM_CHECK_MSG(o.count > 0, "arrival count must be > 0");
  QOSRM_CHECK_MSG(std::isfinite(o.mean_service_time) && o.mean_service_time > 0.0,
                  "mean_service_time must be > 0");
  QOSRM_CHECK_MSG(o.num_apps > 0, "num_apps must be > 0");
  QOSRM_CHECK_MSG(o.demand_min > 0 && o.demand_max >= o.demand_min,
                  "demand range must satisfy 0 < demand_min <= demand_max");
}

}  // namespace

const char* arrival_pattern_name(ArrivalPattern pattern) noexcept {
  return name_of(kPatternNames, pattern);
}

bool try_parse_arrival_patterns(const std::string& spec,
                                std::vector<ArrivalPattern>* out,
                                std::string* error) {
  return parse_name_list_flag("arrivals", spec, kPatternNames, out, error);
}

void generate_arrivals_into(const ArrivalGenOptions& options, ArrivalTrace* out) {
  validate(options);
  QOSRM_CHECK(out != nullptr);

  const double lambda =
      options.load * static_cast<double>(options.cores) / options.mean_service_time;
  Rng rng(options.seed);

  out->events.clear();
  out->events.reserve(options.count);

  // Diurnal thinning parameters: the nominal trace spans count/lambda
  // seconds, over which kDiurnalCycles full sine periods fit.
  const double period =
      (static_cast<double>(options.count) / lambda) / kDiurnalCycles;
  const double peak_rate = lambda * (1.0 + kDiurnalAmplitude);

  // Bursty gap calibration: within a burst arrivals come at factor*lambda;
  // a burst holds Geometric(1/L) + 1 arrivals (mean L). Idle gaps of mean
  // L*(1 - 1/factor)/lambda restore the long-run rate to exactly lambda.
  const double burst_end_p = 1.0 / kBurstMeanLength;
  const double gap_mean =
      kBurstMeanLength * (1.0 - 1.0 / kBurstRateFactor) / lambda;

  double t = 0.0;
  while (out->events.size() < options.count) {
    switch (options.pattern) {
      case ArrivalPattern::Poisson:
        t += exp_draw(rng, lambda);
        break;
      case ArrivalPattern::Bursty:
        t += exp_draw(rng, kBurstRateFactor * lambda);
        break;
      case ArrivalPattern::Diurnal: {
        t += exp_draw(rng, peak_rate);
        const double rate =
            lambda * (1.0 + kDiurnalAmplitude *
                                std::sin(2.0 * std::numbers::pi * t / period));
        if (rng.uniform() * peak_rate >= rate) continue;  // thinned out
        break;
      }
    }
    ArrivalEvent event;
    event.time_s = t;
    event.app = static_cast<int>(rng.uniform_u64(
        static_cast<std::uint64_t>(options.num_apps)));
    event.demand_intervals =
        static_cast<int>(rng.uniform_int(options.demand_min, options.demand_max));
    out->events.push_back(event);
    if (options.pattern == ArrivalPattern::Bursty && rng.bernoulli(burst_end_p)) {
      t += exp_draw(rng, 1.0 / gap_mean);
    }
  }
}

ArrivalTrace generate_arrivals(const ArrivalGenOptions& options) {
  ArrivalTrace trace;
  generate_arrivals_into(options, &trace);
  return trace;
}

}  // namespace qosrm::workload

// Unit tests for the open-loop arrival-trace generator: determinism from
// the seed, rate calibration of all three patterns, burstiness ordering,
// strict spec parsing and fingerprint sensitivity.
#include "workload/arrival_gen.hh"

#include <cmath>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace qosrm::workload {
namespace {

ArrivalGenOptions base_options() {
  ArrivalGenOptions options;
  options.load = 0.8;
  options.cores = 16;
  options.count = 20000;
  options.seed = 77;
  options.mean_service_time = 2.0;
  options.num_apps = 27;
  options.demand_min = 40;
  options.demand_max = 160;
  return options;
}

double nominal_rate(const ArrivalGenOptions& options) {
  return options.load * options.cores / options.mean_service_time;
}

/// Coefficient of variation of the inter-arrival times.
double interarrival_cv(const ArrivalTrace& trace) {
  double sum = 0.0, sum_sq = 0.0;
  const std::size_t n = trace.events.size() - 1;
  for (std::size_t i = 1; i < trace.events.size(); ++i) {
    const double gap = trace.events[i].time_s - trace.events[i - 1].time_s;
    sum += gap;
    sum_sq += gap * gap;
  }
  const double mean = sum / static_cast<double>(n);
  const double var = sum_sq / static_cast<double>(n) - mean * mean;
  return std::sqrt(var) / mean;
}

TEST(ArrivalGen, DeterministicFromSeed) {
  const ArrivalGenOptions options = base_options();
  const ArrivalTrace a = generate_arrivals(options);
  const ArrivalTrace b = generate_arrivals(options);
  ASSERT_EQ(a.events.size(), b.events.size());
  for (std::size_t i = 0; i < a.events.size(); ++i) {
    EXPECT_EQ(a.events[i].time_s, b.events[i].time_s) << "event " << i;
    EXPECT_EQ(a.events[i].app, b.events[i].app);
    EXPECT_EQ(a.events[i].demand_intervals, b.events[i].demand_intervals);
  }

  ArrivalGenOptions other = options;
  other.seed = options.seed + 1;
  const ArrivalTrace c = generate_arrivals(other);
  EXPECT_NE(a.events.front().time_s, c.events.front().time_s);
}

TEST(ArrivalGen, ReuseMatchesAllocatingForm) {
  const ArrivalGenOptions options = base_options();
  const ArrivalTrace fresh = generate_arrivals(options);
  ArrivalTrace reused;
  generate_arrivals_into(options, &reused);  // grow
  generate_arrivals_into(options, &reused);  // reuse at capacity
  ASSERT_EQ(fresh.events.size(), reused.events.size());
  for (std::size_t i = 0; i < fresh.events.size(); ++i) {
    EXPECT_EQ(fresh.events[i].time_s, reused.events[i].time_s) << "event " << i;
  }
}

TEST(ArrivalGen, EventsWellFormed) {
  for (const ArrivalPattern pattern :
       {ArrivalPattern::Poisson, ArrivalPattern::Bursty,
        ArrivalPattern::Diurnal}) {
    ArrivalGenOptions options = base_options();
    options.pattern = pattern;
    options.count = 2000;
    const ArrivalTrace trace = generate_arrivals(options);
    ASSERT_EQ(trace.events.size(), options.count);
    double prev = 0.0;
    for (const ArrivalEvent& event : trace.events) {
      EXPECT_GE(event.time_s, prev);
      EXPECT_GT(event.time_s, 0.0);
      EXPECT_GE(event.app, 0);
      EXPECT_LT(event.app, options.num_apps);
      EXPECT_GE(event.demand_intervals, options.demand_min);
      EXPECT_LE(event.demand_intervals, options.demand_max);
      prev = event.time_s;
    }
  }
}

TEST(ArrivalGen, AllPatternsHitTheCalibratedRate) {
  // The long-run rate of every pattern is lambda = load * cores / mst: the
  // bursty idle gaps and the diurnal thinning are both sized to preserve it.
  for (const ArrivalPattern pattern :
       {ArrivalPattern::Poisson, ArrivalPattern::Bursty,
        ArrivalPattern::Diurnal}) {
    ArrivalGenOptions options = base_options();
    options.pattern = pattern;
    const ArrivalTrace trace = generate_arrivals(options);
    const double span = trace.events.back().time_s;
    const double rate = static_cast<double>(options.count) / span;
    EXPECT_NEAR(rate / nominal_rate(options), 1.0, 0.1)
        << arrival_pattern_name(pattern);
  }
}

TEST(ArrivalGen, BurstyIsBurstierThanPoisson) {
  ArrivalGenOptions options = base_options();
  const ArrivalTrace poisson = generate_arrivals(options);
  options.pattern = ArrivalPattern::Bursty;
  const ArrivalTrace bursty = generate_arrivals(options);
  // Poisson inter-arrivals have CV ~ 1; geometric bursts with idle gaps
  // push the CV well above it.
  EXPECT_GT(interarrival_cv(bursty), 1.2 * interarrival_cv(poisson));
}

TEST(ArrivalGen, ParseAcceptsKnownPatterns) {
  std::vector<ArrivalPattern> parsed;
  std::string error;
  ASSERT_TRUE(try_parse_arrival_patterns("poisson, bursty,diurnal", &parsed,
                                         &error))
      << error;
  ASSERT_EQ(parsed.size(), 3u);
  EXPECT_EQ(parsed[0], ArrivalPattern::Poisson);
  EXPECT_EQ(parsed[1], ArrivalPattern::Bursty);
  EXPECT_EQ(parsed[2], ArrivalPattern::Diurnal);
}

TEST(ArrivalGenDeathTest, ParseRejectsBadSpecs) {
  std::vector<ArrivalPattern> parsed;
  std::string error;
  for (const char* spec : {"", "poisson,", ",bursty"}) {
    EXPECT_FALSE(try_parse_arrival_patterns(spec, &parsed, &error)) << spec;
    EXPECT_NE(error.find("empty --arrivals entry"), std::string::npos) << error;
  }
  EXPECT_FALSE(try_parse_arrival_patterns("weibull", &parsed, &error));
  EXPECT_NE(error.find("bad --arrivals entry 'weibull'"), std::string::npos)
      << error;
  EXPECT_FALSE(try_parse_arrival_patterns("poisson,poisson", &parsed, &error));
  EXPECT_NE(error.find("duplicate --arrivals entry 'poisson'"),
            std::string::npos)
      << error;
}

TEST(ArrivalGenDeathTest, RejectsInvalidOptions) {
  ArrivalGenOptions options = base_options();
  options.load = 0.0;
  EXPECT_DEATH((void)generate_arrivals(options), "load");
  options = base_options();
  options.demand_max = options.demand_min - 1;
  EXPECT_DEATH((void)generate_arrivals(options), "demand");
  options = base_options();
  options.count = 0;
  EXPECT_DEATH((void)generate_arrivals(options), "count");
}

}  // namespace
}  // namespace qosrm::workload

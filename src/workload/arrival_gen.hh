// Open-loop arrival trace synthesis for the colocation-service mode.
//
// The paper evaluates the resource managers on fixed multiprogrammed mixes;
// the service mode instead drives them with a stream of application arrivals
// so tail behaviour (p95/p99 QoS violation, occupancy) becomes measurable.
// Three canonical arrival patterns are provided, all calibrated so the
// long-run arrival rate equals
//
//   lambda = load * cores / mean_service_time
//
// i.e. `load` is the offered utilization of the core pool:
//   - Poisson:  memoryless inter-arrivals, Exp(lambda).
//   - Bursty:   arrivals cluster into geometric-length bursts (mean 16
//               arrivals) with inter-arrival rate 4 * lambda, separated by
//               exponential idle gaps sized so the mean rate stays lambda.
//   - Diurnal:  non-homogeneous Poisson with sinusoidal rate
//               lambda * (1 + 0.8 sin(2 pi t / period)), drawn by thinning;
//               4 full cycles span the nominal trace length.
//
// Generation is fully deterministic from the options (single Rng stream,
// no platform-dependent distributions) and allocation-free when the caller
// reuses an ArrivalTrace via generate_arrivals_into.
#ifndef QOSRM_WORKLOAD_ARRIVAL_GEN_HH
#define QOSRM_WORKLOAD_ARRIVAL_GEN_HH

#include <cstdint>
#include <string>
#include <vector>

namespace qosrm::workload {

enum class ArrivalPattern : int { Poisson = 0, Bursty = 1, Diurnal = 2 };

inline constexpr int kNumArrivalPatterns = 3;

/// Short stable name ("poisson", "bursty", "diurnal"); used in CSV/JSON
/// output and accepted by try_parse_arrival_patterns.
[[nodiscard]] const char* arrival_pattern_name(ArrivalPattern pattern) noexcept;

/// Parses the --arrivals pattern list, e.g. "poisson,bursty". False, with
/// *error naming the flag and the entry, on an unknown name, an empty list
/// or an empty entry (a stray comma would otherwise silently shrink the
/// service grid).
bool try_parse_arrival_patterns(const std::string& spec,
                                std::vector<ArrivalPattern>* out,
                                std::string* error);

struct ArrivalGenOptions {
  ArrivalPattern pattern = ArrivalPattern::Poisson;
  double load = 0.8;   ///< offered utilization of the core pool, > 0
  int cores = 16;      ///< size of the served core pool
  std::size_t count = 5000;  ///< number of arrivals to emit
  std::uint64_t seed = 2020;
  /// Mean busy time one app keeps a core (seconds); calibrates lambda.
  double mean_service_time = 1.0;
  int num_apps = 1;    ///< app ids are drawn uniformly from [0, num_apps)
  int demand_min = 40;   ///< per-arrival demand in intervals, inclusive
  int demand_max = 160;  ///< >= demand_min
};

struct ArrivalEvent {
  double time_s = 0.0;       ///< absolute arrival time, non-decreasing
  int app = 0;               ///< application id in [0, num_apps)
  int demand_intervals = 0;  ///< work requested, in trace intervals
};

struct ArrivalTrace {
  std::vector<ArrivalEvent> events;
};

/// Synthesizes `options.count` arrivals into `*out`, reusing its capacity
/// (no allocation once the vector has grown to `count`). Aborts on invalid
/// options (non-positive load/cores/count, demand_max < demand_min, ...).
void generate_arrivals_into(const ArrivalGenOptions& options, ArrivalTrace* out);

/// Convenience allocating wrapper around generate_arrivals_into.
[[nodiscard]] ArrivalTrace generate_arrivals(const ArrivalGenOptions& options);

}  // namespace qosrm::workload

#endif  // QOSRM_WORKLOAD_ARRIVAL_GEN_HH

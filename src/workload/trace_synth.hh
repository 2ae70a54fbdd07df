// Synthetic LLC access-trace generation.
//
// Produces a program-order LlcAccess stream realizing a PhaseParams
// description: bursts of loads with controlled instruction gaps, dependence
// chains, and per-access reuse distances drawn from the phase's stack
// profile. Reuse distances are realized exactly by touching the tag
// currently at the desired recency position of a shadow LRU directory, so
// the measured miss curve matches the requested profile by construction. The
// shadow directory is the exact program-order LRU simulation of the trace,
// so the generator also returns each access's recency position.
#ifndef QOSRM_WORKLOAD_TRACE_SYNTH_HH
#define QOSRM_WORKLOAD_TRACE_SYNTH_HH

#include <cstdint>
#include <vector>

#include "cache/access.hh"
#include "workload/app_profile.hh"

namespace qosrm::workload {

struct TraceSynthConfig {
  int sets = 64;  ///< shadow-directory sets (the trace is a set sample)
  int max_ways = 16;
  /// Instructions the trace stands for; the generator emits roughly
  /// lpki * represented_instructions / 1000 accesses.
  double represented_instructions = 8e6;
};

struct SynthesizedTrace {
  std::vector<cache::LlcAccess> accesses;  ///< program order
  /// Recency position of each access in the shadow directory (sets x
  /// max_ways LRU stacks), kRecencyMiss for a first touch: the program-order
  /// LRU recency annotation of `accesses` (tests/support/recency_ref.hh
  /// computes it from scratch).
  std::vector<std::uint8_t> recency;
  double represented_instructions = 0.0;   ///< actual instruction span
};

/// Generates the canonical trace of `phase`, deterministic in `seed`.
[[nodiscard]] SynthesizedTrace synthesize_trace(const PhaseParams& phase,
                                                const TraceSynthConfig& config,
                                                std::uint64_t seed);

}  // namespace qosrm::workload

#endif  // QOSRM_WORKLOAD_TRACE_SYNTH_HH

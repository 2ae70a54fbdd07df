// Ground-truth interval timing model (the role Sniper's "ROB" core model
// plays in the paper's methodology).
//
// Given the architecture-independent characteristics of an execution interval
// (instruction count, inherent ILP, branch/private-cache stall components)
// and the cache-level ground truth for a specific setting (LLC misses and
// *leading* misses at core size c and allocation w), the model produces the
// interval's wall-clock time decomposed exactly along the lines of paper
// Eq. 1:
//
//   T = T_dispatch(c)/f + (T_BP + T_Cache)/f + LM(c,w) * L_mem
//
// The dispatch component saturates harmonically in min(D(c), ILP): this is
// deliberately *richer* than the RM's analytical assumption of linear
// dispatch-width scaling, so the online models exhibit realistic error.
#ifndef QOSRM_ARCH_CORE_MODEL_HH
#define QOSRM_ARCH_CORE_MODEL_HH

#include "arch/core_config.hh"

namespace qosrm::arch {

/// Architecture-independent description of one interval of execution.
struct IntervalCharacteristics {
  double instructions = 0.0;   ///< retired instructions in the interval
  double ilp = 1.0;            ///< inherent instruction-level parallelism
  double cpi_branch = 0.0;     ///< branch-misprediction stall cycles/instr
  double cpi_private_cache = 0.0;  ///< L1/L2 access stall cycles/instr
};

/// Cache-level ground truth for a specific (c, w) setting.
struct MemoryBehaviour {
  double llc_misses = 0.0;      ///< total LLC misses M(w) in the interval
  double leading_misses = 0.0;  ///< non-overlapped misses LM(c, w)
  double mem_latency_s = 100e-9;  ///< DRAM latency (frequency-independent)
};

/// Cycle/time breakdown of one interval at a concrete (c, f, w).
///
/// Compute cycles decompose into a width-bound part N/D(c), which shrinks
/// linearly with the dispatch width (Eq. 1's "scaled linearly" component),
/// and a dependency-bound part N/ILP, which a wider core cannot remove. The
/// ground truth additionally lets the effective ILP grow mildly with the
/// instruction window (window_ilp_factor) - an effect the online models do
/// not know about, one of the realistic modelling-error sources.
struct IntervalTiming {
  double width_cycles = 0.0;   ///< N / D(c): dispatch-width bound
  double ilp_cycles = 0.0;     ///< N / ILP_eff(c): dependency bound
  double branch_cycles = 0.0;  ///< T_BP cycles, unaffected by core size
  double cache_cycles = 0.0;   ///< T_Cache cycles, unaffected by core size
  double core_seconds = 0.0;   ///< busy_cycles() / f
  double mem_seconds = 0.0;    ///< LM * L_mem, unaffected by f
  double total_seconds = 0.0;  ///< core_seconds + mem_seconds

  [[nodiscard]] double busy_cycles() const noexcept {
    return width_cycles + ilp_cycles + branch_cycles + cache_cycles;
  }
};

/// Second-order window effect: a larger ROB/RS lets the scheduler extract a
/// little more ILP. Unknown to the online models (modelling error).
[[nodiscard]] double window_ilp_factor(CoreSize c) noexcept;

/// Evaluates the ground-truth interval time at (c, f, w); the w dependence is
/// already folded into `mem` (misses/leading misses are per-(c,w)).
[[nodiscard]] IntervalTiming evaluate_interval(const IntervalCharacteristics& chars,
                                               const MemoryBehaviour& mem,
                                               CoreSize c, double freq_hz) noexcept;

}  // namespace qosrm::arch

#endif  // QOSRM_ARCH_CORE_MODEL_HH

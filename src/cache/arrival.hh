// Out-of-order arrival emulation.
//
// The hardware ATD observes LLC accesses in the order the core ISSUES them,
// not in program order: a load whose address depends on an in-flight miss
// reaches the LLC only after the producer's data returns. The paper's MLP
// heuristic exploits exactly this reordering ("if load instructions arrive
// out of order at the ATD, it is likely due to a data dependency").
//
// This emulator derives the arrival permutation of a program-order trace for
// a concrete core configuration and LLC allocation: each load gets an
// arrival timestamp (dispatch cycle + accumulated dependency-chain delay)
// and the trace is stably sorted by it.
#ifndef QOSRM_CACHE_ARRIVAL_HH
#define QOSRM_CACHE_ARRIVAL_HH

#include <cstdint>
#include <span>
#include <vector>

#include "arch/core_config.hh"
#include "cache/access.hh"

namespace qosrm::cache {

struct ArrivalParams {
  arch::CoreSize core = arch::CoreSize::M;
  int ways = 8;                     ///< LLC allocation, decides who misses
  double dispatch_ipc = 2.0;        ///< average dispatch rate (instr/cycle)
  double mem_latency_cycles = 200;  ///< DRAM latency in core cycles
};

/// Returns the arrival permutation: order[k] = trace position of the k-th
/// access to reach the LLC (ties in program order). `trace` must be in
/// program order (inst_index never decreases); `recency` is its annotation,
/// used to decide which accesses miss at `params.ways`.
[[nodiscard]] std::vector<std::uint32_t> emulate_arrival_order(
    std::span<const LlcAccess> trace, std::span<const std::uint8_t> recency,
    const ArrivalParams& params);

}  // namespace qosrm::cache

#endif  // QOSRM_CACHE_ARRIVAL_HH

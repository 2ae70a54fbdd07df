#include "arch/core_model.hh"

#include "common/check.hh"

namespace qosrm::arch {

double window_ilp_factor(CoreSize c) noexcept {
  switch (c) {
    case CoreSize::S:
      return 0.93;
    case CoreSize::M:
      return 1.00;
    case CoreSize::L:
      return 1.05;
  }
  return 1.0;
}

IntervalTiming evaluate_interval(const IntervalCharacteristics& chars,
                                 const MemoryBehaviour& mem, CoreSize c,
                                 double freq_hz) noexcept {
  QOSRM_DCHECK(freq_hz > 0.0);
  QOSRM_DCHECK(chars.instructions >= 0.0);
  QOSRM_DCHECK(chars.ilp > 0.0);
  QOSRM_DCHECK(mem.leading_misses <= mem.llc_misses + 1e-9);

  IntervalTiming t;
  const double d = static_cast<double>(core_params(c).issue_width);
  t.width_cycles = chars.instructions / d;
  t.ilp_cycles = chars.instructions / (chars.ilp * window_ilp_factor(c));
  t.branch_cycles = chars.instructions * chars.cpi_branch;
  t.cache_cycles = chars.instructions * chars.cpi_private_cache;
  t.core_seconds = t.busy_cycles() / freq_hz;
  t.mem_seconds = mem.leading_misses * mem.mem_latency_s;
  t.total_seconds = t.core_seconds + t.mem_seconds;
  return t;
}

}  // namespace qosrm::arch

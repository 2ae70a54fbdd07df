#include "arch/dvfs.hh"

#include "common/check.hh"

namespace qosrm::arch {

OperatingPoint VfTable::point(int idx) noexcept {
  QOSRM_DCHECK(idx >= 0 && idx < kNumPoints);
  return {frequency_hz(idx), voltage(idx)};
}

double VfTable::frequency_hz(int idx) noexcept {
  QOSRM_DCHECK(idx >= 0 && idx < kNumPoints);
  return kMinFreqHz + kStepHz * static_cast<double>(idx);
}

double VfTable::voltage(int idx) noexcept {
  QOSRM_DCHECK(idx >= 0 && idx < kNumPoints);
  const double span_hz = kStepHz * static_cast<double>(kNumPoints - 1);
  const double t = (frequency_hz(idx) - kMinFreqHz) / span_hz;
  return kMinVolt + t * (kMaxVolt - kMinVolt);
}

}  // namespace qosrm::arch

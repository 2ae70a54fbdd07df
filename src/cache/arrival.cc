#include "cache/arrival.hh"

#include <algorithm>

#include "common/check.hh"

namespace qosrm::cache {

std::vector<std::uint32_t> emulate_arrival_order(
    std::span<const LlcAccess> trace, std::span<const std::uint8_t> recency,
    const ArrivalParams& params) {
  QOSRM_CHECK(trace.size() == recency.size());
  QOSRM_CHECK(params.dispatch_ipc > 0.0);

  // The order is the stable sort by arrival time. A load without chain
  // delay arrives at its dispatch cycle, which never decreases in program
  // order, so those loads are already sorted: only the delayed ones (about
  // a tenth of a suite trace) are sorted, then merged in by (arrival,
  // position).
  std::vector<double> arrival(trace.size(), 0.0);
  std::vector<std::uint32_t> on_time;
  std::vector<std::uint32_t> delayed;
  on_time.reserve(trace.size());
  double chain_delay = 0.0;    // accumulated delay of the current dep chain
  bool prev_missed = false;    // previous load missed -> dependents stall

  for (std::size_t i = 0; i < trace.size(); ++i) {
    const LlcAccess& a = trace[i];
    QOSRM_CHECK(i == 0 || trace[i - 1].inst_index <= a.inst_index);  // program order
    const double dispatch_cycle =
        static_cast<double>(a.inst_index) / params.dispatch_ipc;
    if (a.depends_on_prev && prev_missed) {
      // Address depends on in-flight data: issue after the producer returns.
      chain_delay += params.mem_latency_cycles;
    } else if (!a.depends_on_prev) {
      chain_delay = 0.0;  // independent load starts a fresh chain
    }
    arrival[i] = dispatch_cycle + chain_delay;
    (chain_delay == 0.0 ? on_time : delayed).push_back(static_cast<std::uint32_t>(i));
    prev_missed = misses_at(recency[i], params.ways);
  }

  std::stable_sort(delayed.begin(), delayed.end(),
                   [&](std::uint32_t x, std::uint32_t y) {
                     return arrival[x] < arrival[y];
                   });
  std::vector<std::uint32_t> order(trace.size());
  std::merge(on_time.begin(), on_time.end(), delayed.begin(), delayed.end(),
             order.begin(), [&](std::uint32_t x, std::uint32_t y) {
               return arrival[x] < arrival[y] || (arrival[x] == arrival[y] && x < y);
             });
  return order;
}

}  // namespace qosrm::cache

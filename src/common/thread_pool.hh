// One blocking parallel loop over independent indices.
//
// All parallel work in the repo is an index loop whose iterations each write
// their own slot: the SimDb characterization jobs (src/workload/sim_db), the
// sweep rows (src/rmsim/sweep) and the service rows (src/rmsim/service). So
// one loop serves them all: no task queue, no pool outliving the call.
#ifndef QOSRM_COMMON_THREAD_POOL_HH
#define QOSRM_COMMON_THREAD_POOL_HH

#include <cstddef>
#include <functional>

namespace qosrm {

/// Lanes to run `items` work items on: `requested` (0 = hardware
/// concurrency), capped at `items` and at least 1. More lanes than items
/// would only idle - and a huge request would fail to spawn them.
[[nodiscard]] std::size_t pool_threads(int requested, std::size_t items);

/// Runs body(i) exactly once for every i in [0, n) and returns when all have
/// finished. The calling thread plus min(lanes, n) - 1 std::jthreads each take
/// the next unclaimed index from one atomic counter, so a slow index never
/// holds back a block of others. With lanes <= 1 the loop runs serially on
/// the caller and starts no thread. `body` must be safe to call concurrently
/// for distinct i and must not throw.
void parallel_for(std::size_t lanes, std::size_t n,
                  const std::function<void(std::size_t)>& body);

}  // namespace qosrm

#endif  // QOSRM_COMMON_THREAD_POOL_HH

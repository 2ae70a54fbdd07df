#include "common/thread_pool.hh"

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

namespace qosrm {

std::size_t pool_threads(int requested, std::size_t items) {
  const std::size_t want =
      requested > 0 ? static_cast<std::size_t>(requested)
                    : std::max<std::size_t>(1, std::thread::hardware_concurrency());
  return std::max<std::size_t>(1, std::min(want, items));
}

void parallel_for(std::size_t lanes, std::size_t n,
                  const std::function<void(std::size_t)>& body) {
  lanes = std::min(lanes, n);
  if (lanes <= 1) {
    for (std::size_t i = 0; i < n; ++i) body(i);
    return;
  }
  std::atomic<std::size_t> next{0};
  const auto drain = [&] {
    for (std::size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) {
      body(i);
    }
  };
  {
    std::vector<std::jthread> helpers;
    helpers.reserve(lanes - 1);
    for (std::size_t t = 1; t < lanes; ++t) helpers.emplace_back(drain);
    drain();
  }  // the jthreads join here
}

}  // namespace qosrm

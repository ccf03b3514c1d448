#include "sim/parallel_for.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace wlm::sim {

void parallel_for(std::size_t count, int threads,
                  const std::function<void(std::size_t)>& fn) {
  const auto n_workers = static_cast<std::size_t>(std::max(1, threads));
  if (n_workers <= 1 || count <= 1) {
    for (std::size_t i = 0; i < count; ++i) fn(i);
    return;
  }
  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};
  std::mutex error_mu;
  std::exception_ptr first_error;  // guarded by error_mu
  auto worker = [&] {
    while (!failed.load(std::memory_order_relaxed)) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= count) return;
      try {
        fn(i);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(error_mu);
        if (!first_error) first_error = std::current_exception();
        failed.store(true, std::memory_order_relaxed);
      }
    }
  };
  const std::size_t n = std::min(n_workers, count);
  std::vector<std::thread> pool;
  pool.reserve(n);
  try {
    for (std::size_t t = 0; t < n; ++t) pool.emplace_back(worker);
  } catch (...) {
    // Thread creation failed: stop the workers already running before the
    // pool (and the state they reference) goes out of scope.
    failed.store(true, std::memory_order_relaxed);
    for (auto& t : pool) t.join();
    throw;
  }
  for (auto& t : pool) t.join();
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace wlm::sim

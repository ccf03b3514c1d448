// The fleet's worker pool: one fan-out primitive shared by shard
// construction, supervised campaign phases, drains and seals.
#pragma once

#include <cstddef>
#include <functional>

namespace wlm::sim {

/// Runs `fn(i)` for every i in [0, count) on up to `threads` worker threads
/// (serially, in index order, when threads <= 1 or count <= 1). Indices are
/// handed out dynamically, so `fn` must confine itself to index i's state.
///
/// An exception escaping `fn` does not end the program: the first one
/// thrown is captured, workers stop claiming new indices, every worker is
/// joined, and the exception is rethrown on the calling thread. Indices
/// already running finish; indices not yet claimed are skipped.
void parallel_for(std::size_t count, int threads,
                  const std::function<void(std::size_t)>& fn);

}  // namespace wlm::sim

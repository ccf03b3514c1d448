// sim::parallel_for: every index runs once, and an exception escaping a
// worker reaches the caller after every worker has been joined.
#include "sim/parallel_for.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <string>
#include <vector>

namespace wlm::sim {
namespace {

class ParallelFor : public ::testing::TestWithParam<int> {};

TEST_P(ParallelFor, RunsEveryIndexOnce) {
  std::vector<std::atomic<int>> hits(1000);
  parallel_for(hits.size(), GetParam(), [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < hits.size(); ++i) EXPECT_EQ(hits[i].load(), 1) << i;
  parallel_for(0, GetParam(), [](std::size_t) { FAIL() << "no index to run"; });
}

TEST_P(ParallelFor, WorkerExceptionReachesCallerAfterJoin) {
  std::atomic<int> running{0};
  std::atomic<int> ran{0};
  try {
    parallel_for(400, GetParam(), [&](std::size_t i) {
      running.fetch_add(1);
      ran.fetch_add(1);
      if (i == 37) {
        running.fetch_sub(1);
        throw std::runtime_error("index 37 failed");
      }
      volatile double sink = 0.0;  // some work, so other workers overlap
      for (int k = 0; k < 2000; ++k) sink = sink + k;
      running.fetch_sub(1);
    });
    FAIL() << "the worker's exception was swallowed";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()), "index 37 failed");
  }
  // Every worker finished before the rethrow. Serially, nothing past the
  // failing index ran.
  EXPECT_EQ(running.load(), 0);
  EXPECT_GE(ran.load(), 38);
  if (GetParam() == 1) {
    EXPECT_EQ(ran.load(), 38);
  }
}

TEST_P(ParallelFor, FirstOfSeveralFailuresIsRethrown) {
  std::atomic<int> failures{0};
  EXPECT_THROW(parallel_for(64, GetParam(),
                            [&](std::size_t) {
                              failures.fetch_add(1);
                              throw std::logic_error("every index fails");
                            }),
               std::logic_error);
  EXPECT_GE(failures.load(), 1);
}

INSTANTIATE_TEST_SUITE_P(Threads, ParallelFor, ::testing::Values(1, 4));

}  // namespace
}  // namespace wlm::sim

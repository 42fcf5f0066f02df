/// \file thread_pool_test.cc
/// \brief ThreadPool, the vpbnd connection-worker pool: every submitted
/// task runs, and shutdown drains the queue.

#include "common/thread_pool.h"

#include <atomic>

#include <gtest/gtest.h>

namespace vpbn::common {
namespace {

TEST(ThreadPoolTest, RunsSubmittedTasks) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(4);
    EXPECT_EQ(pool.num_threads(), 4);
    for (int i = 0; i < 100; ++i) {
      pool.Submit([&count] { count.fetch_add(1); });
    }
  }  // Destructor blocks until every task ran.
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPoolTest, ZeroThreadsMeansHardwareConcurrency) {
  ThreadPool pool(0);
  EXPECT_GE(pool.num_threads(), 1);
}

TEST(ThreadPoolTest, ShutdownDrainsPendingTasks) {
  // Submit far more tasks than workers; the destructor must run them all,
  // not drop the queued tail.
  std::atomic<int> count{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 1000; ++i) {
      pool.Submit([&count] { count.fetch_add(1); });
    }
  }
  EXPECT_EQ(count.load(), 1000);
}

}  // namespace
}  // namespace vpbn::common

/// \file thread_pool.h
/// \brief A small fixed-size thread pool: the vpbnd connection workers.
///
/// The pool is deliberately minimal: a shared FIFO of type-erased tasks,
/// N worker threads, blocking shutdown in the destructor. The server
/// (server/server.h) owns one and hands each accepted connection to it.
/// A query, a build and a snapshot load each run on the thread that calls
/// them; concurrency comes only from several callers at once.
///
/// Tasks must not throw.

#pragma once

#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace vpbn::common {

class ThreadPool {
 public:
  /// Starts \p num_threads workers. 0 means std::thread::hardware_concurrency
  /// (at least 1). A 1-thread pool is valid and still runs tasks on its
  /// single worker.
  explicit ThreadPool(int num_threads);

  /// Drains nothing: pending tasks are executed, then workers join. Blocks
  /// until every submitted task has run.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues \p task. Must not be called after/while the destructor runs.
  void Submit(std::function<void()> task);

  int num_threads() const { return static_cast<int>(workers_.size()); }

 private:
  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace vpbn::common

#ifndef MMDB_PARALLEL_PARALLEL_H_
#define MMDB_PARALLEL_PARALLEL_H_

#include <algorithm>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "parallel/thread_pool.h"
#include "util/status.h"
#include "util/statusor.h"

namespace mmdb {

// Sweep helpers on top of ThreadPool: run N independent closures across
// min(N, jobs) workers and hand the results back IN SUBMISSION ORDER, so a
// parallel sweep is observationally identical to the serial loop it
// replaced (same rows, same order — only the wall clock moves).
//
// jobs <= 1 is the old serial path: every closure runs inline on the
// calling thread, no pool, no worker threads at all. This keeps `--jobs=1`
// bit-for-bit equivalent to the pre-parallel harness even under tools that
// observe thread creation.
//
// Exceptions thrown by a closure are captured and converted to INTERNAL
// Status — a sweep never terminates the process because one point blew up.

namespace parallel_internal {

// Completion latch: Wait() returns once `count` Done() calls arrived.
class SweepLatch {
 public:
  explicit SweepLatch(std::size_t count) : remaining_(count) {}

  void Done() {
    std::lock_guard<std::mutex> lock(mu_);
    if (--remaining_ == 0) all_done_.notify_all();
  }

  void Wait() {
    std::unique_lock<std::mutex> lock(mu_);
    all_done_.wait(lock, [this] { return remaining_ == 0; });
  }

 private:
  std::mutex mu_;
  std::condition_variable all_done_;
  std::size_t remaining_;
};

inline Status CurrentExceptionToStatus() {
  try {
    throw;
  } catch (const std::exception& e) {
    return InternalError(std::string("task threw: ") + e.what());
  } catch (...) {
    return InternalError("task threw a non-std::exception");
  }
}

}  // namespace parallel_internal

// Runs tasks[i]() for every i across `pool`'s workers (all of them — the
// pool's width is the sweep's width); returns the per-task results indexed
// exactly like `tasks`. `pool` may be null, selecting the serial inline
// path. T is anything movable; closures returning StatusOr<T> get failures
// propagated in their slot, and a throwing closure yields an INTERNAL
// StatusOr in its slot.
//
// The pool is reused, not consumed: the call leaves it running, so a
// long-lived owner (SweepRunner) amortizes thread start-up across many
// rounds.
template <typename T>
std::vector<StatusOr<T>> RunSweep(
    ThreadPool* pool, const std::vector<std::function<StatusOr<T>()>>& tasks) {
  std::vector<StatusOr<T>> results;
  results.reserve(tasks.size());
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    results.push_back(InternalError("sweep task never ran"));
  }
  if (tasks.empty()) return results;

  auto run_one = [&tasks, &results](std::size_t i) {
    try {
      results[i] = tasks[i]();
    } catch (...) {
      results[i] = parallel_internal::CurrentExceptionToStatus();
    }
  };

  if (pool == nullptr) {
    for (std::size_t i = 0; i < tasks.size(); ++i) run_one(i);
    return results;
  }

  parallel_internal::SweepLatch latch(tasks.size());
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    // Each worker writes only its own pre-sized slot; the latch's release
    // sequence publishes every slot to this thread before Wait() returns.
    if (!pool->Submit([&run_one, &latch, i] {
          run_one(i);
          latch.Done();
        })) {
      // Shutdown raced the sweep; run the slot inline so no task is lost.
      run_one(i);
      latch.Done();
    }
  }
  latch.Wait();
  return results;
}

// Historical entry point: spins up a transient pool of min(jobs, tasks)
// workers for this one sweep. jobs <= 1 is the serial path. Prefer the
// pool-taking overload when sweeping more than once.
template <typename T>
std::vector<StatusOr<T>> RunSweep(
    std::size_t jobs, const std::vector<std::function<StatusOr<T>()>>& tasks) {
  if (jobs <= 1 || tasks.size() <= 1) return RunSweep<T>(nullptr, tasks);
  ThreadPool pool(std::min(jobs, tasks.size()));
  return RunSweep<T>(&pool, tasks);
}

}  // namespace mmdb

#endif  // MMDB_PARALLEL_PARALLEL_H_

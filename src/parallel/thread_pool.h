#ifndef MMDB_PARALLEL_THREAD_POOL_H_
#define MMDB_PARALLEL_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace mmdb {

// Fixed-size worker pool over a plain FIFO queue. Dependency-free by
// design (the bench harness must not grow third-party requirements), and
// deliberately small: no futures, no work stealing, no priorities — the
// sweep helpers in parallel.h layer ordered results and Status capture on
// top of Submit().
//
// Shutdown is graceful: the destructor (or Shutdown()) stops accepting new
// work, lets the workers DRAIN everything already queued, and joins them.
// Work submitted after shutdown began is rejected (Submit returns false)
// and never runs, so callers cannot lose track of a task silently.
//
// Thread-safety: Submit() may be called from any thread, including from
// inside a running task. Tasks must not touch shared mutable state without
// their own synchronization — the engines driven by the sweep runner are
// single-threaded and each worker owns its engine outright (DESIGN.md §12).
//
// Pools are reusable: a pool outlives any number of RunSweep rounds
// (parallel.h's pool-taking overload), so a long-lived owner — the bench
// SweepRunner — pays thread start-up once instead of per call.
class ThreadPool {
 public:
  // Spawns exactly `num_threads` workers (at least 1).
  explicit ThreadPool(std::size_t num_threads);

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Drains the queue and joins the workers.
  ~ThreadPool();

  // Enqueues `task` for execution on some worker. Returns false (dropping
  // the task) once shutdown has begun. `task` must not throw — wrap
  // user-supplied closures with the capture helpers in parallel.h.
  bool Submit(std::function<void()> task);

  // Stops accepting work, runs everything already queued, joins the
  // workers. Idempotent; called by the destructor.
  void Shutdown();

  std::size_t num_threads() const { return workers_.size(); }

 private:
  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable work_available_;
  std::deque<std::function<void()>> queue_;
  bool shutting_down_ = false;
  std::vector<std::thread> workers_;
};

// min(n, hardware_concurrency), never 0 — the width RunSweep uses when the
// caller asks for "as wide as the machine".
std::size_t DefaultSweepWidth(std::size_t n);

}  // namespace mmdb

#endif  // MMDB_PARALLEL_THREAD_POOL_H_

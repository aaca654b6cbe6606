#include <atomic>
#include <chrono>
#include <functional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "parallel/parallel.h"
#include "parallel/thread_pool.h"

namespace mmdb {
namespace {

TEST(ThreadPoolTest, RunsSubmittedWork) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.num_threads(), 4u);
  std::atomic<int> ran{0};
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(pool.Submit([&ran] { ran.fetch_add(1); }));
  }
  pool.Shutdown();
  EXPECT_EQ(ran.load(), 100);
}

TEST(ThreadPoolTest, ShutdownDrainsPendingWork) {
  // More slow tasks than workers, then destroy the pool immediately: the
  // graceful-shutdown contract is that everything already queued still
  // runs (nothing is dropped on the floor).
  std::atomic<int> ran{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 32; ++i) {
      ASSERT_TRUE(pool.Submit([&ran] {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        ran.fetch_add(1);
      }));
    }
  }  // ~ThreadPool: drain + join
  EXPECT_EQ(ran.load(), 32);
}

TEST(ThreadPoolTest, SubmitAfterShutdownIsRejected) {
  ThreadPool pool(1);
  pool.Shutdown();
  std::atomic<int> ran{0};
  EXPECT_FALSE(pool.Submit([&ran] { ran.fetch_add(1); }));
  EXPECT_EQ(ran.load(), 0);
}

TEST(ThreadPoolTest, ShutdownIsIdempotent) {
  ThreadPool pool(2);
  pool.Submit([] {});
  pool.Shutdown();
  pool.Shutdown();  // must not hang or crash; dtor adds a third call
}

TEST(ThreadPoolTest, SubmitFromInsideATask) {
  ThreadPool pool(2);
  std::atomic<int> ran{0};
  std::atomic<bool> nested_accepted{false};
  ASSERT_TRUE(pool.Submit([&] {
    nested_accepted = pool.Submit([&ran] { ran.fetch_add(1); });
  }));
  // Drain: nested task was queued before Shutdown stops intake (the outer
  // task may race with Shutdown; accept either outcome coherently).
  pool.Shutdown();
  if (nested_accepted) {
    EXPECT_EQ(ran.load(), 1);
  }
}

TEST(RunSweepTest, ResultsComeBackInSubmissionOrder) {
  // Later-submitted tasks finish first (they sleep less); the result slots
  // must still line up with submission order.
  const std::size_t n = 16;
  std::vector<std::function<StatusOr<std::size_t>()>> tasks;
  for (std::size_t i = 0; i < n; ++i) {
    tasks.push_back([i]() -> StatusOr<std::size_t> {
      std::this_thread::sleep_for(std::chrono::microseconds(200 * (n - i)));
      return i;
    });
  }
  std::vector<StatusOr<std::size_t>> results = RunSweep<std::size_t>(4, tasks);
  ASSERT_EQ(results.size(), n);
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_TRUE(results[i].ok()) << results[i].status().ToString();
    EXPECT_EQ(*results[i], i);
  }
}

TEST(RunSweepTest, SerialPathMatchesParallelPath) {
  std::vector<std::function<StatusOr<int>()>> tasks;
  for (int i = 0; i < 8; ++i) {
    tasks.push_back([i]() -> StatusOr<int> { return i * i; });
  }
  std::vector<StatusOr<int>> serial = RunSweep<int>(1, tasks);
  std::vector<StatusOr<int>> parallel = RunSweep<int>(4, tasks);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    ASSERT_TRUE(serial[i].ok());
    ASSERT_TRUE(parallel[i].ok());
    EXPECT_EQ(*serial[i], *parallel[i]);
  }
}

TEST(RunSweepTest, StatusFailuresStayInTheirSlot) {
  std::vector<std::function<StatusOr<int>()>> tasks;
  tasks.push_back([]() -> StatusOr<int> { return 1; });
  tasks.push_back(
      []() -> StatusOr<int> { return InternalError("point 1 exploded"); });
  tasks.push_back([]() -> StatusOr<int> { return 3; });
  std::vector<StatusOr<int>> results = RunSweep<int>(2, tasks);
  ASSERT_EQ(results.size(), 3u);
  EXPECT_TRUE(results[0].ok());
  ASSERT_FALSE(results[1].ok());
  EXPECT_NE(results[1].status().ToString().find("point 1 exploded"),
            std::string::npos);
  EXPECT_TRUE(results[2].ok());
}

TEST(RunSweepTest, ThrownExceptionsBecomeInternalStatus) {
  for (std::size_t jobs : {std::size_t{1}, std::size_t{4}}) {
    std::vector<std::function<StatusOr<int>()>> tasks;
    tasks.push_back([]() -> StatusOr<int> { return 7; });
    tasks.push_back([]() -> StatusOr<int> {
      throw std::runtime_error("boom");
    });
    std::vector<StatusOr<int>> results = RunSweep<int>(jobs, tasks);
    ASSERT_EQ(results.size(), 2u);
    EXPECT_TRUE(results[0].ok());
    ASSERT_FALSE(results[1].ok());
    EXPECT_NE(results[1].status().ToString().find("boom"),
              std::string::npos);
  }
}

TEST(RunSweepTest, EmptySweepIsANoop) {
  std::vector<std::function<StatusOr<int>()>> tasks;
  EXPECT_TRUE(RunSweep<int>(4, tasks).empty());
}

TEST(RunSweepTest, ManyMoreTasksThanWorkers) {
  const std::size_t n = 200;
  std::atomic<int> ran{0};
  std::vector<std::function<StatusOr<int>()>> tasks;
  for (std::size_t i = 0; i < n; ++i) {
    tasks.push_back([&ran, i]() -> StatusOr<int> {
      ran.fetch_add(1);
      return static_cast<int>(i);
    });
  }
  std::vector<StatusOr<int>> results = RunSweep<int>(3, tasks);
  EXPECT_EQ(ran.load(), static_cast<int>(n));
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_TRUE(results[i].ok());
    EXPECT_EQ(*results[i], static_cast<int>(i));
  }
}

TEST(RunSweepTest, PoolIsReusableAcrossSweeps) {
  // One pool serving several RunSweep rounds (SweepRunner reuses its pool
  // this way): each round must see every slot filled and results in
  // submission order.
  ThreadPool pool(4);
  for (int round = 0; round < 3; ++round) {
    std::vector<std::function<StatusOr<int>()>> tasks;
    for (int i = 0; i < 12; ++i) {
      tasks.push_back(
          [round, i]() -> StatusOr<int> { return round * 100 + i; });
    }
    std::vector<StatusOr<int>> results = RunSweep<int>(&pool, tasks);
    ASSERT_EQ(results.size(), 12u);
    for (int i = 0; i < 12; ++i) {
      ASSERT_TRUE(results[i].ok());
      EXPECT_EQ(*results[i], round * 100 + i);
    }
  }
}

TEST(RunSweepTest, NullPoolRunsInline) {
  std::vector<std::function<StatusOr<std::thread::id>()>> tasks;
  tasks.push_back([]() -> StatusOr<std::thread::id> {
    return std::this_thread::get_id();
  });
  std::vector<StatusOr<std::thread::id>> results =
      RunSweep<std::thread::id>(nullptr, tasks);
  ASSERT_EQ(results.size(), 1u);
  ASSERT_TRUE(results[0].ok());
  EXPECT_EQ(*results[0], std::this_thread::get_id());
}

TEST(DefaultSweepWidthTest, BoundedByHardwareAndN) {
  EXPECT_EQ(DefaultSweepWidth(0), 1u);  // never 0
  EXPECT_EQ(DefaultSweepWidth(1), 1u);
  std::size_t hw = std::thread::hardware_concurrency();
  if (hw == 0) hw = 1;
  EXPECT_EQ(DefaultSweepWidth(1u << 20), hw);
}

}  // namespace
}  // namespace mmdb

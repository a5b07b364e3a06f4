// Work-stealing executor stress suite — designed to run under the TSan CI
// job (every `unit`-labelled test does). Covers the contract corners the
// serving front-end and the sweep orchestrator lean on: external producers
// racing worker stealers, spawn-from-task, recursive fork/join via helping
// get(), exception propagation, and drain-on-destruction while busy.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "jobs/executor.hpp"
#include "jobs/sweep.hpp"
#include "jobs/work_deque.hpp"

namespace hours::jobs {
namespace {

TEST(WorkDeque, OwnerPushPopIsLifo) {
  WorkDeque<int> deque;
  int items[3] = {1, 2, 3};
  for (auto& item : items) deque.push(&item);
  EXPECT_EQ(deque.pop(), &items[2]);
  EXPECT_EQ(deque.pop(), &items[1]);
  EXPECT_EQ(deque.pop(), &items[0]);
  EXPECT_EQ(deque.pop(), nullptr);
}

TEST(WorkDeque, StealTakesOldestAndGrowthPreservesItems) {
  WorkDeque<int> deque{8};
  std::vector<int> items(100);
  for (auto& item : items) deque.push(&item);  // forces several growths
  EXPECT_EQ(deque.steal(), &items[0]);
  EXPECT_EQ(deque.steal(), &items[1]);
  EXPECT_EQ(deque.pop(), &items[99]);
  int seen = 0;
  while (deque.pop() != nullptr || deque.steal() != nullptr) ++seen;
  EXPECT_EQ(seen, 97);
}

TEST(WorkDeque, ProducersNeverLoseItemsToConcurrentThieves) {
  // One owner pushes/pops, 3 thieves steal: every pushed pointer must be
  // taken exactly once. Run enough items that growth and last-element
  // races both happen.
  constexpr int kItems = 20'000;
  WorkDeque<std::uint64_t> deque{8};
  std::vector<std::uint64_t> values(kItems);
  std::atomic<std::uint64_t> taken_sum{0};
  std::atomic<int> taken_count{0};
  std::atomic<bool> done{false};

  std::vector<std::thread> thieves;
  for (int t = 0; t < 3; ++t) {
    thieves.emplace_back([&] {
      while (!done.load(std::memory_order_acquire)) {
        if (std::uint64_t* v = deque.steal()) {
          taken_sum.fetch_add(*v, std::memory_order_relaxed);
          taken_count.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  std::uint64_t expected_sum = 0;
  for (int i = 0; i < kItems; ++i) {
    values[static_cast<std::size_t>(i)] = static_cast<std::uint64_t>(i) + 1;
    expected_sum += static_cast<std::uint64_t>(i) + 1;
    deque.push(&values[static_cast<std::size_t>(i)]);
    if (i % 3 == 0) {
      if (std::uint64_t* v = deque.pop()) {
        taken_sum.fetch_add(*v, std::memory_order_relaxed);
        taken_count.fetch_add(1, std::memory_order_relaxed);
      }
    }
  }
  // Owner drains what the thieves have not taken yet.
  for (;;) {
    std::uint64_t* v = deque.pop();
    if (v == nullptr) {
      if (taken_count.load(std::memory_order_acquire) == kItems) break;
      continue;  // a thief holds the last element or a race was lost — retry
    }
    taken_sum.fetch_add(*v, std::memory_order_relaxed);
    taken_count.fetch_add(1, std::memory_order_relaxed);
  }
  done.store(true, std::memory_order_release);
  for (auto& thief : thieves) thief.join();
  EXPECT_EQ(taken_count.load(), kItems);
  EXPECT_EQ(taken_sum.load(), expected_sum);
}

TEST(Executor, ExternalProducersAndWorkerStealers) {
  // N external producers × M workers hammering the injection queue and the
  // deques; every task must run exactly once.
  constexpr int kProducers = 8;
  constexpr int kTasksPerProducer = 500;
  Executor executor{4};
  std::atomic<int> ran{0};
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&executor, &ran] {
      for (int i = 0; i < kTasksPerProducer; ++i) {
        auto unused = executor.submit([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
        (void)unused;
      }
    });
  }
  for (auto& producer : producers) producer.join();
  executor.wait_idle();
  EXPECT_EQ(ran.load(), kProducers * kTasksPerProducer);
}

TEST(Executor, SpawnFromTaskRunsEntireTree) {
  // Tasks spawn subtasks (degree 3, depth 6) from inside workers; the
  // drain must count the whole tree: (3^7 - 1) / 2 = 1093.
  Executor executor{4};
  std::atomic<int> ran{0};
  std::function<void(int)> spawn = [&](int depth) {
    ran.fetch_add(1, std::memory_order_relaxed);
    if (depth == 0) return;
    for (int i = 0; i < 3; ++i) {
      auto unused = executor.submit([&spawn, depth] { spawn(depth - 1); });
      (void)unused;
    }
  };
  auto root = executor.submit([&spawn] { spawn(6) ; });
  root.get();
  executor.wait_idle();
  EXPECT_EQ(ran.load(), 1093);
}

int sequential_fib(int n) { return n < 2 ? n : sequential_fib(n - 1) + sequential_fib(n - 2); }

int parallel_fib(Executor& executor, int n) {
  if (n < 10) return sequential_fib(n);
  auto left = executor.submit([&executor, n] { return parallel_fib(executor, n - 1); });
  const int right = parallel_fib(executor, n - 2);
  return left.get() + right;  // get() on a worker helps instead of blocking
}

TEST(Executor, RecursiveForkJoinViaHelpingGet) {
  Executor executor{4};
  auto root = executor.submit([&executor] { return parallel_fib(executor, 20); });
  EXPECT_EQ(root.get(), 6765);
}

TEST(Executor, ExceptionPropagatesThroughGet) {
  Executor executor{2};
  auto failing = executor.submit([]() -> int { throw std::runtime_error{"task failed"}; });
  EXPECT_THROW(
      {
        try {
          (void)failing.get();
        } catch (const std::runtime_error& e) {
          EXPECT_STREQ(e.what(), "task failed");
          throw;
        }
      },
      std::runtime_error);
  // The pool survives a throwing task.
  auto ok = executor.submit([] { return 7; });
  EXPECT_EQ(ok.get(), 7);
}

TEST(Executor, ExceptionFromSpawnedChildPropagatesToSweepCaller) {
  Executor executor{4};
  EXPECT_THROW(
      (void)sweep<int>(executor, 1, 16,
                       [](std::size_t index, rng::Xoshiro256&) -> int {
                         if (index == 11) throw std::runtime_error{"seed 11"};
                         return static_cast<int>(index);
                       }),
      std::runtime_error);
  executor.wait_idle();  // nothing dangling after the throw
}

TEST(Executor, ShutdownWhileBusyDrainsEverything) {
  std::atomic<int> ran{0};
  constexpr int kTasks = 200;
  {
    Executor executor{3};
    for (int i = 0; i < kTasks; ++i) {
      auto unused = executor.submit([&executor, &ran, i] {
        ran.fetch_add(1, std::memory_order_relaxed);
        if (i % 10 == 0) {
          // Children submitted while the destructor may already be waiting.
          auto child = executor.submit([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
          (void)child;
        }
      });
      (void)unused;
    }
    // Destructor runs here with tasks still queued: it must drain, not drop.
  }
  EXPECT_EQ(ran.load(), kTasks + kTasks / 10);
}

TEST(Executor, WaitIdleFromWorkerHelps) {
  Executor executor{2};
  std::atomic<int> ran{0};
  auto root = executor.submit([&executor, &ran] {
    for (int i = 0; i < 50; ++i) {
      auto unused = executor.submit([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
      (void)unused;
    }
    executor.wait_idle();  // called on a worker: must help, not deadlock
    return ran.load(std::memory_order_acquire);
  });
  EXPECT_EQ(root.get(), 50);
}

TEST(Sweep, TaskRngIsAPureFunctionOfSeedAndIndex) {
  auto a = task_rng(42, 7);
  auto b = task_rng(42, 7);
  EXPECT_EQ(a(), b());
  auto c = task_rng(42, 8);
  auto d = task_rng(43, 7);
  auto fresh = task_rng(42, 7);
  const auto baseline = fresh();
  EXPECT_NE(c(), baseline);
  EXPECT_NE(d(), baseline);
}

TEST(Sweep, ResultsAreThreadCountInvariant) {
  const auto draw = [](std::size_t index, rng::Xoshiro256& rng) {
    return std::to_string(index) + ":" + std::to_string(rng());
  };
  Executor one{1};
  Executor four{4};
  const auto serial = sweep<std::string>(one, 99, 64, draw);
  const auto parallel = sweep<std::string>(four, 99, 64, draw);
  EXPECT_EQ(serial, parallel);
}

}  // namespace
}  // namespace hours::jobs

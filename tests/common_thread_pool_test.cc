// Unit tests for src/common/thread_pool: deterministic ParallelFor
// chunking and RunDagTasks' ready-set execution.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <mutex>
#include <vector>

#include "common/thread_pool.h"

namespace ppc {
namespace {

TEST(ParallelForTest, CoversEveryIndexExactlyOnce) {
  const size_t n = 1000;
  std::vector<std::atomic<int>> hits(n);
  ParallelFor(
      n, 4,
      [&hits](size_t begin, size_t end) {
        for (size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
      },
      /*min_items=*/1);
  for (size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ParallelForTest, ChunkingIsDeterministic) {
  // Same (n, num_threads) must yield the same chunk boundaries: record
  // them twice and compare.
  auto record = [](size_t n, size_t threads) {
    std::vector<std::pair<size_t, size_t>> chunks;
    std::mutex mutex;
    ParallelFor(
        n, threads,
        [&](size_t begin, size_t end) {
          std::lock_guard<std::mutex> lock(mutex);
          chunks.emplace_back(begin, end);
        },
        /*min_items=*/1);
    std::sort(chunks.begin(), chunks.end());
    return chunks;
  };
  EXPECT_EQ(record(103, 4), record(103, 4));
  auto chunks = record(103, 4);
  ASSERT_EQ(chunks.size(), 4u);
  // Contiguous cover of [0, 103).
  EXPECT_EQ(chunks.front().first, 0u);
  EXPECT_EQ(chunks.back().second, 103u);
  for (size_t c = 1; c < chunks.size(); ++c) {
    EXPECT_EQ(chunks[c].first, chunks[c - 1].second);
  }
}

TEST(ParallelForTest, SmallLoopsRunInline) {
  // Below min_items the body must run once over the whole range (on the
  // calling thread).
  std::vector<std::pair<size_t, size_t>> calls;
  ParallelFor(
      10, 8,
      [&calls](size_t begin, size_t end) { calls.emplace_back(begin, end); },
      /*min_items=*/100);
  ASSERT_EQ(calls.size(), 1u);
  EXPECT_EQ(calls[0], (std::pair<size_t, size_t>{0, 10}));
}

TEST(ParallelForTest, EmptyRangeIsANoOp) {
  bool called = false;
  ParallelFor(
      0, 4, [&called](size_t, size_t) { called = true; }, 1);
  EXPECT_FALSE(called);
}

TEST(RunDagTasksTest, RespectsDependencies) {
  // Diamond: 0 -> {1, 2} -> 3. Completion times must honor the edges no
  // matter how workers interleave.
  std::atomic<int> clock{0};
  std::vector<int> finished(4, -1);
  std::vector<std::function<Status()>> tasks;
  for (int i = 0; i < 4; ++i) {
    tasks.push_back([&clock, &finished, i]() -> Status {
      finished[i] = clock.fetch_add(1);
      return Status::OK();
    });
  }
  std::vector<std::vector<uint32_t>> deps = {{}, {0}, {0}, {1, 2}};
  ASSERT_TRUE(RunDagTasks(std::move(tasks), deps, 4).ok());
  EXPECT_LT(finished[0], finished[1]);
  EXPECT_LT(finished[0], finished[2]);
  EXPECT_LT(finished[1], finished[3]);
  EXPECT_LT(finished[2], finished[3]);
}

TEST(RunDagTasksTest, FailureSkipsUnstartedWork) {
  std::atomic<int> ran{0};
  std::vector<std::function<Status()>> tasks;
  tasks.push_back([]() -> Status { return Status::Internal("boom"); });
  tasks.push_back([&ran]() -> Status {
    ran.fetch_add(1);
    return Status::OK();
  });
  std::vector<std::vector<uint32_t>> deps = {{}, {0}};
  Status status = RunDagTasks(std::move(tasks), deps, 4);
  EXPECT_EQ(status.code(), StatusCode::kInternal);
  EXPECT_EQ(status.message(), "boom");
  EXPECT_EQ(ran.load(), 0);
}

TEST(RunDagTasksTest, SingleWorkerRunsCanonicalOrder) {
  std::vector<int> order;
  std::vector<std::function<Status()>> tasks;
  for (int i = 0; i < 6; ++i) {
    tasks.push_back([&order, i]() -> Status {
      order.push_back(i);
      return Status::OK();
    });
  }
  std::vector<std::vector<uint32_t>> deps(6);
  deps[3] = {1};
  deps[5] = {4, 2};
  ASSERT_TRUE(RunDagTasks(std::move(tasks), deps, 1).ok());
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5}));
}

TEST(RunDagTasksTest, RejectsForwardDependencies) {
  std::vector<std::function<Status()>> tasks(2, []() -> Status {
    return Status::OK();
  });
  std::vector<std::vector<uint32_t>> deps = {{1}, {}};
  EXPECT_EQ(RunDagTasks(std::move(tasks), deps, 2).code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace ppc

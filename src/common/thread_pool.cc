#include "common/thread_pool.h"

#include <algorithm>
#include <set>
#include <thread>

#include "common/thread_annotations.h"

namespace ppc {

void ParallelFor(size_t n, size_t num_threads,
                 const std::function<void(size_t, size_t)>& body,
                 size_t min_items) {
  if (n == 0) return;
  size_t chunks = std::min(std::max<size_t>(1, num_threads), n);
  if (chunks == 1 || n < min_items) {
    body(0, n);
    return;
  }
  // Contiguous chunks of near-equal size; the first (n % chunks) chunks get
  // one extra item. The caller runs chunk 0 while transient threads run the
  // rest.
  std::vector<std::thread> threads;
  threads.reserve(chunks - 1);
  size_t base = n / chunks, extra = n % chunks;
  size_t begin = base + (extra > 0 ? 1 : 0);  // Chunk 0 is the caller's.
  for (size_t c = 1; c < chunks; ++c) {
    size_t size = base + (c < extra ? 1 : 0);
    threads.emplace_back(
        [&body, begin, size] { body(begin, begin + size); });
    begin += size;
  }
  body(0, base + (extra > 0 ? 1 : 0));
  for (std::thread& t : threads) t.join();
}

Status RunDagTasks(std::vector<std::function<Status()>> tasks,
                   const std::vector<std::vector<uint32_t>>& deps,
                   size_t num_threads) {
  const size_t n = tasks.size();
  if (deps.size() != n) {
    return Status::InvalidArgument("RunDagTasks: tasks/deps size mismatch");
  }
  for (size_t i = 0; i < n; ++i) {
    for (uint32_t dep : deps[i]) {
      if (dep >= i) {
        return Status::InvalidArgument(
            "RunDagTasks: dependencies must point strictly backward");
      }
    }
  }
  if (n == 0) return Status::OK();

  if (num_threads <= 1) {
    // Backward-pointing deps make index order a topological order, so the
    // inline run needs no bookkeeping at all.
    for (size_t i = 0; i < n; ++i) {
      PPC_RETURN_IF_ERROR(tasks[i]());
    }
    return Status::OK();
  }

  std::vector<size_t> indegree(n, 0);
  std::vector<std::vector<uint32_t>> children(n);
  for (size_t i = 0; i < n; ++i) {
    indegree[i] = deps[i].size();
    for (uint32_t dep : deps[i]) {
      children[dep].push_back(static_cast<uint32_t>(i));
    }
  }

  // The scheduler state below is all guarded by `mutex` (locals cannot
  // carry GUARDED_BY, but every access happens inside the MutexLock
  // scope or between its Lock/Unlock pairs).
  Mutex mutex;
  CondVar wake;
  std::set<uint32_t> ready;  // Ordered: workers pick the lowest index.
  size_t outstanding = n;
  bool aborted = false;
  size_t first_failed = n;
  Status failure = Status::OK();
  for (size_t i = 0; i < n; ++i) {
    if (indegree[i] == 0) ready.insert(static_cast<uint32_t>(i));
  }

  auto worker = [&] {
    MutexLock lock(mutex);
    for (;;) {
      while (!aborted && outstanding != 0 && ready.empty()) wake.Wait(mutex);
      if (aborted || outstanding == 0) return;
      uint32_t id = *ready.begin();
      ready.erase(ready.begin());
      lock.Unlock();
      Status status = tasks[id]();
      lock.Lock();
      if (!status.ok()) {
        if (id < first_failed) {
          first_failed = id;
          failure = std::move(status);
        }
        aborted = true;  // Skip everything not yet started.
      }
      --outstanding;
      for (uint32_t child : children[id]) {
        if (--indegree[child] == 0) ready.insert(child);
      }
      wake.NotifyAll();
    }
  };

  std::vector<std::thread> threads;
  const size_t worker_count = std::min(num_threads, n);
  threads.reserve(worker_count);
  for (size_t t = 0; t < worker_count; ++t) threads.emplace_back(worker);
  for (std::thread& thread : threads) thread.join();
  return failure;
}

}  // namespace ppc

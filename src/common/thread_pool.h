#ifndef PPC_COMMON_THREAD_POOL_H_
#define PPC_COMMON_THREAD_POOL_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/status.h"

namespace ppc {

/// Runs `body(begin, end)` over a partition of [0, n) across up to
/// `num_threads` transient threads (the caller executes the first chunk).
/// Chunk boundaries depend only on (n, num_threads), so any computation
/// whose chunks are order-independent is bit-identical to the sequential
/// run. Falls back to a single inline call when `num_threads <= 1`,
/// `n <= 1`, or `n < min_items` (thread spawn costs more than tiny loops
/// save). Transient threads, rather than borrowed workers, mean a caller
/// that is itself a `RunDagTasks` worker can never deadlock on its own
/// chunks.
void ParallelFor(size_t n, size_t num_threads,
                 const std::function<void(size_t, size_t)>& body,
                 size_t min_items = 2048);

/// Ready-set execution of a dependency graph: task `i` starts only after
/// every task in `deps[i]` completed successfully. Dependencies must point
/// strictly backward (`deps[i]` < i), which both guarantees acyclicity and
/// makes index order a valid topological order.
///
/// With `num_threads <= 1` tasks run inline in index order (deterministic;
/// the first failure is returned immediately). With more threads, workers
/// repeatedly pick the lowest-index ready task; tasks must not block on
/// other *queued* tasks (the schedule graph's data edges are what
/// discharges that obligation for protocol receives). On a failure no new
/// task is started — in-flight tasks finish, the rest are skipped — and
/// the recorded failure with the smallest task index is returned.
Status RunDagTasks(std::vector<std::function<Status()>> tasks,
                   const std::vector<std::vector<uint32_t>>& deps,
                   size_t num_threads);

}  // namespace ppc

#endif  // PPC_COMMON_THREAD_POOL_H_

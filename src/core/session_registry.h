#ifndef PPC_CORE_SESSION_REGISTRY_H_
#define PPC_CORE_SESSION_REGISTRY_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "net/network.h"
#include "net/session_network.h"

namespace ppc {

/// The entropy seed for one party's run of session `session`: the first 8
/// bytes (little-endian) of SHA-256("ppc-session-entropy:" ‖ entropy_seed
/// as 8 little-endian bytes ‖ session). A resident party that seeded every
/// session alike would send the same DH key pair, and so derive the same
/// pair seeds and mask streams, in every session; keying the seed by
/// session id gives each session its own keys while a fixed
/// (entropy_seed, session) stays reproducible. Outcomes do not depend on
/// the masks, so they are unchanged.
uint64_t SessionEntropySeed(uint64_t entropy_seed, const std::string& session);

/// Runs N concurrent logical clustering sessions over one shared
/// transport. Each started session gets its own `SessionNetwork` view
/// (binding its id over the shared `Network`) and its own worker thread
/// running the caller's body — typically a `PartyRunner` role or a full
/// `ClusteringSession` — so many schedule-graph executions proceed at
/// once while every frame crosses the same pooled, authenticated
/// connections.
///
/// Session ids are single-use per registry: a duplicate (or empty — that
/// is the transport's default session) id is refused. The registry owns
/// the views and threads; the caller guarantees the transport and
/// whatever state the bodies capture outlive it. All methods are
/// thread-safe.
class SessionRegistry {
 public:
  /// One session's whole execution, handed its session-scoped network
  /// and the registry's per-session cancellation token. Bodies that run
  /// protocol parties should bind the token (`BindCancelToken`) so
  /// `CancelSession`/`CancelAll` (and an armed deadline) can unwedge
  /// their blocking receives; bodies that ignore it remain correct, just
  /// not promptly cancellable. The returned status is the session's
  /// outcome (see `WaitSession`).
  using SessionBody = std::function<Status(Network* session_net,
                                           CancelToken* cancel)>;

  explicit SessionRegistry(Network* transport) : transport_(transport) {}

  /// Joins every session still running.
  ~SessionRegistry() { (void)WaitAll(); }

  SessionRegistry(const SessionRegistry&) = delete;
  SessionRegistry& operator=(const SessionRegistry&) = delete;

  /// Starts session `id` on its own thread. kInvalidArgument on an empty
  /// id, kAlreadyExists on a reused one (even after it finished — a
  /// session id names one protocol execution, ever).
  Status StartSession(const std::string& id, SessionBody body)
      EXCLUDES(mutex_);

  /// Blocks until session `id` finishes and returns its body's status
  /// (kNotFound for an id never started). Safe to call repeatedly and
  /// concurrently.
  Status WaitSession(const std::string& id) EXCLUDES(mutex_);

  /// Waits for every session; returns the first non-OK session status (in
  /// session-id order), decorated with the session id.
  Status WaitAll() EXCLUDES(mutex_);

  /// Trips session `id`'s cancel token with `reason` (an OK reason is
  /// coerced to a generic cancellation error). The session's blocking
  /// receives and step boundaries surface the reason within one poll
  /// slice; its worker then finishes with that status and releases the
  /// session's queues and channel state (see the worker's purge).
  /// kNotFound for an id never started. Does not block; pair with
  /// `WaitSession` to observe the actual termination.
  Status CancelSession(const std::string& id, Status reason) EXCLUDES(mutex_);

  /// `CancelSession` for every session not yet finished.
  void CancelAll(Status reason) EXCLUDES(mutex_);

  /// Sessions started and not yet finished.
  size_t ActiveCount() const EXCLUDES(mutex_);

  /// Every session id ever started, in id order.
  std::vector<std::string> SessionIds() const EXCLUDES(mutex_);

 private:
  struct Entry {
    std::unique_ptr<SessionNetwork> view;
    /// Cancellation/deadline token of this session; handed to the body
    /// and tripped by `CancelSession`/`CancelAll`.
    CancelToken token;
    Mutex join_mutex;  // Serializes the one join; guards the thread handle.
    std::thread worker GUARDED_BY(join_mutex);
    /// NOT lock-guarded on purpose: the worker writes it, and exactly the
    /// threads that have joined the worker (under join_mutex) read it —
    /// join() is the happens-before edge. Putting it under join_mutex
    /// would tempt a worker-side lock, which deadlocks against Join
    /// holding join_mutex across the join.
    Status result;  // Valid once done is true.
    std::atomic<bool> done{false};
  };

  /// Joins `entry`'s worker exactly once and returns its result.
  static Status Join(Entry* entry) EXCLUDES(entry->join_mutex);

  Network* transport_;
  mutable Mutex mutex_;
  /// Entries are never erased while the registry lives, so bare pointers
  /// taken under the lock stay valid after it is released.
  std::map<std::string, std::unique_ptr<Entry>> entries_ GUARDED_BY(mutex_);
};

}  // namespace ppc

#endif  // PPC_CORE_SESSION_REGISTRY_H_

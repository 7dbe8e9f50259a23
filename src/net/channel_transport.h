#ifndef PPC_NET_CHANNEL_TRANSPORT_H_
#define PPC_NET_CHANNEL_TRANSPORT_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "net/message.h"
#include "net/network.h"
#include "net/secure_channel.h"

namespace ppc {

/// Shared machinery for `Network` backends that deliver frames into
/// per-receiver FIFO queues with per-directed-channel accounting — which
/// is every backend in the tree. One implementation of the
/// contract-critical paths (session demultiplexing, blocking `Receive`
/// with timeout and strict topic checking, pending counts, stats
/// aggregation and reset, tap fan-out, `SecureChannel` seal/open) keeps
/// the in-memory simulator and the TCP transport behaviorally identical
/// by construction; the transport-conformance suite then only has to
/// catch divergence in what subclasses add: party registration and frame
/// routing (`RegisterParty`, `SendOn`, `InjectFrameOn`, `HasParty`).
///
/// Sessions: every directed channel is keyed `(session, from, to)` — its
/// own FIFO queue, counters, nonce counter, and crypto context (keys
/// derived per session, see `SecureChannel::ChannelKey`). The default
/// session is the pre-multiplexing transport, bit-for-bit.
class ChannelTransport : public Network {
 public:
  // -- The shared half of the Network core ----------------------------------

  /// The real blocking receive of every queue-based backend: waits on its
  /// own `(session, from)` queue only — a frame wakes just the receive it
  /// is for — in short slices, re-checking `cancel` (when non-null) each
  /// wake, so a cancelled or deadline-expired session unblocks in at most
  /// one slice. Every failure carries the session, channel, and topic in
  /// its message (see `Network::ReceiveOn` for the codes).
  Result<Message> ReceiveOn(const std::string& session, const std::string& to,
                            const std::string& from,
                            const std::string& expected_topic = "",
                            const CancelToken* cancel = nullptr) override
      EXCLUDES(registry_mutex_);

  /// Frees every trace of `session`: its directed channels (counters,
  /// nonce counters, crypto contexts) and its queued undelivered frames
  /// at every endpoint. Walks only the session's key range. A queue with a
  /// blocked receiver is emptied and woken, and its last waiter removes
  /// it on the way out. Callers must only purge retired session ids — a
  /// later send on a purged session re-derives keys with a fresh nonce
  /// counter, so reusing the id would reuse (key, nonce) pairs.
  void PurgeSession(const std::string& session) override
      EXCLUDES(registry_mutex_);

  void set_receive_timeout(std::chrono::milliseconds timeout) override {
    receive_timeout_.store(timeout.count(), std::memory_order_relaxed);
  }
  std::chrono::milliseconds receive_timeout() const override {
    return std::chrono::milliseconds(
        receive_timeout_.load(std::memory_order_relaxed));
  }

  /// Given a session, walks only that session's queues.
  size_t PendingCountOn(const std::optional<std::string>& session,
                        const std::string& to) const override
      EXCLUDES(registry_mutex_);
  /// One filtered walk of the ordered channel map: given a session (and
  /// sender), only that key range; an exact (session, from, to) is a
  /// single lookup.
  ChannelStats StatsOn(const std::optional<std::string>& session,
                       const std::optional<std::string>& from,
                       const std::optional<std::string>& to) const override
      EXCLUDES(registry_mutex_);
  void ResetStats() override EXCLUDES(registry_mutex_);
  void AddTapOn(const std::optional<std::string>& session,
                const std::string& from, const std::string& to,
                Tap tap) override EXCLUDES(tap_mutex_);

  /// Test hook for the nonce-exhaustion contract: pins the nonce counter
  /// of the `(session, from, to)` channel (created on first use) so a
  /// test can reach the end of the nonce space without sending 2^64
  /// frames. kFailedPrecondition on a plaintext transport, which has no
  /// nonces.
  Status SetNonceCounterForTesting(const std::string& session,
                                   const std::string& from,
                                   const std::string& to, uint64_t value)
      EXCLUDES(registry_mutex_);

  /// Test hook for the queue-lifetime contract: how many `(session,
  /// sender)` queue entries `to`'s endpoint holds (0 if unregistered).
  size_t QueueCountForTesting(const std::string& to) const
      EXCLUDES(registry_mutex_);

 protected:
  explicit ChannelTransport(TransportSecurity security);

  /// One `(session, sending peer)` FIFO at a receiver, with its own wait:
  /// a frame wakes only the receive blocked on this queue, and only when
  /// there is one. Guarded by its endpoint's mutex. Its entry exists only
  /// while it holds frames or has a waiter, so neither a drained channel
  /// nor a purged session leaves one behind.
  struct Queue {
    std::deque<Message> frames;
    CondVar arrival;
    int waiters = 0;
  };

  /// Keyed by (session, sender). Shared so a sender can notify after
  /// dropping the mutex — the woken receiver then takes it uncontended —
  /// even if the drained entry is erased in between.
  using QueueMap =
      std::map<std::pair<std::string, std::string>, std::shared_ptr<Queue>>;

  /// One receiver: its queues, guarded by one mutex.
  struct Endpoint {
    mutable Mutex mutex;
    QueueMap queues GUARDED_BY(mutex);
  };

  /// Per-directed-channel counters. Plain atomics: senders on the same
  /// channel bump them without taking any lock. The nonce counter survives
  /// ResetStats() so no (key, nonce) pair is ever reused.
  struct ChannelState {
    std::atomic<uint64_t> messages{0};
    std::atomic<uint64_t> payload_bytes{0};
    std::atomic<uint64_t> wire_bytes{0};
    std::atomic<uint64_t> nonce_counter{0};
    /// Cached seal/open context (derived subkeys, AES key schedule, HMAC
    /// midstates), created with the channel on an authenticated-encryption
    /// transport; null on plaintext transports. Immutable once built, so
    /// concurrent Seal/Open need no lock.
    std::unique_ptr<SecureChannel::Context> crypto;
    /// "from->to" (default session) or "from->to#session", cached so
    /// per-frame error decoration costs nothing.
    std::string name;
  };

  /// (session, from, to) — the identity of one directed channel.
  using ChannelKey = std::tuple<std::string, std::string, std::string>;

  /// Registry lookup (takes registry_mutex_): endpoint for `name`, or
  /// nullptr. Endpoint and ChannelState objects are heap-allocated, so
  /// returned pointers stay valid after the lock is released: an Endpoint
  /// for the transport's lifetime, a ChannelState until `PurgeSession`
  /// erases its session.
  Endpoint* FindEndpoint(const std::string& name) const
      EXCLUDES(registry_mutex_);

  /// As `FindEndpoint`, requiring registry_mutex_ held — the one lookup
  /// both it and `ResolveReceive` share.
  Endpoint* FindEndpointLocked(const std::string& name) const
      REQUIRES(registry_mutex_);

  /// The channel state for `from` -> `to` on `session`, created on first
  /// use (including its crypto context, so the key derivation cost is
  /// paid exactly once per directed channel).
  ChannelState* ChannelForLocked(const std::string& session,
                                 const std::string& from, const std::string& to)
      REQUIRES(registry_mutex_);

  /// One registry-locked lookup for the whole receive path: the endpoint
  /// for `to` (nullptr if unregistered) and, when `channel` is non-null,
  /// the session's `from` -> `to` channel state if that channel already
  /// exists (never created here — a fruitless Receive must leave no state
  /// behind). Returned pointers stay valid as `FindEndpoint`'s do.
  Endpoint* ResolveReceive(const std::string& session, const std::string& to,
                           const std::string& from, ChannelState** channel)
      EXCLUDES(registry_mutex_);

  /// Registry-locked create-on-use lookup of the session's `from` -> `to`
  /// channel — the receive-side counterpart of the state `PrepareFrame`
  /// gets handed; called once per channel, for the first frame that
  /// actually arrives.
  ChannelState* ChannelFor(const std::string& session, const std::string& from,
                           const std::string& to) EXCLUDES(registry_mutex_);

  /// Send-side frame preparation, identical across backends: seals the
  /// payload under the directed channel's key (pass-through on a
  /// plaintext transport), bumps the channel's traffic counters, and
  /// fires taps with exactly the on-wire bytes. Refuses with
  /// kResourceExhausted once the channel's nonce space is spent (2^64-1
  /// frames) — a nonce must never be reused. Runs outside every lock
  /// except the tap serialization.
  Result<std::string> PrepareFrame(const std::string& session,
                                   const std::string& from,
                                   const std::string& to,
                                   const std::string& topic,
                                   const std::string& payload,
                                   ChannelState* channel)
      EXCLUDES(tap_mutex_);

  /// Enqueues `message` at `endpoint` (under its session/sender queue) and
  /// wakes the receiver blocked on that queue, if any.
  static void DeliverLocal(Endpoint* endpoint, Message message);

  /// `DeliverLocal`'s enqueue, with the endpoint's mutex held. Returns the
  /// queue to notify once the mutex is dropped when a receiver waits on
  /// it, else null.
  static std::shared_ptr<Queue> EnqueueLocked(Endpoint* endpoint,
                                              Message message)
      REQUIRES(endpoint->mutex);

  /// Guards the *structure* of parties_ / channels_ (and any registry
  /// state a subclass keeps alongside them, e.g. remote addresses).
  mutable Mutex registry_mutex_;
  std::map<std::string, std::unique_ptr<Endpoint>> parties_
      GUARDED_BY(registry_mutex_);
  std::map<ChannelKey, std::unique_ptr<ChannelState>> channels_
      GUARDED_BY(registry_mutex_);

 private:
  /// The `(session, from)` queue entry at `endpoint`, created if absent.
  static QueueMap::iterator QueueEntryLocked(Endpoint* endpoint,
                                             const std::string& session,
                                             const std::string& from)
      REQUIRES(endpoint->mutex);

  /// One registered eavesdropper: fires for the frames of its channel on
  /// `session`, or on every session when absent.
  struct TapEntry {
    std::optional<std::string> session;
    Tap tap;
  };

  std::string master_key_;  // Root of per-channel transport keys.

  /// Guards tap registration (tap invocation snapshots under the lock
  /// and fires outside it).
  mutable Mutex tap_mutex_;
  std::map<std::pair<std::string, std::string>, std::vector<TapEntry>> taps_
      GUARDED_BY(tap_mutex_);

  std::atomic<int64_t> receive_timeout_{0};  // Milliseconds.
};

}  // namespace ppc

#endif  // PPC_NET_CHANNEL_TRANSPORT_H_

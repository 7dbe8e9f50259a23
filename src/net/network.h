#ifndef PPC_NET_NETWORK_H_
#define PPC_NET_NETWORK_H_

#include <chrono>
#include <cstddef>
#include <functional>
#include <optional>
#include <string>
#include <utility>

#include "common/cancellation.h"
#include "common/result.h"
#include "common/status.h"
#include "net/message.h"

namespace ppc {

/// Transport security of the links between parties.
enum class TransportSecurity {
  /// Frames carry the plaintext payload; an eavesdropper sees everything.
  /// This reproduces the *insecure channel* setting of the paper's Sec. 4.1
  /// inference discussion.
  kPlaintext,
  /// Frames are AES-128-CTR encrypted and HMAC-SHA-256 authenticated under
  /// a per-directed-channel key (modeling TLS between sites), which is the
  /// paper's "channels must be secured" requirement.
  kAuthenticatedEncryption,
};

/// Abstract point-to-point message transport between named parties.
///
/// This is the seam between the protocol stack and the deployment: the
/// paper's k data-holder sites plus the third party exchange point-to-point
/// messages, and everything in `src/core` (parties, session drivers) talks
/// only to this interface. Two backends ship with the library:
///
///   * `InMemoryNetwork` — all parties in one process; deterministic,
///     zero-latency, the simulator every experiment runs on.
///   * `TcpNetwork` — parties spread over OS processes/machines, frames
///     carried over TCP sockets.
///
/// The core. Every virtual is keyed by session: N concurrent logical
/// clustering sessions share one transport (and, on TCP, one authenticated
/// physical connection per party pair), and each directed channel
/// `(session, from, to)` is its own FIFO stream with its own traffic
/// counters, nonce counter and (on secured transports) derived
/// `SecureChannel` keys, so a frame sealed on one session never verifies on
/// another. Send, receive and inject name one session; the stats,
/// pending-count and tap queries take an optional session, where
/// `std::nullopt` means every session.
///
/// The binding. The plain spellings (`Send`, `Receive`, `StatsFor`,
/// `PendingCount`, `AddTap`, ...) are non-virtual helpers that resolve
/// their session through one binding fixed at construction:
///
///   * A transport is unbound. Send, receive and inject use
///     `kDefaultSession` (the pre-multiplexing wire format, bit for bit);
///     stats, pending counts and taps aggregate over every session.
///   * A `SessionNetwork` view is bound to its session id, so the protocol
///     stack, which only knows the plain spellings, runs one whole session
///     scoped to it.
///
/// The `...On` spellings name the session explicitly and ignore the
/// binding. Registration, `ResetStats`, the receive timeout and `security`
/// are transport-global.
///
/// Contract shared by every implementation:
///
///   * Delivery is FIFO per directed channel within a session.
///   * `SendOn` accounts one message and its payload/wire byte counts on
///     the sending side before it returns; `ReceiveOn` verifies and
///     decrypts.
///   * With `TransportSecurity::kAuthenticatedEncryption` the on-wire frame
///     is nonce || AES-128-CTR ciphertext || truncated HMAC-SHA-256 MAC
///     under a per-directed-channel key (see `SecureChannel`), identical
///     across backends so captures and byte accounting are comparable.
///   * Taps observe exactly the on-wire bytes of every frame crossing
///     their channel, on the sending side.
///   * Delivery may be asynchronous (it is on TCP): the only guaranteed way
///     to observe a sent message is a receive with a nonzero timeout.
///
/// All methods are thread-safe; the concurrent protocol engine drives
/// several party steps at once.
class Network {
 public:
  /// Callback invoked for every frame crossing a tapped channel.
  using Tap = std::function<void(const WireFrame&)>;

  virtual ~Network();

  // -- The core -------------------------------------------------------------

  /// Registers a party name hosted by this transport endpoint. Fails with
  /// kAlreadyExists on duplicates and kInvalidArgument on empty names.
  virtual Status RegisterParty(const std::string& name) = 0;

  /// True iff `name` is known to this transport (hosted here, or — for
  /// distributed backends — reachable at a known remote address).
  virtual bool HasParty(const std::string& name) const = 0;

  /// Sends `payload` from `from` to `to` under `topic` on `session`.
  /// `from` must be hosted by this endpoint; unknown parties are kNotFound.
  virtual Status SendOn(const std::string& session, const std::string& from,
                        const std::string& to, const std::string& topic,
                        std::string payload) = 0;

  /// Receives the oldest pending message addressed to `to` from `from` on
  /// `session`; frames of other sessions are invisible. If
  /// `expected_topic` is non-empty, a topic mismatch is a protocol
  /// violation (the message is left queued). With a nonzero
  /// `receive_timeout`, an empty channel blocks until a message arrives,
  /// the timeout elapses, or `cancel` (when non-null) trips; it is polled
  /// while blocked, so a cancelled or deadline-expired session unblocks
  /// within one wait slice. Every failure names the session, the channel
  /// and the topic:
  ///   * token cancelled        -> the token's sticky reason
  ///   * token deadline passed  -> kDeadlineExceeded
  ///   * transport timeout      -> kUnavailable ("peer unreachable")
  ///   * zero-timeout empty     -> kNotFound (non-blocking probe)
  ///   * topic mismatch         -> kProtocolViolation
  virtual Result<Message> ReceiveOn(const std::string& session,
                                    const std::string& to,
                                    const std::string& from,
                                    const std::string& expected_topic = "",
                                    const CancelToken* cancel = nullptr) = 0;

  /// Fault-injection hook: delivers `wire_bytes` on `session` as if they
  /// had crossed the wire from `from` to `to` (no encryption, no
  /// accounting, no taps). Lets tests deliver tampered or replayed frames
  /// to exercise the receiver's integrity checks. Not used by the
  /// protocols themselves.
  virtual Status InjectFrameOn(const std::string& session,
                               const std::string& from, const std::string& to,
                               const std::string& topic,
                               std::string wire_bytes) = 0;

  /// How long a receive waits for a message on an empty channel. Zero
  /// means non-blocking; distributed backends need a nonzero timeout for
  /// any cross-process receive.
  virtual void set_receive_timeout(std::chrono::milliseconds timeout) = 0;
  virtual std::chrono::milliseconds receive_timeout() const = 0;

  /// Undelivered messages addressed to the locally hosted party `to` (0
  /// for parties not hosted here) on `session`, or on every session.
  virtual size_t PendingCountOn(const std::optional<std::string>& session,
                                const std::string& to) const = 0;

  /// Traffic counters summed over the directed channels that match, as
  /// accounted by this endpoint (on distributed backends each endpoint
  /// accounts the channels its hosted parties send on). An absent
  /// `session`, `from` or `to` matches every value; all three present is
  /// one channel.
  virtual ChannelStats StatsOn(const std::optional<std::string>& session,
                               const std::optional<std::string>& from,
                               const std::optional<std::string>& to) const = 0;

  /// Resets all traffic counters (queues and nonce counters are
  /// unaffected, so no (key, nonce) pair is ever reused).
  virtual void ResetStats() = 0;

  /// Installs an eavesdropper on the directed channel `from` -> `to`, for
  /// the frames of `session` or of every session (the frame's `session`
  /// field says which one it crossed on). Fires on the sending side for
  /// every subsequent frame, on the sender's thread and outside transport
  /// locks — concurrent senders may invoke the same tap concurrently, and
  /// a tap that blocks (e.g. a latency injector) delays only its own
  /// sender.
  virtual void AddTapOn(const std::optional<std::string>& session,
                        const std::string& from, const std::string& to,
                        Tap tap) = 0;

  /// Drops every queue, channel crypto/nonce state, and pending frame
  /// belonging to `session`, so a cancelled or failed session releases
  /// its transport footprint.
  virtual void PurgeSession(const std::string& session) = 0;

  /// The transport security mode, fixed at construction.
  TransportSecurity security() const { return security_; }

  // -- Plain spellings: the core on the binding -----------------------------

  Status Send(const std::string& from, const std::string& to,
              const std::string& topic, std::string payload) {
    return SendOn(bound_session(), from, to, topic, std::move(payload));
  }
  Result<Message> Receive(const std::string& to, const std::string& from,
                          const std::string& expected_topic = "",
                          const CancelToken* cancel = nullptr) {
    return ReceiveOn(bound_session(), to, from, expected_topic, cancel);
  }
  Status InjectFrame(const std::string& from, const std::string& to,
                     const std::string& topic, std::string wire_bytes) {
    return InjectFrameOn(bound_session(), from, to, topic,
                         std::move(wire_bytes));
  }
  size_t PendingCount(const std::string& to) const {
    return PendingCountOn(binding_, to);
  }
  ChannelStats StatsFor(const std::string& from, const std::string& to) const {
    return StatsOn(binding_, from, to);
  }
  /// Sum over the channels where `party` is the sender.
  ChannelStats TotalSentBy(const std::string& party) const {
    return StatsOn(binding_, party, std::nullopt);
  }
  /// Sum over every channel this endpoint accounts.
  ChannelStats GrandTotal() const {
    return StatsOn(binding_, std::nullopt, std::nullopt);
  }
  void AddTap(const std::string& from, const std::string& to, Tap tap) {
    AddTapOn(binding_, from, to, std::move(tap));
  }

  // -- `On` spellings of the stats aggregates -------------------------------

  ChannelStats TotalSentByOn(const std::string& session,
                             const std::string& party) const {
    return StatsOn(session, party, std::nullopt);
  }
  ChannelStats GrandTotalOn(const std::string& session) const {
    return StatsOn(session, std::nullopt, std::nullopt);
  }

 protected:
  /// An unbound network (a transport): the plain spellings use
  /// `kDefaultSession` for send/receive/inject and every session for
  /// stats, pending counts and taps.
  explicit Network(TransportSecurity security) : security_(security) {}
  /// A network whose plain spellings act on session `binding`.
  Network(TransportSecurity security, std::string binding)
      : security_(security), binding_(std::move(binding)) {}

 private:
  const std::string& bound_session() const {
    static const std::string kUnbound(kDefaultSession);
    return binding_ ? *binding_ : kUnbound;
  }

  const TransportSecurity security_;
  const std::optional<std::string> binding_;
};

/// A `Network` that forwards the whole core to `base` (not owned, must
/// outlive it). Wrappers derive from it and override only the calls they
/// change: `SessionNetwork` binds a session, `FaultyNetwork` injects faults
/// on the send path.
class ForwardingNetwork : public Network {
 public:
  Status RegisterParty(const std::string& name) override {
    return base_->RegisterParty(name);
  }
  bool HasParty(const std::string& name) const override {
    return base_->HasParty(name);
  }
  Status SendOn(const std::string& session, const std::string& from,
                const std::string& to, const std::string& topic,
                std::string payload) override {
    return base_->SendOn(session, from, to, topic, std::move(payload));
  }
  Result<Message> ReceiveOn(const std::string& session, const std::string& to,
                            const std::string& from,
                            const std::string& expected_topic = "",
                            const CancelToken* cancel = nullptr) override {
    return base_->ReceiveOn(session, to, from, expected_topic, cancel);
  }
  Status InjectFrameOn(const std::string& session, const std::string& from,
                       const std::string& to, const std::string& topic,
                       std::string wire_bytes) override {
    return base_->InjectFrameOn(session, from, to, topic,
                                std::move(wire_bytes));
  }
  void set_receive_timeout(std::chrono::milliseconds timeout) override {
    base_->set_receive_timeout(timeout);
  }
  std::chrono::milliseconds receive_timeout() const override {
    return base_->receive_timeout();
  }
  size_t PendingCountOn(const std::optional<std::string>& session,
                        const std::string& to) const override {
    return base_->PendingCountOn(session, to);
  }
  ChannelStats StatsOn(const std::optional<std::string>& session,
                       const std::optional<std::string>& from,
                       const std::optional<std::string>& to) const override {
    return base_->StatsOn(session, from, to);
  }
  void ResetStats() override { base_->ResetStats(); }
  void AddTapOn(const std::optional<std::string>& session,
                const std::string& from, const std::string& to,
                Tap tap) override {
    base_->AddTapOn(session, from, to, std::move(tap));
  }
  void PurgeSession(const std::string& session) override {
    base_->PurgeSession(session);
  }

 protected:
  explicit ForwardingNetwork(Network* base)
      : Network(base->security()), base_(base) {}
  ForwardingNetwork(Network* base, std::string binding)
      : Network(base->security(), std::move(binding)), base_(base) {}

  Network* const base_;
};

}  // namespace ppc

#endif  // PPC_NET_NETWORK_H_

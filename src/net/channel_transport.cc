#include "net/channel_transport.h"

#include <algorithm>
#include <limits>
#include <vector>

#include "net/secure_channel.h"

namespace ppc {

ChannelTransport::ChannelTransport(TransportSecurity security)
    : Network(security), master_key_(SecureChannel::kMasterKey) {}

ChannelTransport::Endpoint* ChannelTransport::FindEndpoint(
    const std::string& name) const {
  MutexLock lock(registry_mutex_);
  return FindEndpointLocked(name);
}

ChannelTransport::Endpoint* ChannelTransport::FindEndpointLocked(
    const std::string& name) const {
  auto it = parties_.find(name);
  return it == parties_.end() ? nullptr : it->second.get();
}

ChannelTransport::ChannelState* ChannelTransport::ChannelForLocked(
    const std::string& session, const std::string& from,
    const std::string& to) {
  auto& slot = channels_[ChannelKey(session, from, to)];
  if (!slot) {
    slot = std::make_unique<ChannelState>();
    slot->name = session.empty() ? from + "->" + to
                                 : from + "->" + to + "#" + session;
    if (security() == TransportSecurity::kAuthenticatedEncryption) {
      // All key derivation and key expansion for this directed channel
      // happens here, once; every later Seal/Open reuses the context. The
      // key binds the session id, so cross-session frames never verify.
      slot->crypto = std::make_unique<SecureChannel::Context>(
          SecureChannel::ChannelKey(master_key_, from, to, session));
    }
  }
  return slot.get();
}

ChannelTransport::Endpoint* ChannelTransport::ResolveReceive(
    const std::string& session, const std::string& to, const std::string& from,
    ChannelState** channel) {
  MutexLock lock(registry_mutex_);
  Endpoint* endpoint = FindEndpointLocked(to);
  if (endpoint == nullptr) return nullptr;
  if (channel != nullptr) {
    // Look up without creating: a Receive for a sender that never sends
    // must leave no channel state behind. The state is created lazily
    // (ChannelFor) only once a frame has actually arrived.
    auto it = channels_.find(ChannelKey(session, from, to));
    *channel = (it != channels_.end()) ? it->second.get() : nullptr;
  }
  return endpoint;
}

ChannelTransport::ChannelState* ChannelTransport::ChannelFor(
    const std::string& session, const std::string& from,
    const std::string& to) {
  MutexLock lock(registry_mutex_);
  return ChannelForLocked(session, from, to);
}

Result<std::string> ChannelTransport::PrepareFrame(
    const std::string& session, const std::string& from, const std::string& to,
    const std::string& topic, const std::string& payload,
    ChannelState* channel) {
  // Frame construction runs outside every lock; concurrent senders only
  // contend on the atomic nonce counter.
  std::string wire;
  if (security() == TransportSecurity::kPlaintext) {
    wire = payload;
  } else {
    // Claim the next nonce, refusing once the space is spent: the counter
    // parks at the max value forever rather than wrapping to 0, because a
    // reused (key, nonce) pair breaks CTR mode outright.
    uint64_t nonce = channel->nonce_counter.load(std::memory_order_relaxed);
    do {
      if (nonce == std::numeric_limits<uint64_t>::max()) {
        return Status::ResourceExhausted(
            "channel " + channel->name +
            " has exhausted its nonce space (2^64-1 frames); no further "
            "frame can be sealed on it");
      }
    } while (!channel->nonce_counter.compare_exchange_weak(
        nonce, nonce + 1, std::memory_order_relaxed));
    PPC_ASSIGN_OR_RETURN(wire, channel->crypto->Seal(topic, nonce, payload));
  }

  channel->messages.fetch_add(1, std::memory_order_relaxed);
  channel->payload_bytes.fetch_add(payload.size(), std::memory_order_relaxed);
  channel->wire_bytes.fetch_add(wire.size(), std::memory_order_relaxed);

  // Snapshot the matching taps under the lock, invoke them outside it:
  // taps are user callbacks (observers, latency injectors) and must not
  // serialize concurrent senders on other channels or sessions.
  std::vector<Tap> matching;
  {
    MutexLock tap_lock(tap_mutex_);
    auto tap_it = taps_.find(std::make_pair(from, to));
    if (tap_it != taps_.end()) {
      for (const TapEntry& entry : tap_it->second) {
        if (entry.session && *entry.session != session) continue;
        matching.push_back(entry.tap);
      }
    }
  }
  if (!matching.empty()) {
    WireFrame frame{from, to, topic, wire, session};
    for (const Tap& tap : matching) tap(frame);
  }
  return wire;
}

ChannelTransport::QueueMap::iterator ChannelTransport::QueueEntryLocked(
    Endpoint* endpoint, const std::string& session, const std::string& from) {
  auto it = endpoint->queues.try_emplace(std::make_pair(session, from)).first;
  if (it->second == nullptr) it->second = std::make_shared<Queue>();
  return it;
}

void ChannelTransport::DeliverLocal(Endpoint* endpoint, Message message) {
  std::shared_ptr<Queue> wake;
  {
    MutexLock lock(endpoint->mutex);
    wake = EnqueueLocked(endpoint, std::move(message));
  }
  if (wake != nullptr) wake->arrival.NotifyOne();
}

std::shared_ptr<ChannelTransport::Queue> ChannelTransport::EnqueueLocked(
    Endpoint* endpoint, Message message) {
  const std::shared_ptr<Queue>& queue =
      QueueEntryLocked(endpoint, message.session, message.from)->second;
  queue->frames.push_back(std::move(message));
  return queue->waiters > 0 ? queue : nullptr;
}

Result<Message> ChannelTransport::ReceiveOn(const std::string& session,
                                            const std::string& to,
                                            const std::string& from,
                                            const std::string& expected_topic,
                                            const CancelToken* cancel) {
  // How often a blocked receive wakes to poll the cancel token. Bounds
  // how long a cancelled session can keep its worker parked.
  constexpr std::chrono::milliseconds kCancelPollSlice(50);

  // One registry lock resolves both the endpoint and the channel's
  // cached crypto state up front.
  ChannelState* channel = nullptr;
  Endpoint* endpoint = ResolveReceive(
      session, to, from,
      security() == TransportSecurity::kAuthenticatedEncryption ? &channel
                                                                : nullptr);
  if (endpoint == nullptr) {
    return Status::NotFound("unknown receiver '" + to + "'");
  }
  if (cancel != nullptr) {
    Status live = cancel->Check();
    if (!live.ok()) {
      return Status(live.code(),
                    live.message() + ChannelContext(session, from, to,
                                                    expected_topic));
    }
  }
  const std::chrono::milliseconds timeout = receive_timeout();
  const auto deadline = std::chrono::steady_clock::now() + timeout;

  Status status;
  Message msg;
  {
    MutexLock lock(endpoint->mutex);
    // Created if absent, so a blocked receive has its own queue to wait on.
    // The entry stays put while this receive counts as a waiter.
    auto queue_it = QueueEntryLocked(endpoint, session, from);
    Queue& queue = *queue_it->second;
    ++queue.waiters;
    while (queue.frames.empty()) {
      if (timeout.count() <= 0) {
        status = Status::NotFound(
            "no pending message from '" + from + "' to '" + to + "'" +
            ChannelContext(session, from, to, expected_topic));
        break;
      }
      // Wake at the earliest of the transport deadline, the token's own
      // deadline, and the poll slice, so cancellation and deadline expiry
      // are noticed while the channel stays silent.
      auto wake = std::min(deadline,
                           std::chrono::steady_clock::now() + kCancelPollSlice);
      if (cancel != nullptr && cancel->HasDeadline()) {
        wake = std::min(wake, cancel->deadline());
      }
      (void)queue.arrival.WaitUntil(endpoint->mutex, wake);
      // Re-check first: a frame that landed during the wait wins over any
      // concurrently tripped deadline or cancellation.
      if (!queue.frames.empty()) break;
      if (cancel != nullptr) {
        Status live = cancel->Check();
        if (!live.ok()) {
          status = Status(live.code(),
                          live.message() + ChannelContext(session, from, to,
                                                          expected_topic));
          break;
        }
      }
      if (std::chrono::steady_clock::now() >= deadline) {
        status = Status::Unavailable(
            "no message from '" + from + "' to '" + to + "' within " +
            std::to_string(timeout.count()) + " ms" +
            ChannelContext(session, from, to, expected_topic) +
            ": peer unreachable or stalled");
        break;
      }
    }
    --queue.waiters;
    if (status.ok()) {
      Message& front = queue.frames.front();
      if (!expected_topic.empty() && front.topic != expected_topic) {
        status = Status::ProtocolViolation(
            "expected topic '" + expected_topic + "' from '" + from +
            "' but next message has topic '" + front.topic + "'" +
            ChannelContext(session, from, to, expected_topic));
      } else {
        msg = std::move(front);
        queue.frames.pop_front();
      }
    }
    if (queue.frames.empty() && queue.waiters == 0) {
      endpoint->queues.erase(queue_it);
    }
  }
  if (!status.ok()) return status;

  // Verification and decryption run outside the queue lock, against the
  // channel's cached context (and cached name — no per-frame string
  // building). Steady state resolves both with the endpoint above; only
  // the channel's first-ever frame pays the locked create-on-use lookup.
  if (security() == TransportSecurity::kAuthenticatedEncryption) {
    if (channel == nullptr) channel = ChannelFor(session, from, to);
    PPC_ASSIGN_OR_RETURN(
        msg.payload,
        channel->crypto->Open(msg.topic, msg.payload, channel->name));
  }
  return msg;
}

size_t ChannelTransport::PendingCountOn(
    const std::optional<std::string>& session, const std::string& to) const {
  Endpoint* endpoint = FindEndpoint(to);
  if (endpoint == nullptr) return 0;
  MutexLock lock(endpoint->mutex);
  size_t total = 0;
  auto it = session ? endpoint->queues.lower_bound({*session, ""})
                    : endpoint->queues.begin();
  for (; it != endpoint->queues.end(); ++it) {
    if (session && it->first.first != *session) break;
    total += it->second->frames.size();
  }
  return total;
}

ChannelStats ChannelTransport::StatsOn(
    const std::optional<std::string>& session,
    const std::optional<std::string>& from,
    const std::optional<std::string>& to) const {
  MutexLock lock(registry_mutex_);
  ChannelStats total;
  auto add = [&total](const std::unique_ptr<ChannelState>& state) {
    if (!state) return;
    total.messages += state->messages.load(std::memory_order_relaxed);
    total.payload_bytes += state->payload_bytes.load(std::memory_order_relaxed);
    total.wire_bytes += state->wire_bytes.load(std::memory_order_relaxed);
  };
  if (session && from && to) {
    auto it = channels_.find(ChannelKey(*session, *from, *to));
    if (it != channels_.end()) add(it->second);
    return total;
  }
  // Keys sort by (session, from, to): a known session is one contiguous
  // range, entered at its sender when one is given.
  auto it = session ? channels_.lower_bound(
                          ChannelKey(*session, from.value_or(""), ""))
                    : channels_.begin();
  for (; it != channels_.end(); ++it) {
    const auto& [key_session, key_from, key_to] = it->first;
    if (session && key_session != *session) break;
    if ((from && key_from != *from) || (to && key_to != *to)) continue;
    add(it->second);
  }
  return total;
}

void ChannelTransport::ResetStats() {
  MutexLock lock(registry_mutex_);
  for (auto& [key, state] : channels_) {
    if (!state) continue;
    state->messages.store(0, std::memory_order_relaxed);
    state->payload_bytes.store(0, std::memory_order_relaxed);
    state->wire_bytes.store(0, std::memory_order_relaxed);
    // nonce_counter deliberately survives: fresh nonces forever.
  }
}

void ChannelTransport::AddTapOn(const std::optional<std::string>& session,
                                const std::string& from, const std::string& to,
                                Tap tap) {
  MutexLock lock(tap_mutex_);
  taps_[std::make_pair(from, to)].push_back(TapEntry{session, std::move(tap)});
}

Status ChannelTransport::SetNonceCounterForTesting(const std::string& session,
                                                   const std::string& from,
                                                   const std::string& to,
                                                   uint64_t value) {
  if (security() != TransportSecurity::kAuthenticatedEncryption) {
    return Status::FailedPrecondition(
        "plaintext transports have no nonce counters");
  }
  ChannelState* channel = ChannelFor(session, from, to);
  channel->nonce_counter.store(value, std::memory_order_relaxed);
  return Status::OK();
}

size_t ChannelTransport::QueueCountForTesting(const std::string& to) const {
  Endpoint* endpoint = FindEndpoint(to);
  if (endpoint == nullptr) return 0;
  MutexLock lock(endpoint->mutex);
  return endpoint->queues.size();
}

void ChannelTransport::PurgeSession(const std::string& session) {
  // Both maps sort by session first, so the session is one contiguous key
  // range in each. Snapshot the endpoints under the registry lock, then
  // drain each endpoint's session queues under its own mutex — same
  // registry -> endpoint lock order as the send path.
  std::vector<Endpoint*> endpoints;
  {
    MutexLock lock(registry_mutex_);
    auto it = channels_.lower_bound(ChannelKey(session, "", ""));
    while (it != channels_.end() && std::get<0>(it->first) == session) {
      it = channels_.erase(it);
    }
    endpoints.reserve(parties_.size());
    for (const auto& [name, endpoint] : parties_) {
      endpoints.push_back(endpoint.get());
    }
  }
  for (Endpoint* endpoint : endpoints) {
    MutexLock lock(endpoint->mutex);
    auto it = endpoint->queues.lower_bound(std::make_pair(session, ""));
    while (it != endpoint->queues.end() && it->first.first == session) {
      Queue& queue = *it->second;
      if (queue.waiters == 0) {
        it = endpoint->queues.erase(it);
        continue;
      }
      // A receiver is blocked here: the queue must outlive its wait. Empty
      // it and wake the waiters, so each re-polls its cancel token instead
      // of sleeping out its slice; the last one out erases the entry.
      queue.frames.clear();
      queue.arrival.NotifyAll();
      ++it;
    }
  }
}

}  // namespace ppc

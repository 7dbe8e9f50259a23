#include "net/tcp_network.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <random>
#include <thread>

#include "common/serde.h"
#include "crypto/hmac.h"

namespace ppc {

namespace {

/// Connection preamble: wrong-protocol or wrong-version peers are cut off
/// before any frame parsing. "PPT3" = session-multiplexed length-prefixed
/// frames behind the mutual challenge-response handshake ("PPT2" framed
/// records without the session field; "PPT1" was the unauthenticated
/// predecessor; peers of either version are cut off here).
constexpr char kPreamble[4] = {'P', 'P', 'T', '3'};

/// Handshake direction labels — a response to one direction's challenge
/// can never be replayed for the other.
constexpr char kDialAuthLabel[] = "dial";
constexpr char kAcceptAuthLabel[] = "accept";

/// Upper bound on a single frame; anything larger is a corrupt length
/// prefix, not a protocol message (the biggest legitimate payloads are the
/// alphanumeric grid shipments, far below this).
constexpr uint32_t kMaxFrameBytes = 1u << 30;

/// Bound on frames parked for not-yet-registered parties; beyond it a
/// peer is flooding a name this endpoint will never host.
constexpr size_t kMaxUnclaimedFrames = 4096;

/// Dial-retry backoff bounds: first retry after ~kDialBackoffFloor, then
/// doubling (plus up-to-100% jitter) up to kDialBackoffCeil, so a herd of
/// daemons restarting against one listener spreads out instead of
/// re-dialing in lockstep.
constexpr std::chrono::milliseconds kDialBackoffFloor{10};
constexpr std::chrono::milliseconds kDialBackoffCeil{640};

/// Reads exactly `len` bytes from a blocking fd; false on
/// EOF/error/shutdown. (Outbound dial handshakes only — inbound reads are
/// nonblocking, driven by the event loop.)
bool ReadExact(int fd, char* buffer, size_t len) {
  size_t done = 0;
  while (done < len) {
    ssize_t n = ::recv(fd, buffer + done, len - done, 0);
    if (n == 0) return false;  // Orderly EOF.
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    done += static_cast<size_t>(n);
  }
  return true;
}

/// Writes all of `data`; false on error.
bool WriteAll(int fd, const char* data, size_t len) {
  size_t done = 0;
  while (done < len) {
    ssize_t n = ::send(fd, data + done, len - done, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    done += static_cast<size_t>(n);
  }
  return true;
}

Result<in_addr> ParseHost(const std::string& host) {
  std::string resolved = host == "localhost" ? "127.0.0.1" : host;
  in_addr addr{};
  if (::inet_pton(AF_INET, resolved.c_str(), &addr) != 1) {
    return Status::InvalidArgument("cannot parse IPv4 address '" + host +
                                   "'");
  }
  return addr;
}

void SetNoDelay(int fd) {
  // Protocol rounds are request/response over small frames; Nagle would
  // add 40ms stalls to every round trip.
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

void SetNonBlocking(int fd) {
  int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

/// Bounds blocking reads on `fd` (0 restores fully blocking reads). Used
/// only around the outbound-dial auth handshake so a silent listener
/// cannot park a sender forever; frame writes stay unbounded.
void SetRecvTimeout(int fd, std::chrono::milliseconds timeout) {
  timeval tv{};
  tv.tv_sec = static_cast<time_t>(timeout.count() / 1000);
  tv.tv_usec = static_cast<suseconds_t>((timeout.count() % 1000) * 1000);
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
}

/// Fresh OS-entropy challenge. Challenges never touch protocol bytes or
/// nonces, so run determinism is unaffected.
std::string RandomChallenge() {
  std::string challenge(SecureChannel::kChallengeLength, '\0');
  std::random_device entropy;
  for (size_t i = 0; i < challenge.size(); i += 4) {
    uint32_t word = entropy();
    for (size_t b = 0; b < 4 && i + b < challenge.size(); ++b) {
      challenge[i + b] = static_cast<char>((word >> (8 * b)) & 0xff);
    }
  }
  return challenge;
}

}  // namespace

Result<std::unique_ptr<TcpNetwork>> TcpNetwork::Create(
    const Options& options) {
  PPC_ASSIGN_OR_RETURN(in_addr host, ParseHost(options.listen_host));

  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::Internal(std::string("socket(): ") + std::strerror(errno));
  }
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr = host;
  addr.sin_port = htons(options.listen_port);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    Status status = Status::Internal("bind(" + options.listen_host + ":" +
                                     std::to_string(options.listen_port) +
                                     "): " + std::strerror(errno));
    ::close(fd);
    return status;
  }
  if (::listen(fd, 64) != 0) {
    Status status =
        Status::Internal(std::string("listen(): ") + std::strerror(errno));
    ::close(fd);
    return status;
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &bound_len) !=
      0) {
    Status status = Status::Internal(std::string("getsockname(): ") +
                                     std::strerror(errno));
    ::close(fd);
    return status;
  }
  SetNonBlocking(fd);  // Accepts run on the event loop.

  auto loop = EventLoop::Create();
  if (!loop.ok()) {
    ::close(fd);
    return loop.status();
  }
  return std::unique_ptr<TcpNetwork>(new TcpNetwork(
      options, fd, ntohs(bound.sin_port), std::move(loop).TakeValue()));
}

TcpNetwork::TcpNetwork(const Options& options, int listen_fd,
                       uint16_t listen_port, std::unique_ptr<EventLoop> loop)
    : ChannelTransport(options.security),
      connect_timeout_(options.connect_timeout),
      listen_host_(options.listen_host == "localhost" ? "127.0.0.1"
                                                      : options.listen_host),
      auth_key_(SecureChannel::ConnectionAuthKey(options.auth_secret)),
      listen_fd_(listen_fd),
      listen_port_(listen_port),
      loop_(std::move(loop)) {
  // Registering the watch must happen on the loop thread; every member
  // the handler touches is initialized by now.
  loop_->Post([this] {
    (void)loop_->Watch(listen_fd_, EPOLLIN,
                       [this](uint32_t events) { HandleAccept(events); });
  });
}

TcpNetwork::~TcpNetwork() {
  shutting_down_.store(true, std::memory_order_release);
  {
    // Unblock senders mid-write and stop dial retries. Deliberately does
    // NOT take any write_mutex: the stuck writer holds it, and shutdown()
    // on the (atomic) fd is what releases that writer.
    MutexLock lock(conn_mutex_);
    for (auto& [addr, conn] : connections_) {
      int fd = conn->fd.load(std::memory_order_acquire);
      if (fd >= 0) ::shutdown(fd, SHUT_RDWR);
    }
  }
  // Joining the loop ends all inbound I/O; after this the inbound map is
  // plain single-threaded state.
  loop_->Stop();
  for (auto& [fd, conn] : inbound_) ::close(fd);
  inbound_.clear();
  ::close(listen_fd_);
  {
    MutexLock lock(conn_mutex_);
    for (auto& [addr, conn] : connections_) {
      // exchange() so a sender's error path and this teardown can never
      // both close one fd.
      int fd = conn->fd.exchange(-1, std::memory_order_acq_rel);
      if (fd >= 0) ::close(fd);
    }
    connections_.clear();
  }
}

void TcpNetwork::HandleAccept(uint32_t /*events*/) {
  for (;;) {
    int fd = ::accept4(listen_fd_, nullptr, nullptr,
                       SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR) continue;
      // Transient conditions (a peer resetting before accept runs —
      // ECONNABORTED — or fd-table pressure) must not kill the listener:
      // a deaf listener deadlocks every later protocol round. Mask the
      // watch briefly so a persistent error cannot spin the loop.
      (void)loop_->Rearm(listen_fd_, 0);
      loop_->ScheduleAt(
          std::chrono::steady_clock::now() + std::chrono::milliseconds(10),
          [this] { (void)loop_->Rearm(listen_fd_, EPOLLIN); });
      return;
    }
    SetNoDelay(fd);
    auto conn = std::make_unique<InboundConn>();
    conn->fd = fd;
    // A dialer that never completes the handshake is dropped at the
    // deadline — it cannot hold connection state forever.
    conn->handshake_timer = loop_->ScheduleAt(
        std::chrono::steady_clock::now() + connect_timeout_, [this, fd] {
          auto it = inbound_.find(fd);
          if (it != inbound_.end() &&
              it->second->phase != InboundConn::Phase::kFrames) {
            DropConn(fd);
          }
        });
    InboundConn* raw = conn.get();
    inbound_.emplace(fd, std::move(conn));
    Status watched = loop_->Watch(
        fd, EPOLLIN, [this, fd](uint32_t events) { HandleConnIo(fd, events); });
    if (!watched.ok()) {
      loop_->Cancel(raw->handshake_timer);
      inbound_.erase(fd);
      ::close(fd);
    }
  }
}

void TcpNetwork::HandleConnIo(int fd, uint32_t events) {
  auto it = inbound_.find(fd);
  if (it == inbound_.end()) return;
  InboundConn* conn = it->second.get();

  if ((events & EPOLLOUT) != 0 && !FlushConn(conn)) {
    DropConn(fd);
    return;
  }

  bool peer_closed = false;
  if ((events & (EPOLLIN | EPOLLHUP | EPOLLERR)) != 0) {
    char buffer[64 * 1024];
    for (;;) {
      ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
      if (n > 0) {
        conn->inbuf.append(buffer, static_cast<size_t>(n));
        continue;
      }
      if (n == 0) {
        peer_closed = true;
        break;
      }
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      peer_closed = true;  // Hard socket error; parse what arrived, drop.
      break;
    }
  }

  if (!AdvanceConn(conn) || peer_closed) DropConn(fd);
}

bool TcpNetwork::FlushConn(InboundConn* conn) {
  while (!conn->outbuf.empty()) {
    ssize_t n = ::send(conn->fd, conn->outbuf.data(), conn->outbuf.size(),
                       MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        return loop_->Rearm(conn->fd, EPOLLIN | EPOLLOUT).ok();
      }
      return false;
    }
    conn->outbuf.erase(0, static_cast<size_t>(n));
  }
  return loop_->Rearm(conn->fd, EPOLLIN).ok();
}

bool TcpNetwork::AdvanceConn(InboundConn* conn) {
  size_t pos = 0;
  const std::string& buf = conn->inbuf;

  if (conn->phase == InboundConn::Phase::kAwaitHello) {
    const size_t hello_size =
        sizeof(kPreamble) + SecureChannel::kChallengeLength;
    if (buf.size() < hello_size) return true;  // Need more bytes.
    if (std::memcmp(buf.data(), kPreamble, sizeof(kPreamble)) != 0) {
      return false;  // Wrong protocol or version.
    }
    const std::string dialer_challenge =
        buf.substr(sizeof(kPreamble), SecureChannel::kChallengeLength);
    pos = hello_size;
    conn->acceptor_challenge = RandomChallenge();
    conn->outbuf +=
        conn->acceptor_challenge +
        SecureChannel::ConnectionAuthResponse(auth_key_, kDialAuthLabel,
                                              dialer_challenge);
    conn->phase = InboundConn::Phase::kAwaitResponse;
    if (!FlushConn(conn)) return false;
  }

  if (conn->phase == InboundConn::Phase::kAwaitResponse) {
    if (buf.size() - pos < SecureChannel::kMacLength) {
      conn->inbuf.erase(0, pos);
      return true;
    }
    const std::string response = buf.substr(pos, SecureChannel::kMacLength);
    pos += SecureChannel::kMacLength;
    if (!HmacSha256::Verify(
            SecureChannel::ConnectionAuthResponse(
                auth_key_, kAcceptAuthLabel, conn->acceptor_challenge),
            response)) {
      return false;  // Wrong secret: drop the connection, no frame read.
    }
    loop_->Cancel(conn->handshake_timer);
    conn->phase = InboundConn::Phase::kFrames;
  }

  // Authenticated: drain every complete length-prefixed frame. The buffer
  // only ever holds bytes the peer actually sent, so a lying 1 GiB length
  // prefix costs the peer its connection, not this process an allocation.
  while (buf.size() - pos >= 4) {
    uint32_t len = 0;
    for (int i = 0; i < 4; ++i) {
      len |= static_cast<uint32_t>(
                 static_cast<unsigned char>(buf[pos + static_cast<size_t>(i)]))
             << (8 * i);
    }
    if (len == 0 || len > kMaxFrameBytes) return false;
    if (buf.size() - pos - 4 < len) break;  // Frame still in flight.

    const std::string body = buf.substr(pos + 4, len);
    pos += 4 + static_cast<size_t>(len);

    ByteReader reader(body);
    auto from = reader.ReadBytes();
    auto to = reader.ReadBytes();
    auto topic = reader.ReadBytes();
    auto session = reader.ReadBytes();
    auto wire = reader.ReadBytes();
    if (!from.ok() || !to.ok() || !topic.ok() || !session.ok() ||
        !wire.ok() || !reader.AtEnd()) {
      return false;  // Framing is broken; drop the peer.
    }
    Deliver(Message{std::move(*from), std::move(*to), std::move(*topic),
                    std::move(*wire), std::move(*session)});
  }
  conn->inbuf.erase(0, pos);
  return true;
}

void TcpNetwork::DropConn(int fd) {
  auto it = inbound_.find(fd);
  if (it == inbound_.end()) return;
  loop_->Cancel(it->second->handshake_timer);
  loop_->Unwatch(fd);
  ::close(fd);
  inbound_.erase(it);
}

void TcpNetwork::Deliver(Message message) {
  Endpoint* endpoint = nullptr;
  {
    MutexLock lock(registry_mutex_);
    auto it = parties_.find(message.to);
    if (it == parties_.end()) {
      // The receiver has not registered (yet): in a multi-process launch
      // a fast peer's first frames can beat the local RegisterParty call.
      // Park them; RegisterParty drains the stash in arrival order.
      size_t parked = unclaimed_frames_.load(std::memory_order_relaxed);
      if (parked >= kMaxUnclaimedFrames) {
        dropped_frames_.fetch_add(1, std::memory_order_relaxed);
        return;
      }
      unclaimed_[message.to].push_back(std::move(message));
      unclaimed_frames_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    endpoint = it->second.get();
  }
  DeliverLocal(endpoint, std::move(message));
}

Status TcpNetwork::RegisterParty(const std::string& name) {
  if (name.empty()) {
    return Status::InvalidArgument("party name must be non-empty");
  }
  MutexLock lock(registry_mutex_);
  if (remotes_.count(name) != 0) {
    return Status::AlreadyExists("party '" + name +
                                 "' already known as remote");
  }
  auto [it, inserted] = parties_.try_emplace(name);
  if (!inserted) {
    return Status::AlreadyExists("party '" + name + "' already registered");
  }
  it->second = std::make_unique<Endpoint>();
  Endpoint* endpoint = it->second.get();
  // Hand over frames that arrived before this registration, through the
  // same enqueue as every later arrival (no receiver can wait on an
  // endpoint before it is registered, so there is no one to wake). Still
  // under the registry lock, so no new arrival can slip between the drain
  // and the endpoint becoming visible — per-channel FIFO is preserved
  // (lock order registry -> endpoint matches Deliver's).
  auto parked = unclaimed_.find(name);
  if (parked != unclaimed_.end()) {
    MutexLock queue_lock(endpoint->mutex);
    for (Message& message : parked->second) {
      (void)EnqueueLocked(endpoint, std::move(message));
      unclaimed_frames_.fetch_sub(1, std::memory_order_relaxed);
    }
    unclaimed_.erase(parked);
  }
  return Status::OK();
}

Status TcpNetwork::AddRemoteParty(const std::string& name,
                                  const std::string& host, uint16_t port) {
  if (name.empty()) {
    return Status::InvalidArgument("party name must be non-empty");
  }
  PPC_RETURN_IF_ERROR(ParseHost(host).status());
  MutexLock lock(registry_mutex_);
  if (parties_.count(name) != 0) {
    return Status::AlreadyExists("party '" + name +
                                 "' already registered locally");
  }
  auto [it, inserted] = remotes_.try_emplace(name, RemoteAddress{host, port});
  (void)it;
  if (!inserted) {
    return Status::AlreadyExists("remote party '" + name +
                                 "' already registered");
  }
  return Status::OK();
}

bool TcpNetwork::HasParty(const std::string& name) const {
  MutexLock lock(registry_mutex_);
  return parties_.count(name) != 0 || remotes_.count(name) != 0;
}

Status TcpNetwork::ResolveRoute(const std::string& session,
                                const std::string& from, const std::string& to,
                                std::string* dest_addr,
                                ChannelState** channel) {
  MutexLock lock(registry_mutex_);
  if (parties_.find(from) == parties_.end()) {
    return Status::NotFound("unknown sender '" + from + "'");
  }
  if (parties_.count(to) != 0) {
    // Hosted here: loop the frame through our own listener so local and
    // remote parties are indistinguishable on the wire. Dial the bound
    // interface (a wildcard bind is reachable via loopback).
    *dest_addr = (listen_host_ == "0.0.0.0" ? "127.0.0.1" : listen_host_) +
                 ":" + std::to_string(listen_port_);
  } else if (auto it = remotes_.find(to); it != remotes_.end()) {
    *dest_addr = it->second.host + ":" + std::to_string(it->second.port);
  } else {
    return Status::NotFound("unknown receiver '" + to + "'");
  }
  if (channel != nullptr) *channel = ChannelForLocked(session, from, to);
  return Status::OK();
}

Status TcpNetwork::WriteFrame(const std::string& dest_addr,
                              const std::string& session,
                              const std::string& from, const std::string& to,
                              const std::string& topic,
                              const std::string& wire) {
  // Get or dial the pooled connection for this destination endpoint —
  // shared by every session sending there.
  Connection* conn = nullptr;
  {
    MutexLock lock(conn_mutex_);
    auto& slot = connections_[dest_addr];
    if (!slot) slot = std::make_unique<Connection>();
    conn = slot.get();
  }

  ByteWriter body;
  body.WriteBytes(from);
  body.WriteBytes(to);
  body.WriteBytes(topic);
  body.WriteBytes(session);
  body.WriteBytes(wire);
  if (body.size() > kMaxFrameBytes) {
    // Mirror the receiver's limit: past it the peer would drop the whole
    // connection (and past u32 range the length prefix would wrap), so
    // fail the send loudly instead.
    return Status::InvalidArgument(
        "frame of " + std::to_string(body.size()) +
        " bytes exceeds the transport's frame limit (" +
        std::to_string(kMaxFrameBytes) + ")");
  }
  ByteWriter framed;
  framed.WriteU32(static_cast<uint32_t>(body.size()));
  const std::string& payload = body.bytes();

  MutexLock write_lock(conn->write_mutex);
  int sock = conn->fd.load(std::memory_order_acquire);
  if (sock < 0) {
    // Dial, retrying refused connections until the deadline: in a
    // multi-process launch the peer may not have bound its listener yet.
    size_t colon = dest_addr.rfind(':');
    PPC_ASSIGN_OR_RETURN(in_addr host, ParseHost(dest_addr.substr(0, colon)));
    int port = std::stoi(dest_addr.substr(colon + 1));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr = host;
    addr.sin_port = htons(static_cast<uint16_t>(port));

    const auto deadline = std::chrono::steady_clock::now() + connect_timeout_;
    // Capped exponential backoff with jitter between retries; the jitter
    // source is per-dial and never touches protocol bytes.
    std::chrono::milliseconds backoff = kDialBackoffFloor;
    std::minstd_rand jitter_rng(std::random_device{}());
    for (;;) {
      int fd = ::socket(AF_INET, SOCK_STREAM, 0);
      if (fd < 0) {
        return Status::Internal(std::string("socket(): ") +
                                std::strerror(errno));
      }
      if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) ==
          0) {
        SetNoDelay(fd);
        // Mutual challenge-response: prove knowledge of the shared secret
        // to the listener, and require the same proof back before any
        // protocol frame leaves this process.
        const std::string dialer_challenge = RandomChallenge();
        const std::string hello =
            std::string(kPreamble, sizeof(kPreamble)) + dialer_challenge;
        if (!WriteAll(fd, hello.data(), hello.size())) {
          ::close(fd);
          return Status::Internal("tcp preamble write to " + dest_addr +
                                  " failed");
        }
        SetRecvTimeout(fd, connect_timeout_);
        std::string greeting(
            SecureChannel::kChallengeLength + SecureChannel::kMacLength,
            '\0');
        if (!ReadExact(fd, greeting.data(), greeting.size())) {
          ::close(fd);
          return Status::PermissionDenied(
              "listener at " + dest_addr +
              " did not answer the connection-auth challenge");
        }
        const std::string acceptor_challenge =
            greeting.substr(0, SecureChannel::kChallengeLength);
        const std::string acceptor_response =
            greeting.substr(SecureChannel::kChallengeLength);
        if (!HmacSha256::Verify(
                SecureChannel::ConnectionAuthResponse(
                    auth_key_, kDialAuthLabel, dialer_challenge),
                acceptor_response)) {
          ::close(fd);
          return Status::PermissionDenied(
              "listener at " + dest_addr +
              " failed the connection-auth challenge (wrong secret?)");
        }
        const std::string response = SecureChannel::ConnectionAuthResponse(
            auth_key_, kAcceptAuthLabel, acceptor_challenge);
        if (!WriteAll(fd, response.data(), response.size())) {
          ::close(fd);
          return Status::Internal("tcp auth response write to " + dest_addr +
                                  " failed");
        }
        SetRecvTimeout(fd, std::chrono::milliseconds(0));
        conn->fd.store(fd, std::memory_order_release);
        sock = fd;
        break;
      }
      int saved = errno;
      ::close(fd);
      const auto now = std::chrono::steady_clock::now();
      if ((saved == ECONNREFUSED || saved == ETIMEDOUT) && now < deadline &&
          !shutting_down_.load(std::memory_order_acquire)) {
        auto jitter = std::chrono::milliseconds(
            std::uniform_int_distribution<int64_t>(0, backoff.count())(
                jitter_rng));
        auto remaining =
            std::chrono::duration_cast<std::chrono::milliseconds>(deadline -
                                                                  now);
        std::this_thread::sleep_for(
            std::min(backoff + jitter, std::max(remaining,
                                                std::chrono::milliseconds(1))));
        backoff = std::min(backoff * 2, kDialBackoffCeil);
        continue;
      }
      return Status::Internal("connect(" + dest_addr +
                              "): " + std::strerror(saved));
    }
  }
  if (!WriteAll(sock, framed.bytes().data(), framed.bytes().size()) ||
      !WriteAll(sock, payload.data(), payload.size())) {
    const int saved = errno;  // close() below may clobber it.
    // The connection is dead; drop it so a later send can re-dial.
    // exchange() so this path and the destructor's teardown can never
    // both close the fd (the destructor shuts the socket down to unblock
    // this very write, then races here).
    int dead = conn->fd.exchange(-1, std::memory_order_acq_rel);
    if (dead >= 0) ::close(dead);
    // Typed as kUnavailable: the peer (or the path to it) is gone right
    // now. The in-flight frame is NOT retried — the sender decides. The
    // next send to this destination re-dials with the capped-backoff
    // loop above and re-runs the HMAC handshake; channel nonce counters
    // live above the connection, so the re-dialed connection continues
    // the monotone nonce sequence and replays nothing.
    return Status::Unavailable("tcp write to " + dest_addr + " failed (" +
                               std::strerror(saved) +
                               "): peer connection lost");
  }
  return Status::OK();
}

void TcpNetwork::DropEstablishedConnectionsForTesting() {
  // shutdown(), not close(): in-flight writers still own the fd, and a
  // close here could race a concurrent write onto a recycled descriptor.
  // The shutdown makes their next write fail, which funnels them through
  // WriteFrame's exchange(-1)-and-close path — the same path a peer
  // crash exercises.
  MutexLock lock(conn_mutex_);
  for (auto& [addr, conn] : connections_) {
    int fd = conn->fd.load(std::memory_order_acquire);
    if (fd >= 0) ::shutdown(fd, SHUT_RDWR);
  }
}

Status TcpNetwork::SendOn(const std::string& session, const std::string& from,
                          const std::string& to, const std::string& topic,
                          std::string payload) {
  std::string dest_addr;
  ChannelState* channel = nullptr;
  PPC_RETURN_IF_ERROR(ResolveRoute(session, from, to, &dest_addr, &channel));
  PPC_ASSIGN_OR_RETURN(
      std::string wire,
      PrepareFrame(session, from, to, topic, payload, channel));
  return WriteFrame(dest_addr, session, from, to, topic, wire);
}

Status TcpNetwork::InjectFrameOn(const std::string& session,
                                 const std::string& from,
                                 const std::string& to,
                                 const std::string& topic,
                                 std::string wire_bytes) {
  std::string dest_addr;
  PPC_RETURN_IF_ERROR(ResolveRoute(session, from, to, &dest_addr, nullptr));
  // Raw bytes straight onto the wire: no sealing, no accounting, no taps —
  // the receiver's integrity checks are the subject under test.
  return WriteFrame(dest_addr, session, from, to, topic, wire_bytes);
}

}  // namespace ppc

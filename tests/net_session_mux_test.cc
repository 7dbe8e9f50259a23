// Session multiplexing on the shared transports: N logical sessions ride
// one physical (and, on TCP, one authenticated) connection per party
// pair. The contract under test: per-session FIFO on the same directed
// channel, cryptographic key separation between sessions, exact
// per-session accounting that sums to the legacy aggregate, session-aware
// taps, the nonce-exhaustion refusal that keeps CTR mode sound, and a
// purge that frees one session without disturbing a receiver on another.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "common/cancellation.h"
#include "net/channel_transport.h"
#include "net/in_memory_network.h"
#include "net/network.h"
#include "net/tcp_network.h"

namespace ppc {
namespace {

enum class BackendKind { kInMemory, kTcp };

std::string ParamName(const ::testing::TestParamInfo<BackendKind>& info) {
  return info.param == BackendKind::kInMemory ? "InMemory" : "Tcp";
}

/// Both backends, always in authenticated-encryption mode: that is where
/// session separation has cryptographic teeth (plaintext coverage lives
/// in the conformance suite's multiplexed dimension).
class SessionMuxTest : public ::testing::TestWithParam<BackendKind> {
 protected:
  void SetUp() override {
    if (GetParam() == BackendKind::kInMemory) {
      auto net = std::make_unique<InMemoryNetwork>(
          TransportSecurity::kAuthenticatedEncryption);
      transport_ = net.get();
      net_ = std::move(net);
    } else {
      TcpNetwork::Options options;
      options.security = TransportSecurity::kAuthenticatedEncryption;
      auto created = TcpNetwork::Create(options);
      ASSERT_TRUE(created.ok()) << created.status().ToString();
      transport_ = created->get();
      net_ = std::move(created).TakeValue();
    }
    ASSERT_TRUE(net_->RegisterParty("A").ok());
    ASSERT_TRUE(net_->RegisterParty("B").ok());
    net_->set_receive_timeout(std::chrono::milliseconds(5000));
  }

  std::unique_ptr<Network> net_;
  /// Same object as `net_`; typed access to the test-only nonce hook.
  ChannelTransport* transport_ = nullptr;
};

TEST_P(SessionMuxTest, PerSessionFifoOnOneDirectedChannel) {
  // Interleave two sessions' streams on the same A -> B channel; each
  // session must replay its own stream in order, whichever order the
  // receiver drains them in.
  for (int i = 0; i < 16; ++i) {
    const std::string& session = (i % 2 == 0) ? "odd" : "even";
    ASSERT_TRUE(
        net_->SendOn(session, "A", "B", "t", "m" + std::to_string(i)).ok());
  }
  for (int i = 0; i < 16; i += 2) {
    // Drain alternately to prove the queues are truly independent.
    auto odd = net_->ReceiveOn("odd", "B", "A", "t");
    ASSERT_TRUE(odd.ok()) << odd.status().ToString();
    EXPECT_EQ(odd->payload, "m" + std::to_string(i));
    EXPECT_EQ(odd->session, "odd");
    auto even = net_->ReceiveOn("even", "B", "A", "t");
    ASSERT_TRUE(even.ok()) << even.status().ToString();
    EXPECT_EQ(even->payload, "m" + std::to_string(i + 1));
    EXPECT_EQ(even->session, "even");
  }
}

TEST_P(SessionMuxTest, DefaultSessionAndPlainCallsAreTheSameStream) {
  ASSERT_TRUE(net_->Send("A", "B", "t", "via-plain").ok());
  ASSERT_TRUE(
      net_->SendOn(kDefaultSession, "A", "B", "t", "via-session-call").ok());
  auto first = net_->ReceiveOn(kDefaultSession, "B", "A", "t");
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first->payload, "via-plain");
  auto second = net_->Receive("B", "A", "t");
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(second->payload, "via-session-call");
}

TEST_P(SessionMuxTest, SessionsDoNotShareKeys) {
  // A frame sealed under session "s1" replayed into session "s2" must
  // fail authentication: the channel key binds the session id, so even a
  // peer holding a valid s1 frame cannot smuggle it into another
  // session's stream.
  std::string sealed;
  net_->AddTapOn("s1", "A", "B",
                 [&](const WireFrame& f) { sealed = f.wire_bytes; });
  ASSERT_TRUE(net_->SendOn("s1", "A", "B", "t", "bound to s1").ok());
  ASSERT_FALSE(sealed.empty());

  ASSERT_TRUE(net_->InjectFrameOn("s2", "A", "B", "t", sealed).ok());
  auto crossed = net_->ReceiveOn("s2", "B", "A", "t");
  EXPECT_EQ(crossed.status().code(), StatusCode::kProtocolViolation)
      << crossed.status().ToString();

  // The very same bytes decode fine where they belong.
  auto legit = net_->ReceiveOn("s1", "B", "A", "t");
  ASSERT_TRUE(legit.ok()) << legit.status().ToString();
  EXPECT_EQ(legit->payload, "bound to s1");
}

TEST_P(SessionMuxTest, AggregateStatsSumOverSessions) {
  ASSERT_TRUE(net_->Send("A", "B", "t", "123").ok());
  ASSERT_TRUE(net_->SendOn("s1", "A", "B", "t", "12345").ok());
  ASSERT_TRUE(net_->SendOn("s1", "A", "B", "t", "1").ok());
  ASSERT_TRUE(net_->SendOn("s2", "A", "B", "t", "1234").ok());

  EXPECT_EQ(net_->StatsOn(kDefaultSession, "A", "B").payload_bytes, 3u);
  EXPECT_EQ(net_->StatsOn("s1", "A", "B").messages, 2u);
  EXPECT_EQ(net_->StatsOn("s1", "A", "B").payload_bytes, 6u);
  EXPECT_EQ(net_->StatsOn("s2", "A", "B").payload_bytes, 4u);
  EXPECT_EQ(net_->StatsOn("never-used", "A", "B").messages, 0u);

  // The legacy aggregate views sum every session's channel exactly.
  EXPECT_EQ(net_->StatsFor("A", "B").messages, 4u);
  EXPECT_EQ(net_->StatsFor("A", "B").payload_bytes, 13u);
  EXPECT_EQ(net_->TotalSentBy("A").payload_bytes, 13u);
  EXPECT_EQ(net_->TotalSentByOn("s1", "A").payload_bytes, 6u);
  EXPECT_EQ(net_->GrandTotal().messages, 4u);
  EXPECT_EQ(net_->GrandTotalOn("s2").messages, 1u);

  // Wire accounting (nonce + MAC envelope) is also per session.
  EXPECT_EQ(net_->StatsOn("s2", "A", "B").wire_bytes, 4u + 24u);
}

TEST_P(SessionMuxTest, TapsFilterBySessionAndCarryTheSessionId) {
  std::vector<std::string> everything;
  std::vector<std::string> only_s1;
  net_->AddTap("A", "B",
               [&](const WireFrame& f) { everything.push_back(f.session); });
  net_->AddTapOn("s1", "A", "B",
                 [&](const WireFrame& f) { only_s1.push_back(f.session); });

  ASSERT_TRUE(net_->SendOn("s1", "A", "B", "t", "x").ok());
  ASSERT_TRUE(net_->SendOn("s2", "A", "B", "t", "y").ok());
  ASSERT_TRUE(net_->Send("A", "B", "t", "z").ok());

  ASSERT_EQ(everything.size(), 3u);
  EXPECT_EQ(everything[0], "s1");
  EXPECT_EQ(everything[1], "s2");
  EXPECT_EQ(everything[2], kDefaultSession);
  ASSERT_EQ(only_s1.size(), 1u);
  EXPECT_EQ(only_s1[0], "s1");
}

TEST_P(SessionMuxTest, ReceiveErrorsNameTheirSession) {
  // Every receive failure says which session, channel and topic it was
  // on — not only the blocking timeouts.
  ASSERT_TRUE(net_->SendOn("s1", "A", "B", "actual", "x").ok());
  auto mismatch = net_->ReceiveOn("s1", "B", "A", "expected");
  EXPECT_EQ(mismatch.status().code(), StatusCode::kProtocolViolation);
  EXPECT_NE(mismatch.status().message().find("session 's1'"),
            std::string::npos)
      << mismatch.status().ToString();
  EXPECT_NE(mismatch.status().message().find("A -> B"), std::string::npos)
      << mismatch.status().ToString();

  net_->set_receive_timeout(std::chrono::milliseconds(0));
  auto empty = net_->ReceiveOn("s2", "B", "A", "t");
  EXPECT_EQ(empty.status().code(), StatusCode::kNotFound);
  EXPECT_NE(empty.status().message().find("session 's2'"), std::string::npos)
      << empty.status().ToString();
}

TEST_P(SessionMuxTest, NonceExhaustionRefusesFurtherSeals) {
  constexpr uint64_t kMax = std::numeric_limits<uint64_t>::max();
  ASSERT_TRUE(
      transport_->SetNonceCounterForTesting("s1", "A", "B", kMax - 1).ok());

  // One nonce left: this frame takes it and still round-trips.
  ASSERT_TRUE(net_->SendOn("s1", "A", "B", "t", "last frame").ok());
  auto msg = net_->ReceiveOn("s1", "B", "A", "t");
  ASSERT_TRUE(msg.ok()) << msg.status().ToString();
  EXPECT_EQ(msg->payload, "last frame");

  // The space is spent: every further send refuses, permanently — the
  // counter parks rather than wrapping into nonce reuse.
  for (int i = 0; i < 3; ++i) {
    Status refused = net_->SendOn("s1", "A", "B", "t", "one too many");
    EXPECT_EQ(refused.code(), StatusCode::kResourceExhausted)
        << refused.ToString();
  }

  // Other sessions (and the reverse direction) have their own counters.
  ASSERT_TRUE(net_->SendOn("s2", "A", "B", "t", "fine").ok());
  ASSERT_TRUE(net_->Send("A", "B", "t", "also fine").ok());
  EXPECT_EQ(net_->ReceiveOn("s2", "B", "A", "t")->payload, "fine");
  EXPECT_EQ(net_->Receive("B", "A", "t")->payload, "also fine");
}

TEST_P(SessionMuxTest, PurgeWakesItsBlockedReceiverAndSparesOthers) {
  // Give session S state to purge: a channel with counters and an
  // undelivered frame queued at A.
  ASSERT_TRUE(net_->SendOn("S", "B", "A", "t", "never read").ok());
  const auto arrived_by =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (net_->PendingCountOn("S", "A") != 1) {
    ASSERT_LT(std::chrono::steady_clock::now(), arrived_by);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // One receiver blocks on S, another on T, both at B from A.
  CancelToken cancel_s;
  Status s_status;
  std::chrono::steady_clock::time_point s_returned;
  std::thread s_receiver([&] {
    s_status = net_->ReceiveOn("S", "B", "A", "t", &cancel_s).status();
    s_returned = std::chrono::steady_clock::now();
  });
  Result<Message> t_result = Status::Internal("not received");
  std::thread t_receiver(
      [&] { t_result = net_->ReceiveOn("T", "B", "A", "t"); });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  net_->PurgeSession("S");
  const auto cancelled_at = std::chrono::steady_clock::now();
  cancel_s.Cancel(Status::DeadlineExceeded("session S retired"));
  s_receiver.join();
  // The purged queue's receiver was woken and re-polls its token: it
  // returns the token's typed Status within one 50 ms poll slice (plus
  // scheduling slack), not after the 5 s receive timeout.
  EXPECT_EQ(s_status.code(), StatusCode::kDeadlineExceeded)
      << s_status.ToString();
  EXPECT_LT(s_returned - cancelled_at, std::chrono::milliseconds(50 + 450));

  // T's receiver was never disturbed and still gets its frame.
  EXPECT_TRUE(net_->SendOn("T", "A", "B", "t", "for T").ok());
  t_receiver.join();
  ASSERT_TRUE(t_result.ok()) << t_result.status().ToString();
  EXPECT_EQ(t_result->payload, "for T");

  // Nothing of S is left: no frames, no counters, and no queue entry —
  // not even the one S's blocked receive created.
  EXPECT_EQ(net_->PendingCountOn("S", "A"), 0u);
  EXPECT_EQ(net_->PendingCountOn("S", "B"), 0u);
  EXPECT_EQ(net_->StatsOn("S", std::nullopt, std::nullopt).messages, 0u);
  EXPECT_EQ(net_->StatsOn("S", std::nullopt, std::nullopt).wire_bytes, 0u);
  EXPECT_EQ(transport_->QueueCountForTesting("A"), 0u);
  EXPECT_EQ(transport_->QueueCountForTesting("B"), 0u);
}

INSTANTIATE_TEST_SUITE_P(AllBackends, SessionMuxTest,
                         ::testing::Values(BackendKind::kInMemory,
                                           BackendKind::kTcp),
                         ParamName);

}  // namespace
}  // namespace ppc

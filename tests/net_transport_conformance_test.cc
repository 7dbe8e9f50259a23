// Transport-conformance suite: every `Network` backend must honor the
// same contract — FIFO per directed channel, blocking receive with
// timeout, strict topic checking, send-side byte accounting, taps,
// registry edge cases, and rejection of tampered frames. The suite runs
// identically over `InMemoryNetwork` and `TcpNetwork`, which is what makes
// the two interchangeable under the protocol stack.
//
// Every case additionally runs in a *multiplexed* mode: the backend is
// wrapped in a `SessionNetwork` view bound to session "s1" while chaff
// traffic sits queued on session "s2" of the same transport. The whole
// contract must hold bit-identically with a foreign session in flight,
// and the chaff must come out of "s2" untouched afterwards — that is the
// isolation guarantee concurrent clustering sessions rely on.
//
// A third dimension puts a `FaultyNetwork` with the `none` profile between
// the backend and the party under test (below the session view in
// multiplexed mode, the composition the chaos suites use): a wrapper that
// injects no faults must pass the whole contract through unchanged.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "net/faulty_network.h"
#include "net/in_memory_network.h"
#include "net/network.h"
#include "net/session_network.h"
#include "net/tcp_network.h"

namespace ppc {
namespace {

enum class BackendKind { kInMemory, kTcp };

struct ConformanceParam {
  BackendKind backend;
  TransportSecurity security;
  bool multiplexed;
  bool faulty = false;
};

constexpr char kChaffSession[] = "s2";
constexpr char kChaffTopic[] = "chaff.t";

std::string ParamName(const ::testing::TestParamInfo<ConformanceParam>& info) {
  std::string name = info.param.backend == BackendKind::kInMemory
                         ? "InMemory"
                         : "Tcp";
  name += info.param.security == TransportSecurity::kPlaintext ? "Plaintext"
                                                               : "Encrypted";
  if (info.param.multiplexed) name += "Mux";
  if (info.param.faulty) name += "Faulty";
  return name;
}

class TransportConformanceTest
    : public ::testing::TestWithParam<ConformanceParam> {
 protected:
  void SetUp() override {
    if (GetParam().backend == BackendKind::kInMemory) {
      base_ = std::make_unique<InMemoryNetwork>(GetParam().security);
    } else {
      TcpNetwork::Options options;
      options.security = GetParam().security;
      auto created = TcpNetwork::Create(options);
      ASSERT_TRUE(created.ok()) << created.status().ToString();
      base_ = std::move(created).TakeValue();
    }
    ASSERT_TRUE(base_->RegisterParty("A").ok());
    ASSERT_TRUE(base_->RegisterParty("B").ok());
    ASSERT_TRUE(base_->RegisterParty("TP").ok());
    // TCP delivery is asynchronous; a nonzero timeout is the contract's
    // only guaranteed way to observe a sent frame, and it must be a no-op
    // for the in-memory backend.
    base_->set_receive_timeout(std::chrono::milliseconds(5000));
    if (GetParam().multiplexed) {
      // Park chaff on a foreign session before wrapping: no case below
      // may ever observe it through the "s1"-bound view.
      ASSERT_TRUE(
          base_->SendOn(kChaffSession, "A", "B", kChaffTopic, "chaff-1").ok());
      ASSERT_TRUE(
          base_->SendOn(kChaffSession, "A", "B", kChaffTopic, "chaff-2").ok());
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(5);
      while (base_->PendingCountOn(kChaffSession, "B") != 2) {
        ASSERT_LT(std::chrono::steady_clock::now(), deadline)
            << "chaff frames never arrived";
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
    Network* under_test = base_.get();
    if (GetParam().faulty) {
      faulty_ = std::make_unique<FaultyNetwork>(base_.get(), FaultProfile{},
                                                /*seed=*/1);
      under_test = faulty_.get();
    }
    if (GetParam().multiplexed) {
      view_ = std::make_unique<SessionNetwork>(under_test, "s1");
      under_test = view_.get();
    }
    net_ = under_test;
  }

  void TearDown() override {
    if (!GetParam().multiplexed || base_ == nullptr) return;
    // Whatever the case did on "s1", the foreign session's frames are
    // still queued and still decode to their original payloads.
    EXPECT_EQ(base_->PendingCountOn(kChaffSession, "B"), 2u);
    auto first = base_->ReceiveOn(kChaffSession, "B", "A", kChaffTopic);
    ASSERT_TRUE(first.ok()) << first.status().ToString();
    EXPECT_EQ(first->payload, "chaff-1");
    EXPECT_EQ(first->session, kChaffSession);
    auto second = base_->ReceiveOn(kChaffSession, "B", "A", kChaffTopic);
    ASSERT_TRUE(second.ok()) << second.status().ToString();
    EXPECT_EQ(second->payload, "chaff-2");
  }

  /// Polls until `to` has `expected` pending messages (TCP needs the
  /// event loop to drain the socket first).
  bool WaitForPending(const std::string& to, size_t expected) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (net_->PendingCount(to) != expected) {
      if (std::chrono::steady_clock::now() > deadline) return false;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return true;
  }

  std::unique_ptr<Network> base_;
  std::unique_ptr<FaultyNetwork> faulty_;
  std::unique_ptr<SessionNetwork> view_;
  /// The network under test: the backend itself, optionally wrapped in a
  /// fault-free `FaultyNetwork`, optionally seen through its "s1" view.
  Network* net_ = nullptr;
};

TEST_P(TransportConformanceTest, DeliversPayloadIntact) {
  std::string payload("bytes \x01\x02\x00 with nul", 18);
  ASSERT_TRUE(net_->Send("A", "B", "topic.x", payload).ok());
  auto msg = net_->Receive("B", "A", "topic.x");
  ASSERT_TRUE(msg.ok()) << msg.status().ToString();
  EXPECT_EQ(msg->payload, payload);
  EXPECT_EQ(msg->from, "A");
  EXPECT_EQ(msg->to, "B");
  EXPECT_EQ(msg->topic, "topic.x");
}

TEST_P(TransportConformanceTest, FifoPerDirectedChannel) {
  for (int i = 0; i < 32; ++i) {
    ASSERT_TRUE(net_->Send("A", "B", "t", "msg-" + std::to_string(i)).ok());
  }
  for (int i = 0; i < 32; ++i) {
    auto msg = net_->Receive("B", "A", "t");
    ASSERT_TRUE(msg.ok()) << msg.status().ToString();
    EXPECT_EQ(msg->payload, "msg-" + std::to_string(i));
  }
}

TEST_P(TransportConformanceTest, InterleavedSendersSelectedByFrom) {
  ASSERT_TRUE(net_->Send("A", "TP", "t", "from-a").ok());
  ASSERT_TRUE(net_->Send("B", "TP", "t", "from-b").ok());
  EXPECT_EQ(net_->Receive("TP", "B", "t")->payload, "from-b");
  EXPECT_EQ(net_->Receive("TP", "A", "t")->payload, "from-a");
}

TEST_P(TransportConformanceTest, TopicMismatchIsProtocolViolationAndKeeps) {
  ASSERT_TRUE(net_->Send("A", "B", "actual", "x").ok());
  auto wrong = net_->Receive("B", "A", "expected");
  EXPECT_EQ(wrong.status().code(), StatusCode::kProtocolViolation);
  // The message stays queued and the next well-topiced receive gets it.
  auto right = net_->Receive("B", "A", "actual");
  ASSERT_TRUE(right.ok()) << right.status().ToString();
  EXPECT_EQ(right->payload, "x");
}

TEST_P(TransportConformanceTest, BlockingReceiveWakesOnLateArrival) {
  std::thread sender([this] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    ASSERT_TRUE(net_->Send("A", "B", "late", "worth the wait").ok());
  });
  auto msg = net_->Receive("B", "A", "late");
  sender.join();
  ASSERT_TRUE(msg.ok()) << msg.status().ToString();
  EXPECT_EQ(msg->payload, "worth the wait");
}

TEST_P(TransportConformanceTest, ManySessionsEachWakeOnTheirOwnFrame) {
  // One endpoint, 32 sessions, one blocked receiver each; the frames
  // arrive in reverse session order, two per session. Each receiver must
  // get exactly its own session's frames, in send order.
  constexpr int kSessions = 32;
  auto session_id = [](int i) { return "wake-" + std::to_string(i); };
  std::vector<Result<Message>> first(kSessions, Status::Internal("unset"));
  std::vector<Result<Message>> second(kSessions, Status::Internal("unset"));
  std::atomic<int> started{0};
  std::vector<std::thread> receivers;
  for (int i = 0; i < kSessions; ++i) {
    receivers.emplace_back([&, i] {
      started.fetch_add(1);
      first[i] = net_->ReceiveOn(session_id(i), "B", "A", "t");
      second[i] = net_->ReceiveOn(session_id(i), "B", "A", "t");
    });
  }
  while (started.load() < kSessions) std::this_thread::yield();
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  for (int i = kSessions - 1; i >= 0; --i) {
    // EXPECT, not ASSERT: the receivers must still be joined.
    EXPECT_TRUE(net_->SendOn(session_id(i), "A", "B", "t",
                             "first of " + session_id(i))
                    .ok());
    EXPECT_TRUE(net_->SendOn(session_id(i), "A", "B", "t",
                             "second of " + session_id(i))
                    .ok());
  }
  for (std::thread& receiver : receivers) receiver.join();
  for (int i = 0; i < kSessions; ++i) {
    ASSERT_TRUE(first[i].ok()) << first[i].status().ToString();
    EXPECT_EQ(first[i]->payload, "first of " + session_id(i));
    EXPECT_EQ(first[i]->session, session_id(i));
    ASSERT_TRUE(second[i].ok()) << second[i].status().ToString();
    EXPECT_EQ(second[i]->payload, "second of " + session_id(i));
  }
}

TEST_P(TransportConformanceTest, EmptyChannelTimesOutAsUnavailable) {
  net_->set_receive_timeout(std::chrono::milliseconds(50));
  const auto start = std::chrono::steady_clock::now();
  auto msg = net_->Receive("B", "A", "t");
  const auto elapsed = std::chrono::steady_clock::now() - start;
  // Typed: an exhausted blocking wait means the peer is unreachable or
  // stalled (kUnavailable); only the zero-timeout probe is kNotFound.
  EXPECT_EQ(msg.status().code(), StatusCode::kUnavailable);
  EXPECT_GE(elapsed, std::chrono::milliseconds(45));
  // The decorated message names who was waiting on whom.
  EXPECT_NE(msg.status().message().find("'A' to 'B'"), std::string::npos)
      << msg.status().message();
}

TEST_P(TransportConformanceTest, ZeroTimeoutIsImmediateNotFound) {
  net_->set_receive_timeout(std::chrono::milliseconds(0));
  EXPECT_EQ(net_->Receive("B", "A", "t").status().code(),
            StatusCode::kNotFound);
}

TEST_P(TransportConformanceTest, UnknownPartiesRejected) {
  EXPECT_EQ(net_->Send("ghost", "B", "t", "x").code(), StatusCode::kNotFound);
  EXPECT_EQ(net_->Send("A", "ghost", "t", "x").code(), StatusCode::kNotFound);
  net_->set_receive_timeout(std::chrono::milliseconds(0));
  EXPECT_EQ(net_->Receive("ghost", "A").status().code(),
            StatusCode::kNotFound);
  EXPECT_FALSE(net_->HasParty("ghost"));
  EXPECT_TRUE(net_->HasParty("A"));
}

TEST_P(TransportConformanceTest, DuplicateRegistrationRejected) {
  // Parties belong to the transport, not a session: the base rejects a
  // duplicate, while a session view tolerates it (N concurrent sessions
  // all "register" the same shared roster).
  EXPECT_EQ(base_->RegisterParty("A").code(), StatusCode::kAlreadyExists);
  if (GetParam().multiplexed) {
    EXPECT_TRUE(net_->RegisterParty("A").ok());
  }
  EXPECT_EQ(net_->RegisterParty("").code(), StatusCode::kInvalidArgument);
}

TEST_P(TransportConformanceTest, StatsCountPayloadAndWireBytesExactly) {
  ASSERT_TRUE(net_->Send("A", "B", "t", std::string(100, 'x')).ok());
  ASSERT_TRUE(net_->Send("A", "B", "t", std::string(28, 'y')).ok());
  ChannelStats stats = net_->StatsFor("A", "B");
  EXPECT_EQ(stats.messages, 2u);
  EXPECT_EQ(stats.payload_bytes, 128u);
  if (GetParam().security == TransportSecurity::kPlaintext) {
    EXPECT_EQ(stats.wire_bytes, 128u);
  } else {
    // nonce (8) + MAC (16) per message, identical on every backend.
    EXPECT_EQ(stats.wire_bytes, 128u + 2 * 24u);
  }
}

TEST_P(TransportConformanceTest, StatsAggregationsAndReset) {
  ASSERT_TRUE(net_->Send("A", "B", "t", "12345").ok());
  ASSERT_TRUE(net_->Send("A", "TP", "t", "123").ok());
  ASSERT_TRUE(net_->Send("B", "TP", "t", "1").ok());
  EXPECT_EQ(net_->TotalSentBy("A").payload_bytes, 8u);
  EXPECT_EQ(net_->GrandTotal().payload_bytes, 9u);
  EXPECT_EQ(net_->GrandTotal().messages, 3u);
  net_->ResetStats();
  EXPECT_EQ(net_->GrandTotal().messages, 0u);
}

TEST_P(TransportConformanceTest, PendingCountObservesDeliveries) {
  EXPECT_EQ(net_->PendingCount("B"), 0u);
  ASSERT_TRUE(net_->Send("A", "B", "t", "x").ok());
  ASSERT_TRUE(net_->Send("TP", "B", "t", "y").ok());
  EXPECT_TRUE(WaitForPending("B", 2));
  EXPECT_EQ(net_->PendingCount("ghost"), 0u);
}

TEST_P(TransportConformanceTest, TapSeesExactlyTheWireBytes) {
  std::vector<WireFrame> captured;
  net_->AddTap("A", "B", [&](const WireFrame& f) { captured.push_back(f); });
  ASSERT_TRUE(net_->Send("A", "B", "t", "secret-value").ok());
  ASSERT_EQ(captured.size(), 1u);
  EXPECT_EQ(captured[0].from, "A");
  EXPECT_EQ(captured[0].topic, "t");
  if (GetParam().security == TransportSecurity::kPlaintext) {
    EXPECT_EQ(captured[0].wire_bytes, "secret-value");
  } else {
    EXPECT_EQ(captured[0].wire_bytes.find("secret-value"), std::string::npos);
  }
  // Either way the legitimate receiver sees the plaintext.
  EXPECT_EQ(net_->Receive("B", "A", "t")->payload, "secret-value");
}

TEST_P(TransportConformanceTest, NoncesStayFreshAcrossResetStats) {
  if (GetParam().security != TransportSecurity::kAuthenticatedEncryption) {
    GTEST_SKIP() << "nonces only exist on the encrypted transport";
  }
  std::vector<std::string> frames;
  net_->AddTap("A", "B",
               [&](const WireFrame& f) { frames.push_back(f.wire_bytes); });
  ASSERT_TRUE(net_->Send("A", "B", "t", "same-payload").ok());
  net_->ResetStats();
  EXPECT_EQ(net_->StatsFor("A", "B").messages, 0u);
  ASSERT_TRUE(net_->Send("A", "B", "t", "same-payload").ok());
  ASSERT_EQ(frames.size(), 2u);
  // A reset must not rewind the nonce counter: identical plaintexts still
  // encrypt to different frames, and both still authenticate.
  EXPECT_NE(frames[0], frames[1]);
  EXPECT_EQ(net_->Receive("B", "A", "t")->payload, "same-payload");
  EXPECT_EQ(net_->Receive("B", "A", "t")->payload, "same-payload");
  // Counters restarted from zero after the reset.
  EXPECT_EQ(net_->StatsFor("A", "B").messages, 1u);
}

TEST_P(TransportConformanceTest, TruncatedInjectedFrameIsDataLoss) {
  if (GetParam().security != TransportSecurity::kAuthenticatedEncryption) {
    GTEST_SKIP() << "plaintext frames have no integrity envelope";
  }
  // Shorter than nonce+MAC: the receiver must flag data loss, not parse.
  ASSERT_TRUE(net_->InjectFrame("A", "B", "t", "short").ok());
  EXPECT_EQ(net_->Receive("B", "A", "t").status().code(),
            StatusCode::kDataLoss);
}

TEST_P(TransportConformanceTest, TamperedInjectedFrameFailsTheMac) {
  if (GetParam().security != TransportSecurity::kAuthenticatedEncryption) {
    GTEST_SKIP() << "plaintext frames have no integrity envelope";
  }
  ASSERT_TRUE(net_->InjectFrame("A", "B", "t", std::string(48, 'z')).ok());
  EXPECT_EQ(net_->Receive("B", "A", "t").status().code(),
            StatusCode::kProtocolViolation);
}

TEST_P(TransportConformanceTest, InjectedPlaintextFrameIsDeliveredVerbatim) {
  if (GetParam().security != TransportSecurity::kPlaintext) {
    GTEST_SKIP() << "verbatim delivery is the plaintext-mode behavior";
  }
  ASSERT_TRUE(net_->InjectFrame("A", "B", "t", "raw-wire-bytes").ok());
  auto msg = net_->Receive("B", "A", "t");
  ASSERT_TRUE(msg.ok()) << msg.status().ToString();
  EXPECT_EQ(msg->payload, "raw-wire-bytes");
}

TEST_P(TransportConformanceTest, InjectFrameSkipsAccounting) {
  ASSERT_TRUE(
      net_->InjectFrame("A", "B", "t", std::string(64, 'q')).ok());
  EXPECT_EQ(net_->StatsFor("A", "B").messages, 0u);
}

/// Every (backend, security, multiplexed, faulty) combination.
std::vector<ConformanceParam> AllParams() {
  std::vector<ConformanceParam> params;
  for (bool faulty : {false, true}) {
    for (bool multiplexed : {false, true}) {
      for (BackendKind backend : {BackendKind::kInMemory, BackendKind::kTcp}) {
        for (TransportSecurity security :
             {TransportSecurity::kPlaintext,
              TransportSecurity::kAuthenticatedEncryption}) {
          params.push_back({backend, security, multiplexed, faulty});
        }
      }
    }
  }
  return params;
}

INSTANTIATE_TEST_SUITE_P(AllBackends, TransportConformanceTest,
                         ::testing::ValuesIn(AllParams()), ParamName);

// --------------------------------------------------------- TCP-specific --

TEST(TcpNetworkTest, ListenPortIsResolved) {
  auto net = TcpNetwork::Create({});
  ASSERT_TRUE(net.ok()) << net.status().ToString();
  EXPECT_GT((*net)->listen_port(), 0);
}

TEST(TcpNetworkTest, RemoteAndLocalNamesCannotCollide) {
  auto net = TcpNetwork::Create({});
  ASSERT_TRUE(net.ok());
  ASSERT_TRUE((*net)->RegisterParty("A").ok());
  EXPECT_EQ((*net)->AddRemoteParty("A", "127.0.0.1", 1).code(),
            StatusCode::kAlreadyExists);
  ASSERT_TRUE((*net)->AddRemoteParty("R", "127.0.0.1", 1).ok());
  EXPECT_EQ((*net)->RegisterParty("R").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ((*net)->AddRemoteParty("R", "127.0.0.1", 2).code(),
            StatusCode::kAlreadyExists);
  EXPECT_TRUE((*net)->HasParty("R"));
}

TEST(TcpNetworkTest, RejectsUnparseableHosts) {
  auto net = TcpNetwork::Create({});
  ASSERT_TRUE(net.ok());
  EXPECT_EQ((*net)->AddRemoteParty("X", "not-a-host", 1).code(),
            StatusCode::kInvalidArgument);
  TcpNetwork::Options bad;
  bad.listen_host = "999.999.0.1";
  EXPECT_EQ(TcpNetwork::Create(bad).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(TcpNetworkTest, CrossEndpointDelivery) {
  // Two endpoints, one party each — the minimal genuinely-distributed
  // topology, both directions.
  auto net_a = TcpNetwork::Create({});
  auto net_b = TcpNetwork::Create({});
  ASSERT_TRUE(net_a.ok() && net_b.ok());
  ASSERT_TRUE((*net_a)->RegisterParty("A").ok());
  ASSERT_TRUE((*net_b)->RegisterParty("B").ok());
  ASSERT_TRUE(
      (*net_a)->AddRemoteParty("B", "127.0.0.1", (*net_b)->listen_port())
          .ok());
  ASSERT_TRUE(
      (*net_b)->AddRemoteParty("A", "127.0.0.1", (*net_a)->listen_port())
          .ok());
  (*net_a)->set_receive_timeout(std::chrono::milliseconds(5000));
  (*net_b)->set_receive_timeout(std::chrono::milliseconds(5000));

  ASSERT_TRUE((*net_a)->Send("A", "B", "ping", "over the wire").ok());
  auto at_b = (*net_b)->Receive("B", "A", "ping");
  ASSERT_TRUE(at_b.ok()) << at_b.status().ToString();
  EXPECT_EQ(at_b->payload, "over the wire");

  ASSERT_TRUE((*net_b)->Send("B", "A", "pong", "and back").ok());
  auto at_a = (*net_a)->Receive("A", "B", "pong");
  ASSERT_TRUE(at_a.ok()) << at_a.status().ToString();
  EXPECT_EQ(at_a->payload, "and back");

  // Send-side accounting lands on the sending endpoint.
  EXPECT_EQ((*net_a)->StatsFor("A", "B").messages, 1u);
  EXPECT_EQ((*net_b)->StatsFor("B", "A").messages, 1u);
  EXPECT_EQ((*net_a)->StatsFor("B", "A").messages, 0u);
}

TEST(TcpNetworkTest, EarlyFramesWaitForRegistrationAndThenDeliver) {
  // The multi-process startup race: a fast peer's frames reach an
  // endpoint before the slow process registers its party. They must be
  // parked and delivered on registration — losing a hello deadlocks a
  // whole protocol run.
  auto net_a = TcpNetwork::Create({});
  auto net_b = TcpNetwork::Create({});
  ASSERT_TRUE(net_a.ok() && net_b.ok());
  ASSERT_TRUE((*net_a)->RegisterParty("A").ok());
  ASSERT_TRUE(
      (*net_a)->AddRemoteParty("B", "127.0.0.1", (*net_b)->listen_port())
          .ok());
  // B's endpoint is listening but "B" is not registered yet.
  ASSERT_TRUE((*net_a)->Send("A", "B", "hello", "first").ok());
  ASSERT_TRUE((*net_a)->Send("A", "B", "hello", "second").ok());
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while ((*net_b)->UnclaimedFrameCount() < 2 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ((*net_b)->UnclaimedFrameCount(), 2u);
  EXPECT_EQ((*net_b)->PendingCount("B"), 0u);

  ASSERT_TRUE((*net_b)->RegisterParty("B").ok());
  EXPECT_EQ((*net_b)->UnclaimedFrameCount(), 0u);
  (*net_b)->set_receive_timeout(std::chrono::milliseconds(5000));
  // Drained in arrival order: per-channel FIFO survives the stash.
  EXPECT_EQ((*net_b)->Receive("B", "A", "hello")->payload, "first");
  EXPECT_EQ((*net_b)->Receive("B", "A", "hello")->payload, "second");
  EXPECT_EQ((*net_b)->DroppedFrameCount(), 0u);
}

}  // namespace
}  // namespace ppc

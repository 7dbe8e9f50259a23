// Chaos soak at the protocol level: whole clustering sessions running
// over a seeded FaultyNetwork. The acceptance bar is a tri-state that
// rules out every bad outcome class at once — under every fault profile
// a session either (a) completes with an outcome bit-identical to the
// fault-free reference, or (b) fails with a typed Status from the
// documented set, within its time budget. It never crashes, never hangs,
// and never publishes a silently different dendrogram. Failures print
// the (profile, seed) pair, which replays the schedule exactly.

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/serde.h"
#include "core/party_runner.h"
#include "core/session.h"
#include "core/session_registry.h"
#include "data/generators.h"
#include "data/partition.h"
#include "net/faulty_network.h"
#include "net/in_memory_network.h"
#include "net/session_network.h"
#include "session_test_util.h"

namespace ppc {
namespace {

using testutil::MakeSession;
using testutil::MatricesOf;
using testutil::SessionFixture;

constexpr uint64_t kEntropyBase = 9000;  // Matches MakeSession's default.

LabeledDataset MixedDataset(size_t n, uint64_t seed) {
  auto prng = MakePrng(PrngKind::kXoshiro256, seed);
  Generators::MixedOptions options;
  options.num_clusters = 3;
  return Generators::MixedClusters(n, options, Alphabet::Dna(), prng.get())
      .TakeValue();
}

ClusterRequest HierRequest() {
  ClusterRequest request;
  request.num_clusters = 3;
  return request;
}

std::string OutcomeBytes(const ClusteringOutcome& outcome) {
  ByteWriter writer;
  outcome.Serialize(&writer);
  return writer.TakeBytes();
}

/// Runs one full session (two holders + TP + clustering request) with the
/// parties talking to `wire`, returning the serialized outcome.
Result<std::string> RunSessionOver(Network* wire, const LabeledDataset& data,
                                   const std::vector<LabeledDataset>& parts,
                                   const ProtocolConfig& config) {
  const Schema& schema = data.data.schema();
  ThirdParty tp("TP", wire, config, schema, kEntropyBase);
  ClusteringSession session(wire, config, schema);
  PPC_RETURN_IF_ERROR(session.SetThirdParty(&tp));
  std::vector<std::unique_ptr<DataHolder>> holders;
  for (size_t i = 0; i < parts.size(); ++i) {
    holders.push_back(std::make_unique<DataHolder>(
        SessionFixture::HolderName(i), wire, config, kEntropyBase + 1 + i));
    PPC_RETURN_IF_ERROR(holders[i]->SetData(parts[i].data));
    PPC_RETURN_IF_ERROR(session.AddDataHolder(holders[i].get()));
  }
  PPC_RETURN_IF_ERROR(session.Run());
  auto outcome = session.RequestClustering("A", HierRequest());
  if (!outcome.ok()) return outcome.status();
  return OutcomeBytes(*outcome);
}

/// The typed failure set a chaotic session may land in: a missing frame
/// (kUnavailable after the transport timeout, or kDeadlineExceeded under
/// a session deadline), a corrupt frame (kDataLoss from the MAC check),
/// or an out-of-step frame (kProtocolViolation from the topic check).
bool IsAllowedChaosFailure(StatusCode code) {
  return code == StatusCode::kUnavailable ||
         code == StatusCode::kDeadlineExceeded ||
         code == StatusCode::kDataLoss ||
         code == StatusCode::kProtocolViolation;
}

class SessionChaosTest : public ::testing::Test {
 protected:
  void SetUp() override {
    data_ = MixedDataset(14, 11);
    parts_ = Partitioner::RoundRobin(data_, 2).TakeValue();
    // The fault-free reference every completed chaotic run must match
    // bit-for-bit.
    InMemoryNetwork clean;
    auto reference = RunSessionOver(&clean, data_, parts_, config_);
    ASSERT_TRUE(reference.ok()) << reference.status().ToString();
    reference_bytes_ = *reference;
  }

  LabeledDataset data_;
  std::vector<LabeledDataset> parts_;
  ProtocolConfig config_;
  std::string reference_bytes_;
};

TEST_F(SessionChaosTest, LossyWanCompletesBitIdentically) {
  for (uint64_t seed : {7u, 8u, 9u}) {
    SCOPED_TRACE("profile=lossy-wan seed=" + std::to_string(seed));
    InMemoryNetwork base;
    FaultyNetwork chaos(&base, FaultProfile::LossyWan(), seed);
    auto bytes = RunSessionOver(&chaos, data_, parts_, config_);
    ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
    EXPECT_EQ(*bytes, reference_bytes_);
  }
  // Across three seeds the 15%-per-frame schedule must have delayed
  // something, or the profile is a no-op and this suite proves nothing.
}

TEST_F(SessionChaosTest, EveryFaultClassCompletesBitIdenticallyOrFailsTyped) {
  struct Case {
    const char* label;
    FaultProfile profile;
  };
  std::vector<Case> cases;
  {
    Case c{"drop", {}};
    c.profile.drop_probability = 0.03;
    cases.push_back(c);
  }
  {
    Case c{"corrupt", {}};
    c.profile.corrupt_probability = 0.03;
    cases.push_back(c);
  }
  {
    Case c{"duplicate", {}};
    c.profile.duplicate_probability = 0.10;
    cases.push_back(c);
  }
  {
    Case c{"reorder", {}};
    c.profile.reorder_probability = 0.10;
    cases.push_back(c);
  }
  {
    Case c{"crashy-peer", FaultProfile::CrashyPeer()};
    cases.push_back(c);
  }
  {
    Case c{"everything", {}};
    c.profile.drop_probability = 0.02;
    c.profile.corrupt_probability = 0.02;
    c.profile.duplicate_probability = 0.05;
    c.profile.reorder_probability = 0.05;
    c.profile.delay_probability = 0.10;
    c.profile.max_delay_ms = 2;
    cases.push_back(c);
  }

  size_t completed = 0;
  size_t failed_typed = 0;
  for (const Case& c : cases) {
    for (uint64_t seed = 1; seed <= 3; ++seed) {
      SCOPED_TRACE("profile=" + std::string(c.label) +
                   " seed=" + std::to_string(seed) +
                   " (replay: FaultyNetwork(base, profile, seed))");
      InMemoryNetwork base;
      // A dropped frame surfaces as a typed timeout after this budget;
      // the whole run is further bounded by the session deadline below.
      base.set_receive_timeout(std::chrono::milliseconds(250));
      FaultyNetwork chaos(&base, c.profile, seed);
      ProtocolConfig config = config_;
      config.deadline_ms = 20000;
      auto bytes = RunSessionOver(&chaos, data_, parts_, config);
      if (bytes.ok()) {
        ++completed;
        EXPECT_EQ(*bytes, reference_bytes_)
            << "a chaotic session completed with a DIFFERENT outcome — "
               "silent corruption";
      } else {
        ++failed_typed;
        EXPECT_TRUE(IsAllowedChaosFailure(bytes.status().code()))
            << bytes.status().ToString();
      }
    }
  }
  // The matrix must exercise both arms or the tri-state proves nothing:
  // benign schedules that complete, and destructive ones that fail typed.
  EXPECT_GT(completed, 0u);
  EXPECT_GT(failed_typed, 0u);
}

TEST_F(SessionChaosTest, SessionDeadlineCutsAStalledRunTyped) {
  InMemoryNetwork base;
  // The transport alone would park each receive for 30 s; the session
  // deadline must cut the whole run far earlier with the typed code.
  base.set_receive_timeout(std::chrono::milliseconds(30000));
  FaultProfile black_hole;
  black_hole.drop_probability = 1.0;
  FaultyNetwork chaos(&base, black_hole, 1);
  ProtocolConfig config = config_;
  config.deadline_ms = 300;
  const auto start = std::chrono::steady_clock::now();
  auto bytes = RunSessionOver(&chaos, data_, parts_, config);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  ASSERT_FALSE(bytes.ok());
  EXPECT_EQ(bytes.status().code(), StatusCode::kDeadlineExceeded)
      << bytes.status().ToString();
  // Deadline, not transport timeout, ended the wait (generous slack for
  // a loaded CI box — the point is "seconds, not half a minute").
  EXPECT_LT(elapsed, std::chrono::seconds(10));
  // The error names the waiting channel so a stuck deployment is
  // debuggable from one log line.
  EXPECT_NE(bytes.status().message().find("session"), std::string::npos)
      << bytes.status().ToString();
}

TEST_F(SessionChaosTest, OneSabotagedSessionAmongEightFailsAloneTyped) {
  // Eight concurrent registry sessions over ONE shared transport; session
  // index 3 wraps its session view in a chaos wrapper whose channels go
  // dark after a few frames (its "peer" dies mid-protocol). The seven
  // clean siblings must complete bit-identically to fresh references; the
  // sabotaged one must fail typed — and take only its own state with it.
  constexpr size_t kSessions = 8;
  constexpr size_t kSabotaged = 3;

  struct Run {
    std::string id;
    LabeledDataset data;
    std::vector<LabeledDataset> parts;
    ProtocolConfig config;
    Result<ClusteringOutcome> outcome{Status::Internal("never ran")};
  };
  std::vector<Run> runs(kSessions);
  for (size_t i = 0; i < kSessions; ++i) {
    runs[i].id = "job-" + std::to_string(i + 1);
    runs[i].data = MixedDataset(12, 40 + i);
    runs[i].parts = Partitioner::RoundRobin(runs[i].data, 2).TakeValue();
  }

  InMemoryNetwork net;
  ASSERT_TRUE(net.RegisterParty("TP").ok());
  ASSERT_TRUE(net.RegisterParty("A").ok());
  ASSERT_TRUE(net.RegisterParty("B").ok());
  net.set_receive_timeout(std::chrono::milliseconds(20000));

  SessionPlan plan;
  plan.holder_order = {"A", "B"};
  SessionRegistry registry(&net);

  for (size_t i = 0; i < kSessions; ++i) {
    Run* run = &runs[i];
    const bool sabotage = i == kSabotaged;
    Status started = registry.StartSession(run->id, [run, &plan, &net,
                                                     sabotage](
                                                        Network* snet,
                                                        CancelToken* cancel) {
      // The sabotaged session composes its own stack over the SHARED
      // transport — session view over chaos wrapper — so only THIS
      // session's frames die. The deadline bounds how long its blocked
      // peers can wait on frames that will never come.
      FaultProfile profile;
      profile.disconnect_after_frames = 6;
      FaultyNetwork chaos(&net, profile, /*seed=*/5);
      SessionNetwork chaotic_view(&chaos, run->id);
      Network* wire = sabotage ? static_cast<Network*>(&chaotic_view) : snet;
      // Short deadline for the session whose peers will block on frames a
      // dead channel never sends; a generous backstop for the clean ones.
      cancel->ArmDeadline(sabotage ? 3000 : 60000);
      const Schema& schema = run->data.data.schema();
      ThirdParty tp("TP", wire, run->config, schema, kEntropyBase);
      tp.BindCancelToken(cancel);
      DataHolder a("A", wire, run->config, kEntropyBase + 1);
      DataHolder b("B", wire, run->config, kEntropyBase + 2);
      a.BindCancelToken(cancel);
      b.BindCancelToken(cancel);
      PPC_RETURN_IF_ERROR(a.SetData(run->parts[0].data));
      PPC_RETURN_IF_ERROR(b.SetData(run->parts[1].data));
      Status tp_status, b_status;
      std::thread tp_thread([&] {
        tp_status = PartyRunner::RunThirdParty(&tp, plan, schema);
        if (tp_status.ok()) tp_status = tp.ServeClusterRequest("A");
      });
      std::thread b_thread([&] {
        b_status = PartyRunner::RunHolder(&b, plan, schema);
      });
      Status a_status = PartyRunner::RunHolder(&a, plan, schema);
      if (a_status.ok()) {
        run->outcome = PartyRunner::RequestClustering(&a, plan, HierRequest());
      }
      tp_thread.join();
      b_thread.join();
      PPC_RETURN_IF_ERROR(a_status);
      PPC_RETURN_IF_ERROR(b_status);
      PPC_RETURN_IF_ERROR(tp_status);
      return run->outcome.status();
    });
    ASSERT_TRUE(started.ok()) << started.ToString();
  }

  for (size_t i = 0; i < kSessions; ++i) {
    Status status = registry.WaitSession(runs[i].id);
    if (i == kSabotaged) {
      ASSERT_FALSE(status.ok()) << "the sabotaged session completed?";
      EXPECT_TRUE(IsAllowedChaosFailure(status.code())) << status.ToString();
      continue;
    }
    ASSERT_TRUE(status.ok()) << runs[i].id << ": " << status.ToString();
    SessionFixture ref = MakeSession(runs[i].data.data.schema(),
                                     MatricesOf(runs[i].parts), runs[i].config)
                             .TakeValue();
    ASSERT_TRUE(ref.session->Run().ok());
    ClusteringOutcome ref_outcome =
        ref.session->RequestClustering("A", HierRequest()).TakeValue();
    ASSERT_TRUE(runs[i].outcome.ok());
    EXPECT_EQ(OutcomeBytes(*runs[i].outcome), OutcomeBytes(ref_outcome))
        << runs[i].id;
  }
  EXPECT_EQ(registry.ActiveCount(), 0u);
}

TEST(SessionCancelTest, CancelSessionUnwedgesABlockedReceivePromptly) {
  InMemoryNetwork net;
  ASSERT_TRUE(net.RegisterParty("A").ok());
  ASSERT_TRUE(net.RegisterParty("TP").ok());
  // Long enough that only cancellation can explain a prompt return.
  net.set_receive_timeout(std::chrono::milliseconds(30000));

  SessionRegistry registry(&net);
  const auto start = std::chrono::steady_clock::now();
  ASSERT_TRUE(registry
                  .StartSession("stuck",
                                [](Network* snet, CancelToken* cancel) {
                                  // Waits on a frame that never comes.
                                  return snet->Receive("A", "TP", "never",
                                                       cancel)
                                      .status();
                                })
                  .ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  ASSERT_TRUE(registry
                  .CancelSession("stuck",
                                 Status::Unavailable("peer killed by test"))
                  .ok());
  Status result = registry.WaitSession("stuck");
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_EQ(result.code(), StatusCode::kUnavailable) << result.ToString();
  EXPECT_NE(result.message().find("peer killed by test"), std::string::npos)
      << result.ToString();
  // The worker came back within poll-slice time, not the 30 s timeout.
  EXPECT_LT(elapsed, std::chrono::seconds(10));

  // Cancelling an unknown id is typed, and cancelling a finished session
  // is a harmless no-op.
  EXPECT_EQ(registry.CancelSession("ghost", Status::OK()).code(),
            StatusCode::kNotFound);
  EXPECT_TRUE(registry.CancelSession("stuck", Status::OK()).ok());
  registry.CancelAll(Status::Unavailable("shutdown"));
}

}  // namespace
}  // namespace ppc

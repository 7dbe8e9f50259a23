// SessionRegistry: N complete clustering protocol executions running
// concurrently over ONE shared transport — every session's frames cross
// the same registered parties (and, on TCP, the same pooled loopback
// connections), demultiplexed purely by session id. The acceptance bar is
// the same as for the transport abstraction itself: each concurrent
// session's third-party matrices and published outcome must be
// bit-identical to a fresh single-session in-memory run of the same
// dataset and seeds. Any cross-session frame leakage, key sharing, or
// queue interleave breaks that equality loudly.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/serde.h"
#include "core/party_runner.h"
#include "core/session_registry.h"
#include "core/topics.h"
#include "data/generators.h"
#include "data/partition.h"
#include "net/in_memory_network.h"
#include "net/tcp_network.h"
#include "session_test_util.h"

namespace ppc {
namespace {

using testutil::MakeSession;
using testutil::MatricesOf;
using testutil::SessionFixture;

constexpr uint64_t kEntropyBase = 9000;  // Matches MakeSession's default.
constexpr std::chrono::milliseconds kNetTimeout{20000};

enum class BackendKind { kInMemory, kTcp };

std::string ParamName(const ::testing::TestParamInfo<BackendKind>& info) {
  return info.param == BackendKind::kInMemory ? "InMemory" : "Tcp";
}

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

void ExpectSameMatrices(const ThirdParty& got_tp, const ThirdParty& ref_tp,
                        const Schema& schema, const std::string& session_id) {
  for (size_t c = 0; c < schema.size(); ++c) {
    const DissimilarityMatrix* got =
        got_tp.AttributeMatrixForTesting(c).TakeValue();
    const DissimilarityMatrix* reference =
        ref_tp.AttributeMatrixForTesting(c).TakeValue();
    EXPECT_EQ(got->packed_cells(), reference->packed_cells())
        << "session " << session_id << ", attribute " << c << " ("
        << schema.attribute(c).name << ")";
  }
}

/// Everything one concurrent session owns. Each session clusters a
/// DIFFERENT dataset (its own seed) with the SAME party names and entropy
/// seeds — so any frame that strays across sessions changes a matrix and
/// fails the bit-equality below.
struct SessionRun {
  std::string id;
  uint64_t data_seed = 0;
  LabeledDataset data;
  std::vector<LabeledDataset> parts;
  ProtocolConfig config;
  std::unique_ptr<ThirdParty> tp;
  std::vector<std::unique_ptr<DataHolder>> holders;
  Result<ClusteringOutcome> outcome{Status::Internal("session never ran")};
};

class MultiSessionTest : public ::testing::TestWithParam<BackendKind> {
 protected:
  void SetUp() override {
    if (GetParam() == BackendKind::kInMemory) {
      net_ = std::make_unique<InMemoryNetwork>();
    } else {
      auto created = TcpNetwork::Create({});
      ASSERT_TRUE(created.ok()) << created.status().ToString();
      net_ = std::move(created).TakeValue();
    }
    // Parties belong to the shared transport; sessions share the roster.
    ASSERT_TRUE(net_->RegisterParty("TP").ok());
    ASSERT_TRUE(net_->RegisterParty("A").ok());
    ASSERT_TRUE(net_->RegisterParty("B").ok());
    net_->set_receive_timeout(kNetTimeout);
  }

  std::unique_ptr<Network> net_;
};

TEST_P(MultiSessionTest, ConcurrentSessionsMatchSingleSessionBitForBit) {
  SessionPlan plan;
  plan.holder_order = {"A", "B"};

  std::vector<SessionRun> runs(3);
  for (size_t i = 0; i < runs.size(); ++i) {
    runs[i].id = "job-" + std::to_string(i + 1);
    runs[i].data_seed = 5 + i;
    runs[i].data = MixedDataset(18, runs[i].data_seed);
    runs[i].parts = Partitioner::RoundRobin(runs[i].data, 2).TakeValue();
  }

  SessionRegistry registry(net_.get());
  for (size_t i = 0; i < runs.size(); ++i) {
    SessionRun* run = &runs[i];
    Status started = registry.StartSession(run->id, [run, &plan](
                                                        Network* snet,
                                                        CancelToken*) {
      const Schema& schema = run->data.data.schema();
      run->tp = std::make_unique<ThirdParty>("TP", snet, run->config, schema,
                                             kEntropyBase);
      for (size_t h = 0; h < run->parts.size(); ++h) {
        run->holders.push_back(std::make_unique<DataHolder>(
            plan.holder_order[h], snet, run->config, kEntropyBase + 1 + h));
        PPC_RETURN_IF_ERROR(run->holders[h]->SetData(run->parts[h].data));
      }
      // Within the session the roles are still concurrent peers: third
      // party and holder B on their own threads, holder A driving the
      // clustering request inline.
      Status tp_status, b_status;
      std::thread tp_thread([&] {
        tp_status = PartyRunner::RunThirdParty(run->tp.get(), plan, schema);
        if (tp_status.ok()) tp_status = run->tp->ServeClusterRequest("A");
      });
      std::thread b_thread([&] {
        b_status =
            PartyRunner::RunHolder(run->holders[1].get(), plan, schema);
      });
      Status a_status =
          PartyRunner::RunHolder(run->holders[0].get(), plan, schema);
      if (a_status.ok()) {
        run->outcome = PartyRunner::RequestClustering(run->holders[0].get(),
                                                      plan, HierRequest());
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

  // Ids are single-use, even while running.
  EXPECT_EQ(registry.StartSession("job-1", [](Network*, CancelToken*) {
    return Status::OK();
  }).code(),
            StatusCode::kAlreadyExists);

  Status all = registry.WaitAll();
  ASSERT_TRUE(all.ok()) << all.ToString();
  EXPECT_EQ(registry.ActiveCount(), 0u);
  EXPECT_EQ(registry.SessionIds(),
            (std::vector<std::string>{"job-1", "job-2", "job-3"}));

  // Each concurrent run equals its own fresh single-session reference.
  for (SessionRun& run : runs) {
    SessionFixture ref =
        MakeSession(run.data.data.schema(), MatricesOf(run.parts), run.config)
            .TakeValue();
    ASSERT_TRUE(ref.session->Run().ok());
    ClusteringOutcome ref_outcome =
        ref.session->RequestClustering("A", HierRequest()).TakeValue();

    ASSERT_TRUE(run.outcome.ok()) << run.id << ": "
                                  << run.outcome.status().ToString();
    ExpectSameMatrices(*run.tp, *ref.third_party, run.data.data.schema(),
                       run.id);
    EXPECT_EQ(run.outcome->ToString(), ref_outcome.ToString()) << run.id;
    if (run.outcome->silhouette && ref_outcome.silhouette) {
      EXPECT_DOUBLE_EQ(*run.outcome->silhouette, *ref_outcome.silhouette);
    }
  }

  // The shared transport really carried every session: per-session
  // accounting is non-empty and distinct per session id.
  for (const SessionRun& run : runs) {
    EXPECT_GT(net_->TotalSentByOn(run.id, "TP").messages, 0u) << run.id;
  }
  EXPECT_EQ(net_->TotalSentByOn("job-never", "TP").messages, 0u);
}

TEST_P(MultiSessionTest, RegistrySemantics) {
  SessionRegistry registry(net_.get());

  // Empty id is the transport's default session — refused.
  EXPECT_EQ(registry.StartSession("", [](Network*, CancelToken*) {
    return Status::OK();
  }).code(),
            StatusCode::kInvalidArgument);
  // Waiting on an unknown id is kNotFound, not a hang.
  EXPECT_EQ(registry.WaitSession("ghost").code(), StatusCode::kNotFound);

  // Three bodies that each block until all three are running: proof the
  // registry really runs sessions concurrently, not serially.
  std::mutex mutex;
  std::condition_variable all_started;
  int started = 0;
  auto rendezvous = [&](Network* snet, CancelToken*) -> Status {
    EXPECT_NE(snet, nullptr);
    std::unique_lock<std::mutex> lock(mutex);
    if (++started == 3) all_started.notify_all();
    const bool ok = all_started.wait_for(
        lock, std::chrono::seconds(10), [&] { return started == 3; });
    return ok ? Status::OK()
              : Status::Internal("peers never started — sessions serialized?");
  };
  for (const char* id : {"r1", "r2", "r3"}) {
    ASSERT_TRUE(registry.StartSession(id, rendezvous).ok());
  }
  EXPECT_TRUE(registry.WaitSession("r2").ok());
  EXPECT_TRUE(registry.WaitAll().ok());
  // WaitSession stays callable after completion and returns the result.
  EXPECT_TRUE(registry.WaitSession("r2").ok());

  // A failed session's status is decorated with its id by WaitAll.
  ASSERT_TRUE(registry
                  .StartSession("bad",
                                [](Network*, CancelToken*) {
                                  return Status::Internal("body exploded");
                                })
                  .ok());
  Status all = registry.WaitAll();
  EXPECT_EQ(all.code(), StatusCode::kInternal);
  EXPECT_NE(all.message().find("session 'bad'"), std::string::npos)
      << all.ToString();
  EXPECT_NE(all.message().find("body exploded"), std::string::npos);
}

TEST_P(MultiSessionTest, WaitSessionNeverReturnsBeforeBodyFinishes) {
  // Regression: StartSession used to publish the entry into the registry
  // and only then, outside every lock, assign the worker thread handle. A
  // WaitSession racing into that window found a default-constructed
  // handle (joinable() == false) and returned the default-OK result while
  // the body was still running. The waiter below starts before the
  // session exists and joins the instant the id becomes findable — with
  // the old ordering this trips the finished-flag assertion within a few
  // iterations; with the worker assigned under the registry lock it can
  // never fire. (The TSan CI job additionally catches the old ordering
  // deterministically: the handle write raced the waiter's locked read
  // with no happens-before edge.)
  for (int round = 0; round < 200; ++round) {
    SessionRegistry registry(net_.get());
    const std::string id = "racy-" + std::to_string(round);
    std::atomic<bool> finished{false};

    std::thread waiter([&] {
      for (;;) {
        Status status = registry.WaitSession(id);
        if (status.code() == StatusCode::kNotFound) continue;  // Not yet.
        EXPECT_TRUE(status.ok()) << status.ToString();
        EXPECT_TRUE(finished.load(std::memory_order_acquire))
            << "WaitSession returned before the session body finished";
        return;
      }
    });

    ASSERT_TRUE(registry
                    .StartSession(id,
                                  [&](Network*, CancelToken*) {
                                    std::this_thread::sleep_for(
                                        std::chrono::milliseconds(2));
                                    finished.store(
                                        true, std::memory_order_release);
                                    return Status::OK();
                                  })
                    .ok());
    waiter.join();
  }
}

TEST(SessionEntropySeedTest, KeyedBySeedAndSession) {
  EXPECT_EQ(SessionEntropySeed(1, "job-1"), SessionEntropySeed(1, "job-1"));
  EXPECT_NE(SessionEntropySeed(1, "job-1"), SessionEntropySeed(1, "job-2"));
  EXPECT_NE(SessionEntropySeed(1, "job-1"), SessionEntropySeed(2, "job-1"));
}

TEST(SessionEntropySeedTest, ResidentPartiesUseFreshKeysPerSession) {
  // A resident fleet (the `serve` daemon's shape): the same parties, base
  // seeds and data serve session after session on one registry. Seeding
  // each session's parties from (base seed, session id) gives every
  // session its own DH keys, so no pair seed or mask stream repeats, while
  // the published outcome stays byte-identical. Plaintext frames, so a
  // tap sees the public values themselves.
  InMemoryNetwork net(TransportSecurity::kPlaintext);
  for (const char* party : {"TP", "A", "B"}) {
    ASSERT_TRUE(net.RegisterParty(party).ok());
  }
  net.set_receive_timeout(kNetTimeout);
  const LabeledDataset data = MixedDataset(18, 5);
  const std::vector<LabeledDataset> parts =
      Partitioner::RoundRobin(data, 2).TakeValue();
  const Schema& schema = data.data.schema();
  SessionPlan plan;
  plan.holder_order = {"A", "B"};
  const ProtocolConfig config;

  const std::vector<std::string> ids = {"job-1", "job-2"};
  std::mutex mutex;
  std::map<std::string, std::vector<std::string>> dh_frames;  // By session.
  std::map<std::string, std::string> outcomes;
  for (const std::string& id : ids) {
    for (const auto& [from, to] :
         {std::pair{"A", "B"}, std::pair{"A", "TP"}, std::pair{"TP", "B"}}) {
      net.AddTapOn(id, from, to, [&](const WireFrame& frame) {
        if (frame.topic != topics::kDhPublic) return;
        std::lock_guard<std::mutex> lock(mutex);
        dh_frames[frame.session].push_back(frame.wire_bytes);
      });
    }
  }

  SessionRegistry registry(&net);
  for (const std::string& id : ids) {
    Status started = registry.StartSession(id, [&, id](Network* snet,
                                                       CancelToken* cancel) {
      ThirdParty tp("TP", snet, config, schema,
                    SessionEntropySeed(kEntropyBase, id));
      DataHolder a("A", snet, config, SessionEntropySeed(kEntropyBase + 1, id));
      DataHolder b("B", snet, config, SessionEntropySeed(kEntropyBase + 2, id));
      for (auto* party : {&a, &b}) party->BindCancelToken(cancel);
      tp.BindCancelToken(cancel);
      PPC_RETURN_IF_ERROR(a.SetData(parts[0].data));
      PPC_RETURN_IF_ERROR(b.SetData(parts[1].data));
      Status tp_status, b_status;
      std::thread tp_thread([&] {
        tp_status = PartyRunner::RunThirdParty(&tp, plan, schema);
        if (tp_status.ok()) tp_status = tp.ServeClusterRequest("A");
      });
      std::thread b_thread(
          [&] { b_status = PartyRunner::RunHolder(&b, plan, schema); });
      Status a_status = PartyRunner::RunHolder(&a, plan, schema);
      Result<ClusteringOutcome> outcome{Status::Internal("never requested")};
      if (a_status.ok()) {
        outcome = PartyRunner::RequestClustering(&a, plan, HierRequest());
      }
      tp_thread.join();
      b_thread.join();
      PPC_RETURN_IF_ERROR(a_status);
      PPC_RETURN_IF_ERROR(b_status);
      PPC_RETURN_IF_ERROR(tp_status);
      if (!outcome.ok()) return outcome.status();
      ByteWriter writer;
      outcome->Serialize(&writer);
      std::lock_guard<std::mutex> lock(mutex);
      outcomes[id] = writer.TakeBytes();
      return Status::OK();
    });
    ASSERT_TRUE(started.ok()) << started.ToString();
  }
  Status all = registry.WaitAll();
  ASSERT_TRUE(all.ok()) << all.ToString();

  // Each tapped channel carried one public value per session, and no
  // session repeated another's.
  ASSERT_EQ(dh_frames["job-1"].size(), 3u);
  ASSERT_EQ(dh_frames["job-2"].size(), 3u);
  for (const std::string& first : dh_frames["job-1"]) {
    for (const std::string& second : dh_frames["job-2"]) {
      EXPECT_NE(first, second);
    }
  }
  ASSERT_FALSE(outcomes["job-1"].empty());
  EXPECT_EQ(outcomes["job-1"], outcomes["job-2"]);
}

INSTANTIATE_TEST_SUITE_P(AllBackends, MultiSessionTest,
                         ::testing::Values(BackendKind::kInMemory,
                                           BackendKind::kTcp),
                         ParamName);

}  // namespace
}  // namespace ppc

// Schedule-graph tests: the dependency-tracked protocol schedule
// (core/schedule.h) must (a) expose the structure the paper's message
// dance implies — backward-pointing edges, per-channel FIFO pinned by
// data/channel edges, phase-5 parallelism even at k = 2 — and (b) drive
// all three executors (`ClusteringSession::Run` on one worker and on four,
// and the per-party projection) to bit-identical third-party state, across
// schema types, masking modes, party counts, and both transport backends.

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "core/party_runner.h"
#include "core/schedule.h"
#include "core/topics.h"
#include "data/generators.h"
#include "data/partition.h"
#include "net/tcp_network.h"
#include "session_test_util.h"

namespace ppc {
namespace {

using testutil::MakeSession;
using testutil::MatricesOf;
using testutil::SessionFixture;

Schema NumericSchema(size_t attributes) {
  std::vector<AttributeSpec> specs;
  for (size_t a = 0; a < attributes; ++a) {
    specs.push_back({"n" + std::to_string(a), AttributeType::kReal});
  }
  return Schema::Create(specs).TakeValue();
}

SessionPlan TwoHolderPlan() {
  SessionPlan plan;
  plan.holder_order = {"A", "B"};
  return plan;
}

// -- Graph structure ---------------------------------------------------------

TEST(ScheduleBuildTest, RejectsBadPlans) {
  Schema schema = NumericSchema(1);
  SessionPlan plan;
  plan.holder_order = {"A"};
  EXPECT_EQ(Schedule::Build(plan, schema).status().code(),
            StatusCode::kFailedPrecondition);
  plan.holder_order = {"A", "A"};
  EXPECT_EQ(Schedule::Build(plan, schema).status().code(),
            StatusCode::kInvalidArgument);
  plan.holder_order = {"A", "B"};
  plan.third_party = "";
  EXPECT_EQ(Schedule::Build(plan, schema).status().code(),
            StatusCode::kInvalidArgument);
  plan.third_party = "A";
  EXPECT_EQ(Schedule::Build(plan, schema).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(ScheduleBuildTest, DepsPointStrictlyBackward) {
  auto prng = MakePrng(PrngKind::kXoshiro256, 1);
  LabeledDataset data =
      Generators::MixedClusters(12, {}, Alphabet::Dna(), prng.get())
          .TakeValue();
  SessionPlan plan;
  plan.holder_order = {"A", "B", "C"};
  Schedule schedule =
      Schedule::Build(plan, data.data.schema()).TakeValue();
  ASSERT_GT(schedule.steps().size(), 0u);
  for (size_t i = 0; i < schedule.steps().size(); ++i) {
    for (uint32_t dep : schedule.steps()[i].deps) {
      EXPECT_LT(dep, i) << "step " << i << " ("
                        << StepKindToString(schedule.steps()[i].kind)
                        << ") depends forward";
    }
  }
  // Exactly one terminal normalize step, and it is last.
  EXPECT_EQ(schedule.steps().back().kind, StepKind::kNormalize);
  EXPECT_EQ(schedule.steps().back().phase, 6);
}

TEST(ScheduleBuildTest, EveryReceiveConsumesAMatchingEarlierSend) {
  auto prng = MakePrng(PrngKind::kXoshiro256, 2);
  LabeledDataset data =
      Generators::MixedClusters(12, {}, Alphabet::Dna(), prng.get())
          .TakeValue();
  SessionPlan plan = TwoHolderPlan();
  Schedule schedule =
      Schedule::Build(plan, data.data.schema()).TakeValue();
  const auto& steps = schedule.steps();
  for (const ScheduleStep& step : steps) {
    if (!step.receives) continue;
    bool has_data_dep = false;
    for (uint32_t dep : step.deps) {
      const ScheduleStep& source = steps[dep];
      // Single-channel send with matching topic + channel, or a
      // broadcast-style step by the expected sender (those carry no
      // per-channel topic tag of their own).
      if ((source.sends && source.topic == step.topic &&
           source.actor == step.peer && source.peer == step.actor) ||
          ((source.kind == StepKind::kBroadcastRoster ||
            source.kind == StepKind::kCategoricalKeySend) &&
           source.actor == step.peer)) {
        has_data_dep = true;
      }
    }
    EXPECT_TRUE(has_data_dep)
        << StepKindToString(step.kind) << " at " << step.actor << " from "
        << step.peer << " lacks a matching send dependency";
  }
}

TEST(ScheduleStructureTest, FineGraphUnserializesPhase5ForTwoParties) {
  // With k = 2 there is a single responder; a schedule that grouped its
  // rounds would run them strictly one after another. The graph must
  // expose phase-5 steps that are ready together.
  Schema schema = NumericSchema(3);
  SessionPlan plan = TwoHolderPlan();
  Schedule fine = Schedule::Build(plan, schema).TakeValue();
  EXPECT_GT(fine.MaxReadyWidth(5), 1u);
}

TEST(ScheduleStructureTest, Phase5CanOverlapPhase4Stragglers) {
  // An initiator's phase-5 masking must not wait for phase-4 local-matrix
  // work: in some wave, a phase-4 and a phase-5 step are ready together.
  Schema schema = NumericSchema(2);
  SessionPlan plan = TwoHolderPlan();
  Schedule schedule = Schedule::Build(plan, schema).TakeValue();
  std::vector<size_t> phase4 = schedule.ReadySetWidths(4);
  std::vector<size_t> phase5 = schedule.ReadySetWidths(5);
  ASSERT_EQ(phase4.size(), phase5.size());
  bool overlap = false;
  for (size_t wave = 0; wave < phase4.size(); ++wave) {
    if (phase4[wave] > 0 && phase5[wave] > 0) overlap = true;
  }
  EXPECT_TRUE(overlap);
}

TEST(ScheduleStructureTest, TopicsTagPhases) {
  auto prng = MakePrng(PrngKind::kXoshiro256, 3);
  LabeledDataset data =
      Generators::MixedClusters(12, {}, Alphabet::Dna(), prng.get())
          .TakeValue();
  Schedule schedule =
      Schedule::Build(TwoHolderPlan(), data.data.schema()).TakeValue();
  std::map<std::string, int> phases = schedule.TopicPhases();
  EXPECT_EQ(phases.at(topics::kHello), 1);
  EXPECT_EQ(phases.at(topics::kRoster), 1);
  EXPECT_EQ(phases.at(topics::kDhPublic), 2);
  EXPECT_EQ(phases.at(topics::kCategoricalKey), 3);
  EXPECT_EQ(phases.at(topics::kLocalMatrix), 4);
  EXPECT_EQ(phases.at(topics::kNumericMasked), 5);
  EXPECT_EQ(phases.at(topics::kNumericComparison), 5);
  EXPECT_EQ(phases.at(topics::kAlnumMasked), 5);
  EXPECT_EQ(phases.at(topics::kAlnumGrids), 5);
  EXPECT_EQ(phases.at(topics::kCategoricalTokens), 5);
}

// -- Three-executor bit-equality matrix --------------------------------------

LabeledDataset DatasetOfKind(const std::string& kind, size_t n,
                             uint64_t seed) {
  auto prng = MakePrng(PrngKind::kXoshiro256, seed);
  if (kind == "numeric") {
    return Generators::GaussianMixture(
               n,
               {{{0.0, 0.0}, 1.0, 1.0},
                {{9.0, 9.0}, 1.0, 1.0},
                {{-9.0, 9.0}, 1.0, 1.0}},
               prng.get())
        .TakeValue();
  }
  if (kind == "alphanumeric") {
    return Generators::DnaSequences(n, {}, prng.get()).TakeValue();
  }
  if (kind == "categorical") {
    return Generators::CategoricalClusters(n, {}, prng.get()).TakeValue();
  }
  Generators::MixedOptions options;
  options.string_length = 8;
  return Generators::MixedClusters(n, options, Alphabet::Dna(), prng.get())
      .TakeValue();
}

ClusterRequest HierRequest() {
  ClusterRequest request;
  request.num_clusters = 3;
  return request;
}

void ExpectSameMatrices(const ThirdParty& got, const ThirdParty& want,
                        const Schema& schema, const std::string& label) {
  for (size_t c = 0; c < schema.size(); ++c) {
    const DissimilarityMatrix* got_matrix =
        got.AttributeMatrixForTesting(c).TakeValue();
    const DissimilarityMatrix* want_matrix =
        want.AttributeMatrixForTesting(c).TakeValue();
    EXPECT_EQ(got_matrix->packed_cells(), want_matrix->packed_cells())
        << label << ": attribute " << c << " ("
        << schema.attribute(c).name << ") diverged";
  }
}

/// Runs the per-party projection: every party on its own thread over one
/// shared in-memory network, synchronized by blocking receives alone.
void RunPartyProjection(const std::vector<LabeledDataset>& parts,
                        const ProtocolConfig& config, const Schema& schema,
                        ThirdParty* tp,
                        std::vector<std::unique_ptr<DataHolder>>* holders,
                        InMemoryNetwork* net, const SessionPlan& plan) {
  net->set_receive_timeout(std::chrono::seconds(20));
  ASSERT_TRUE(net->RegisterParty(plan.third_party).ok());
  for (size_t i = 0; i < parts.size(); ++i) {
    ASSERT_TRUE(net->RegisterParty(plan.holder_order[i]).ok());
    holders->push_back(std::make_unique<DataHolder>(
        plan.holder_order[i], net, config, 9001 + i));
    ASSERT_TRUE((*holders)[i]->SetData(parts[i].data).ok());
  }
  Status tp_status;
  std::vector<Status> holder_status(parts.size());
  std::thread tp_thread([&] {
    tp_status = PartyRunner::RunThirdParty(tp, plan, schema);
  });
  std::vector<std::thread> holder_threads;
  for (size_t i = 0; i < parts.size(); ++i) {
    holder_threads.emplace_back([&, i] {
      holder_status[i] =
          PartyRunner::RunHolder((*holders)[i].get(), plan, schema);
    });
  }
  for (std::thread& thread : holder_threads) thread.join();
  tp_thread.join();
  ASSERT_TRUE(tp_status.ok()) << tp_status.ToString();
  for (size_t i = 0; i < parts.size(); ++i) {
    ASSERT_TRUE(holder_status[i].ok()) << holder_status[i].ToString();
  }
}

/// Runs the per-party projection with `num_threads` row-kernel threads
/// per party, then serves one clustering request over it. Requires the
/// projection's matrices and outcome to equal the sequential session's.
void ExpectProjectionAgrees(const std::vector<LabeledDataset>& parts,
                            const Schema& schema, MaskingMode masking,
                            size_t num_threads,
                            const SessionFixture& sequential,
                            const ClusteringOutcome& seq_outcome) {
  const std::string label =
      "per-party projection, " + std::to_string(num_threads) + " thread(s)";
  SessionPlan plan;
  for (size_t i = 0; i < parts.size(); ++i) {
    plan.holder_order.push_back(SessionFixture::HolderName(i));
  }
  ProtocolConfig party_config;
  party_config.masking_mode = masking;
  party_config.num_threads = num_threads;
  InMemoryNetwork party_net;
  ThirdParty party_tp("TP", &party_net, party_config, schema, 9000);
  std::vector<std::unique_ptr<DataHolder>> party_holders;
  RunPartyProjection(parts, party_config, schema, &party_tp, &party_holders,
                     &party_net, plan);
  ExpectSameMatrices(party_tp, *sequential.third_party, schema, label);

  Status served;
  std::thread tp_thread(
      [&] { served = party_tp.ServeClusterRequest("A"); });
  auto party_outcome =
      PartyRunner::RequestClustering(party_holders[0].get(), plan,
                                     HierRequest());
  tp_thread.join();
  ASSERT_TRUE(served.ok()) << label << ": " << served.ToString();
  ASSERT_TRUE(party_outcome.ok())
      << label << ": " << party_outcome.status().ToString();
  EXPECT_EQ(seq_outcome.ToString(), party_outcome->ToString()) << label;
  EXPECT_EQ(seq_outcome.silhouette, party_outcome->silhouette) << label;
}

/// The matrix cell: run the same partitions through all three executors
/// and require bit-identical matrices and outcomes. With
/// `threaded_projection` the per-party projection also runs a second time
/// with four row-kernel threads per party — the only parallelism inside a
/// party run alone (`serve --threads`, `cluster --role --threads`).
void ExpectThreeExecutorsAgree(const std::string& kind, size_t parties,
                               MaskingMode masking,
                               bool threaded_projection = false) {
  SCOPED_TRACE(kind + " k=" + std::to_string(parties) + " " +
               MaskingModeToString(masking));
  LabeledDataset data = DatasetOfKind(kind, 4 * parties, 40 + parties);
  auto parts = Partitioner::RoundRobin(data, parties).TakeValue();
  const Schema& schema = data.data.schema();
  ProtocolConfig config;
  config.masking_mode = masking;

  // Executor 1: sequential canonical order.
  config.num_threads = 1;
  auto sequential = MakeSession(schema, MatricesOf(parts), config).TakeValue();
  ASSERT_TRUE(sequential.session->Run().ok());

  // Executor 2: the ready set on four workers.
  config.num_threads = 4;
  auto concurrent = MakeSession(schema, MatricesOf(parts), config).TakeValue();
  ASSERT_TRUE(concurrent.session->Run().ok());
  ExpectSameMatrices(*concurrent.third_party, *sequential.third_party, schema,
                     "ready set");

  // Both serve the identical published outcome.
  auto seq_outcome =
      sequential.session->RequestClustering("A", HierRequest()).TakeValue();
  auto par_outcome =
      concurrent.session->RequestClustering("A", HierRequest()).TakeValue();
  EXPECT_EQ(seq_outcome.ToString(), par_outcome.ToString());
  EXPECT_EQ(seq_outcome.silhouette, par_outcome.silhouette);

  // Executor 3: per-party projection (PartyRunner), one thread per party.
  ExpectProjectionAgrees(parts, schema, masking, 1, sequential, seq_outcome);
  if (threaded_projection) {
    ExpectProjectionAgrees(parts, schema, masking, 4, sequential,
                           seq_outcome);
  }
}

TEST(ThreeExecutorMatrixTest, NumericBatchAllPartyCounts) {
  for (size_t k : {2, 3, 4, 5}) {
    ExpectThreeExecutorsAgree("numeric", k, MaskingMode::kBatch);
  }
}

TEST(ThreeExecutorMatrixTest, NumericPerPairAllPartyCounts) {
  for (size_t k : {2, 3, 4, 5}) {
    ExpectThreeExecutorsAgree("numeric", k, MaskingMode::kPerPair);
  }
}

TEST(ThreeExecutorMatrixTest, AlphanumericAllPartyCounts) {
  for (size_t k : {2, 3, 4, 5}) {
    ExpectThreeExecutorsAgree("alphanumeric", k, MaskingMode::kBatch);
  }
}

TEST(ThreeExecutorMatrixTest, CategoricalAllPartyCounts) {
  for (size_t k : {2, 3, 4, 5}) {
    ExpectThreeExecutorsAgree("categorical", k, MaskingMode::kBatch);
  }
}

TEST(ThreeExecutorMatrixTest, MixedBothMaskingModesAllPartyCounts) {
  for (size_t k : {2, 3, 4, 5}) {
    ExpectThreeExecutorsAgree("mixed", k, MaskingMode::kBatch,
                              /*threaded_projection=*/true);
    ExpectThreeExecutorsAgree("mixed", k, MaskingMode::kPerPair,
                              /*threaded_projection=*/true);
  }
}

// -- The same matrix over the TCP transport ----------------------------------

TEST(ThreeExecutorTcpTest, ConcurrentExecutorOverTcpMatchesInMemory) {
  // The ready-set executor drives the graph over real loopback
  // sockets: sends complete asynchronously, receives block — and the
  // result must still be bit-identical to the in-memory sequential run.
  for (MaskingMode masking : {MaskingMode::kBatch, MaskingMode::kPerPair}) {
    SCOPED_TRACE(MaskingModeToString(masking));
    LabeledDataset data = DatasetOfKind("mixed", 12, 88);
    auto parts = Partitioner::RoundRobin(data, 2).TakeValue();
    const Schema& schema = data.data.schema();
    ProtocolConfig config;
    config.masking_mode = masking;
    auto reference =
        MakeSession(schema, MatricesOf(parts), config).TakeValue();
    ASSERT_TRUE(reference.session->Run().ok());

    config.num_threads = 4;
    auto net = TcpNetwork::Create({});
    ASSERT_TRUE(net.ok()) << net.status().ToString();
    (*net)->set_receive_timeout(std::chrono::seconds(20));
    ThirdParty tp("TP", net->get(), config, schema, 9000);
    ClusteringSession session(net->get(), config, schema);
    ASSERT_TRUE(session.SetThirdParty(&tp).ok());
    std::vector<std::unique_ptr<DataHolder>> holders;
    for (size_t i = 0; i < parts.size(); ++i) {
      holders.push_back(std::make_unique<DataHolder>(
          SessionFixture::HolderName(i), net->get(), config, 9001 + i));
      ASSERT_TRUE(holders.back()->SetData(parts[i].data).ok());
      ASSERT_TRUE(session.AddDataHolder(holders.back().get()).ok());
    }
    ASSERT_TRUE(session.Run().ok());
    ExpectSameMatrices(tp, *reference.third_party, schema, "tcp concurrent");
  }
}

TEST(ThreeExecutorTcpTest, PartyProjectionOverTcpMatchesInMemory) {
  // Three processes' worth of endpoints (TP + 2 holders), each running its
  // graph projection; phase-5 per-channel order must survive real sockets.
  LabeledDataset data = DatasetOfKind("mixed", 12, 99);
  auto parts = Partitioner::RoundRobin(data, 2).TakeValue();
  const Schema& schema = data.data.schema();
  ProtocolConfig config;
  auto reference = MakeSession(schema, MatricesOf(parts), config).TakeValue();
  ASSERT_TRUE(reference.session->Run().ok());

  auto net_tp = TcpNetwork::Create({});
  auto net_a = TcpNetwork::Create({});
  auto net_b = TcpNetwork::Create({});
  ASSERT_TRUE(net_tp.ok() && net_a.ok() && net_b.ok());
  struct Site {
    TcpNetwork* net;
    const char* party;
  };
  const std::vector<Site> sites = {{net_tp->get(), "TP"},
                                   {net_a->get(), "A"},
                                   {net_b->get(), "B"}};
  for (const Site& site : sites) {
    site.net->set_receive_timeout(std::chrono::seconds(20));
    ASSERT_TRUE(site.net->RegisterParty(site.party).ok());
    for (const Site& peer : sites) {
      if (peer.net == site.net) continue;
      ASSERT_TRUE(site.net
                      ->AddRemoteParty(peer.party, "127.0.0.1",
                                       peer.net->listen_port())
                      .ok());
    }
  }
  SessionPlan plan = TwoHolderPlan();
  ThirdParty tp("TP", net_tp->get(), config, schema, 9000);
  DataHolder holder_a("A", net_a->get(), config, 9001);
  DataHolder holder_b("B", net_b->get(), config, 9002);
  ASSERT_TRUE(holder_a.SetData(parts[0].data).ok());
  ASSERT_TRUE(holder_b.SetData(parts[1].data).ok());

  Status tp_status, b_status;
  std::thread tp_thread(
      [&] { tp_status = PartyRunner::RunThirdParty(&tp, plan, schema); });
  std::thread b_thread(
      [&] { b_status = PartyRunner::RunHolder(&holder_b, plan, schema); });
  Status a_status = PartyRunner::RunHolder(&holder_a, plan, schema);
  tp_thread.join();
  b_thread.join();
  ASSERT_TRUE(a_status.ok()) << a_status.ToString();
  ASSERT_TRUE(b_status.ok()) << b_status.ToString();
  ASSERT_TRUE(tp_status.ok()) << tp_status.ToString();
  ExpectSameMatrices(tp, *reference.third_party, schema, "tcp projection");
}

}  // namespace
}  // namespace ppc

// Failure-injection tests: malformed, tampered, out-of-order and spoofed
// protocol messages must surface as typed Status errors at the receiving
// party — never as crashes, hangs, or silently wrong matrices. This is the
// robustness layer a semi-honest deployment still needs against bugs and
// transport corruption.

#include <gtest/gtest.h>

#include "common/serde.h"
#include "core/config.h"
#include "core/data_holder.h"
#include "core/third_party.h"
#include "core/topics.h"
#include "data/schema.h"
#include "net/in_memory_network.h"
#include "net/secure_channel.h"
#include "net/session_network.h"

namespace ppc {
namespace {

Schema IntegerSchema() {
  return Schema::Create({{"v", AttributeType::kInteger}}).TakeValue();
}

DataMatrix SmallColumn(const Schema& schema, std::vector<int64_t> values) {
  DataMatrix data(schema);
  for (int64_t v : values) {
    EXPECT_TRUE(data.AppendRow({Value::Integer(v)}).ok());
  }
  return data;
}

/// Fixture with registered parties and completed hello/roster + key
/// agreement, so individual protocol steps can be driven (and sabotaged)
/// by hand.
class FaultInjectionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    schema_ = IntegerSchema();
    network_ = std::make_unique<InMemoryNetwork>(TransportSecurity::kPlaintext);
    tp_ = std::make_unique<ThirdParty>("TP", network_.get(), config_, schema_,
                                       1);
    a_ = std::make_unique<DataHolder>("A", network_.get(), config_, 2);
    b_ = std::make_unique<DataHolder>("B", network_.get(), config_, 3);
    ASSERT_TRUE(network_->RegisterParty("TP").ok());
    ASSERT_TRUE(network_->RegisterParty("A").ok());
    ASSERT_TRUE(network_->RegisterParty("B").ok());
    ASSERT_TRUE(a_->SetData(SmallColumn(schema_, {1, 2, 3})).ok());
    ASSERT_TRUE(b_->SetData(SmallColumn(schema_, {10, 20})).ok());

    ASSERT_TRUE(a_->SendHello("TP").ok());
    ASSERT_TRUE(b_->SendHello("TP").ok());
    ASSERT_TRUE(tp_->ReceiveHellos({"A", "B"}).ok());
    ASSERT_TRUE(tp_->BroadcastRoster().ok());
    ASSERT_TRUE(a_->ReceiveRoster("TP").ok());
    ASSERT_TRUE(b_->ReceiveRoster("TP").ok());

    ASSERT_TRUE(a_->SendDhPublic("B").ok());
    ASSERT_TRUE(b_->SendDhPublic("A").ok());
    ASSERT_TRUE(a_->ReceiveDhPublicAndDerive("B").ok());
    ASSERT_TRUE(b_->ReceiveDhPublicAndDerive("A").ok());
    ASSERT_TRUE(a_->SendDhPublic("TP").ok());
    ASSERT_TRUE(tp_->SendDhPublic("A").ok());
    ASSERT_TRUE(a_->ReceiveDhPublicAndDerive("TP").ok());
    ASSERT_TRUE(tp_->ReceiveDhPublicAndDerive("A").ok());
    ASSERT_TRUE(b_->SendDhPublic("TP").ok());
    ASSERT_TRUE(tp_->SendDhPublic("B").ok());
    ASSERT_TRUE(b_->ReceiveDhPublicAndDerive("TP").ok());
    ASSERT_TRUE(tp_->ReceiveDhPublicAndDerive("B").ok());
  }

  ProtocolConfig config_;
  Schema schema_;
  std::unique_ptr<InMemoryNetwork> network_;
  std::unique_ptr<ThirdParty> tp_;
  std::unique_ptr<DataHolder> a_, b_;
};

TEST_F(FaultInjectionTest, TruncatedLocalMatrixIsDataLoss) {
  ByteWriter writer;
  writer.WriteU32(0);  // Attribute.
  writer.WriteU64(3);  // Claims 3 objects...
  writer.WriteU32(99);  // ...then garbage instead of an F64 vector.
  ASSERT_TRUE(network_->Send("A", "TP", topics::kLocalMatrix,
                             writer.TakeBytes())
                  .ok());
  EXPECT_EQ(tp_->ReceiveLocalMatrix("A").code(), StatusCode::kDataLoss);
}

TEST_F(FaultInjectionTest, LocalMatrixWrongObjectCountIsProtocolViolation) {
  ByteWriter writer;
  writer.WriteU32(0);
  writer.WriteU64(5);  // Roster says A has 3 objects.
  writer.WriteF64Vector(std::vector<double>(10, 0.0));
  ASSERT_TRUE(network_->Send("A", "TP", topics::kLocalMatrix,
                             writer.TakeBytes())
                  .ok());
  EXPECT_EQ(tp_->ReceiveLocalMatrix("A").code(),
            StatusCode::kProtocolViolation);
}

TEST_F(FaultInjectionTest, LocalMatrixForUnknownAttributeRejected) {
  ByteWriter writer;
  writer.WriteU32(7);  // Schema has one attribute.
  writer.WriteU64(3);
  writer.WriteF64Vector(std::vector<double>(3, 0.0));
  ASSERT_TRUE(network_->Send("A", "TP", topics::kLocalMatrix,
                             writer.TakeBytes())
                  .ok());
  EXPECT_EQ(tp_->ReceiveLocalMatrix("A").code(),
            StatusCode::kProtocolViolation);
}

TEST_F(FaultInjectionTest, ComparisonMatrixShapeMismatchRejected) {
  ByteWriter writer;
  writer.WriteU32(0);
  writer.WriteBytes("A");
  writer.WriteU8(static_cast<uint8_t>(MaskingMode::kBatch));
  writer.WriteU64(9);  // B has 2 objects, not 9.
  writer.WriteU64(3);
  writer.WriteU64Vector(std::vector<uint64_t>(27, 0));
  ASSERT_TRUE(network_->Send("B", "TP", topics::kNumericComparison,
                             writer.TakeBytes())
                  .ok());
  EXPECT_EQ(tp_->ReceiveNumericComparison("B").code(),
            StatusCode::kProtocolViolation);
}

TEST_F(FaultInjectionTest, ComparisonMatrixFromUnknownInitiatorRejected) {
  ByteWriter writer;
  writer.WriteU32(0);
  writer.WriteBytes("Mallory");
  writer.WriteU8(static_cast<uint8_t>(MaskingMode::kBatch));
  writer.WriteU64(2);
  writer.WriteU64(3);
  writer.WriteU64Vector(std::vector<uint64_t>(6, 0));
  ASSERT_TRUE(network_->Send("B", "TP", topics::kNumericComparison,
                             writer.TakeBytes())
                  .ok());
  EXPECT_EQ(tp_->ReceiveNumericComparison("B").code(), StatusCode::kNotFound);
}

TEST_F(FaultInjectionTest, UnknownMaskingModeTagRejected) {
  ByteWriter writer;
  writer.WriteU32(0);
  writer.WriteBytes("A");
  writer.WriteU8(42);  // Not a MaskingMode.
  writer.WriteU64(2);
  writer.WriteU64(3);
  writer.WriteU64Vector(std::vector<uint64_t>(6, 0));
  ASSERT_TRUE(network_->Send("B", "TP", topics::kNumericComparison,
                             writer.TakeBytes())
                  .ok());
  EXPECT_EQ(tp_->ReceiveNumericComparison("B").code(),
            StatusCode::kProtocolViolation);
}

TEST_F(FaultInjectionTest, ResponderRejectsWrongAttributeFromInitiator) {
  // A masks attribute 0 but B expects... a different attribute index.
  ASSERT_TRUE(a_->RunNumericInitiator(0, "B").ok());
  // Corrupt expectation: B processes the message as if it were attribute 1
  // (the schema only has attribute 0; the mismatch must be caught before
  // any arithmetic).
  EXPECT_EQ(b_->RunNumericResponder(1, "A", "TP").code(),
            StatusCode::kProtocolViolation);
}

TEST_F(FaultInjectionTest, OutOfOrderStepIsTopicViolation) {
  // TP asks for a comparison matrix while only a hello-like payload is
  // queued under a different topic.
  ByteWriter writer;
  writer.WriteU64(123);
  ASSERT_TRUE(
      network_->Send("B", "TP", topics::kLocalMatrix, writer.TakeBytes())
          .ok());
  EXPECT_EQ(tp_->ReceiveNumericComparison("B").code(),
            StatusCode::kProtocolViolation);
}

TEST_F(FaultInjectionTest, StepsWithoutKeyAgreementFailCleanly) {
  // A fresh holder that skipped DH cannot initiate.
  DataHolder c("C", network_.get(), config_, 9);
  ASSERT_TRUE(network_->RegisterParty("C").ok());
  ASSERT_TRUE(c.SetData(SmallColumn(schema_, {5})).ok());
  ASSERT_TRUE(c.SendHello("TP").ok());
  EXPECT_EQ(c.RunNumericInitiator(0, "A").code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(FaultInjectionTest, CategoricalTokensBeforeKeyDistribution) {
  EXPECT_EQ(a_->SendCategoricalTokens(0, "TP").code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(FaultInjectionTest, FinalizeCategoricalWithMissingHolder) {
  EXPECT_EQ(tp_->FinalizeCategorical(0).code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(FaultInjectionTest, NormalizeBeforeCollectionStillSafe) {
  // Normalizing straight away is allowed (matrices exist, all zero) — but
  // clustering without Run()'s full collection must not crash either.
  EXPECT_TRUE(tp_->NormalizeMatrices().ok());
}

// Hostile key content: a peer that sends an authenticated but malformed
// `keys.dh_public` frame. The frame passes the transport MAC, so the
// party's own checks are all that stand between it and a derived seed.
class HostileDhPublicTest : public ::testing::Test {
 protected:
  static constexpr char kSession[] = "job-hostile";

  void SetUp() override {
    for (const char* party : {"TP", "A", "B"}) {
      ASSERT_TRUE(transport_.RegisterParty(party).ok());
    }
    tp_ = std::make_unique<ThirdParty>("TP", &view_, ProtocolConfig{},
                                       IntegerSchema(), 1);
    a_ = std::make_unique<DataHolder>("A", &view_, ProtocolConfig{}, 2);
  }

  /// Delivers `public_value` as `from`'s DH public value to `to`, sealed
  /// under the session's channel key exactly as an honest sender's
  /// transport would seal it.
  void InjectDhPublic(const std::string& from, const std::string& to,
                      const std::string& public_value) {
    ByteWriter writer;
    writer.WriteBytes(public_value);
    auto sealed = SecureChannel::Seal(
        SecureChannel::ChannelKey(SecureChannel::kMasterKey, from, to,
                                  kSession),
        topics::kDhPublic, /*nonce_counter=*/1000, writer.TakeBytes());
    ASSERT_TRUE(sealed.ok()) << sealed.status().ToString();
    ASSERT_TRUE(transport_
                    .InjectFrameOn(kSession, from, to, topics::kDhPublic,
                                   std::move(sealed).TakeValue())
                    .ok());
  }

  /// Both receivers — a holder hearing from a holder, the third party
  /// hearing from a holder — refuse `public_value` with a typed error that
  /// names the session, the channel and the topic.
  void ExpectBothReceiversRefuse(const std::string& public_value,
                                 const std::string& reason) {
    InjectDhPublic("B", "A", public_value);
    Status at_holder = a_->ReceiveDhPublicAndDerive("B");
    InjectDhPublic("A", "TP", public_value);
    Status at_tp = tp_->ReceiveDhPublicAndDerive("A");
    for (const auto& [status, channel] :
         {std::pair{at_holder, "B -> A"}, std::pair{at_tp, "A -> TP"}}) {
      EXPECT_EQ(status.code(), StatusCode::kProtocolViolation)
          << status.ToString();
      for (const std::string& part :
           {reason, std::string("session '") + kSession + "'",
            std::string(channel),
            std::string("topic '") + topics::kDhPublic + "'"}) {
        EXPECT_NE(status.message().find(part), std::string::npos)
            << "missing \"" << part << "\" in " << status.ToString();
      }
    }
  }

  InMemoryNetwork transport_{TransportSecurity::kAuthenticatedEncryption};
  SessionNetwork view_{&transport_, kSession};
  std::unique_ptr<ThirdParty> tp_;
  std::unique_ptr<DataHolder> a_;
};

TEST_F(HostileDhPublicTest, WrongLengthPublicValueIsTyped) {
  // The old 2048-bit group's 256-byte values, and one byte short.
  ExpectBothReceiversRefuse(std::string(256, '\x07'), "256 bytes");
  ExpectBothReceiversRefuse(std::string(31, '\x07'), "31 bytes");
}

TEST_F(HostileDhPublicTest, LowOrderPublicValueIsTyped) {
  // u = 0 and u = 1 are low-order points: every private scalar maps them
  // to the all-zero secret (RFC 7748 Sec. 6.1).
  std::string zero(32, '\0');
  std::string one = zero;
  one[0] = 1;
  ExpectBothReceiversRefuse(zero, "all-zero");
  ExpectBothReceiversRefuse(one, "all-zero");
}

TEST_F(HostileDhPublicTest, HonestSealedPublicValueIsAccepted) {
  // The injection path itself is sound: a genuine public value sealed the
  // same way derives a seed.
  DataHolder b("B", &view_, ProtocolConfig{}, 3);
  ASSERT_TRUE(b.SendDhPublic("A").ok());
  EXPECT_TRUE(a_->ReceiveDhPublicAndDerive("B").ok());
  auto rng = MakePrng(PrngKind::kChaCha20, 4);
  const X25519Key public_key = DiffieHellman::Generate(rng.get()).public_key;
  InjectDhPublic("A", "TP",
                 std::string(public_key.begin(), public_key.end()));
  EXPECT_TRUE(tp_->ReceiveDhPublicAndDerive("A").ok());
}

TEST(TamperedTransportTest, BitflipOnEncryptedFrameFailsMacCheck) {
  InMemoryNetwork net(TransportSecurity::kAuthenticatedEncryption);
  ASSERT_TRUE(net.RegisterParty("A").ok());
  ASSERT_TRUE(net.RegisterParty("B").ok());
  std::string frame;
  net.AddTap("A", "B", [&](const WireFrame& f) { frame = f.wire_bytes; });
  ASSERT_TRUE(net.Send("A", "B", "t", "attack at dawn").ok());
  // Drop the genuine message, then inject a bit-flipped copy of the frame.
  ASSERT_TRUE(net.Receive("B", "A", "t").ok());
  std::string tampered = frame;
  tampered[10] = static_cast<char>(tampered[10] ^ 0x01);
  ASSERT_TRUE(net.InjectFrame("A", "B", "t", tampered).ok());
  EXPECT_EQ(net.Receive("B", "A", "t").status().code(),
            StatusCode::kProtocolViolation);
}

TEST(TamperedTransportTest, TopicSubstitutionFailsMacCheck) {
  // The MAC binds the topic: replaying a frame under a different topic is
  // rejected even though the bytes are authentic.
  InMemoryNetwork net(TransportSecurity::kAuthenticatedEncryption);
  ASSERT_TRUE(net.RegisterParty("A").ok());
  ASSERT_TRUE(net.RegisterParty("B").ok());
  std::string frame;
  net.AddTap("A", "B", [&](const WireFrame& f) { frame = f.wire_bytes; });
  ASSERT_TRUE(net.Send("A", "B", "numeric.masked_vector", "payload").ok());
  ASSERT_TRUE(net.Receive("B", "A", "numeric.masked_vector").ok());
  ASSERT_TRUE(net.InjectFrame("A", "B", "matrix.local", frame).ok());
  EXPECT_EQ(net.Receive("B", "A", "matrix.local").status().code(),
            StatusCode::kProtocolViolation);
}

TEST(TamperedTransportTest, CrossChannelReplayFailsMacCheck) {
  // An A->B frame replayed on the B->A channel fails (directional keys).
  InMemoryNetwork net(TransportSecurity::kAuthenticatedEncryption);
  ASSERT_TRUE(net.RegisterParty("A").ok());
  ASSERT_TRUE(net.RegisterParty("B").ok());
  std::string frame;
  net.AddTap("A", "B", [&](const WireFrame& f) { frame = f.wire_bytes; });
  ASSERT_TRUE(net.Send("A", "B", "t", "payload").ok());
  ASSERT_TRUE(net.Receive("B", "A", "t").ok());
  ASSERT_TRUE(net.InjectFrame("B", "A", "t", frame).ok());
  EXPECT_EQ(net.Receive("A", "B", "t").status().code(),
            StatusCode::kProtocolViolation);
}

TEST(TamperedTransportTest, TruncatedFrameRejected) {
  InMemoryNetwork net(TransportSecurity::kAuthenticatedEncryption);
  ASSERT_TRUE(net.RegisterParty("A").ok());
  ASSERT_TRUE(net.RegisterParty("B").ok());
  ASSERT_TRUE(net.InjectFrame("A", "B", "t", "short").ok());
  EXPECT_EQ(net.Receive("B", "A", "t").status().code(),
            StatusCode::kDataLoss);
}

TEST(TamperedTransportTest, HonestReplayIsStillDelivered) {
  // Replaying the *identical* frame on the same channel decrypts fine (the
  // transport has no replay window by design; the protocol layer's strict
  // step sequencing is what makes replays harmless). Documented behavior,
  // pinned here.
  InMemoryNetwork net(TransportSecurity::kAuthenticatedEncryption);
  ASSERT_TRUE(net.RegisterParty("A").ok());
  ASSERT_TRUE(net.RegisterParty("B").ok());
  std::string frame;
  net.AddTap("A", "B", [&](const WireFrame& f) { frame = f.wire_bytes; });
  ASSERT_TRUE(net.Send("A", "B", "t", "payload").ok());
  ASSERT_TRUE(net.Receive("B", "A", "t").ok());
  ASSERT_TRUE(net.InjectFrame("A", "B", "t", frame).ok());
  auto replayed = net.Receive("B", "A", "t");
  ASSERT_TRUE(replayed.ok());
  EXPECT_EQ(replayed->payload, "payload");
}

}  // namespace
}  // namespace ppc

// Tests for the numeric comparison protocol of paper Sec. 4.1 (Figs. 3-6):
// the exact worked example of Fig. 3, exactness properties over random
// inputs for every PRNG family and both masking modes, sign hiding, and
// stream-alignment behavior.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <set>
#include <vector>

#include "core/numeric_protocol.h"
#include "rng/distributions.h"
#include "rng/prng.h"

namespace ppc {
namespace {

/// A PRNG that replays a fixed script (cycling), used to pin the paper's
/// worked example with RJK = 5 and RJT = 7.
class ScriptedPrng final : public Prng {
 public:
  explicit ScriptedPrng(std::vector<uint64_t> script)
      : script_(std::move(script)) {}

  uint64_t Next() override {
    uint64_t value = script_[position_ % script_.size()];
    ++position_;
    return value;
  }
  void Reset() override { position_ = 0; }
  std::string name() const override { return "scripted"; }

 private:
  std::vector<uint64_t> script_;
  size_t position_ = 0;
};

/// Runs the full batch protocol over fresh derived generators, returning
/// the row-major |y| x |x| distance matrix, exactly as DHJ/DHK/TP would.
std::vector<uint64_t> RunBatch(const std::vector<int64_t>& x,
                               const std::vector<int64_t>& y, PrngKind kind,
                               uint64_t seed_jk, uint64_t seed_jt) {
  auto jk_initiator = MakePrng(kind, seed_jk);
  auto jk_responder = MakePrng(kind, seed_jk);
  auto jt_initiator = MakePrng(kind, seed_jt);
  auto jt_tp = MakePrng(kind, seed_jt);

  auto masked =
      NumericProtocol::MaskVector(x, jt_initiator.get(), jk_initiator.get());
  auto comparison =
      NumericProtocol::BuildComparisonMatrix(y, masked, jk_responder.get());
  return NumericProtocol::RecoverDistances(comparison, y.size(), x.size(),
                                           jt_tp.get())
      .TakeValue();
}

std::vector<uint64_t> RunPerPair(const std::vector<int64_t>& x,
                                 const std::vector<int64_t>& y, PrngKind kind,
                                 uint64_t seed_jk, uint64_t seed_jt) {
  auto jk_initiator = MakePrng(kind, seed_jk);
  auto jk_responder = MakePrng(kind, seed_jk);
  auto jt_initiator = MakePrng(kind, seed_jt);
  auto jt_tp = MakePrng(kind, seed_jt);

  auto masked = NumericProtocol::MaskMatrixPerPair(
      x, y.size(), jt_initiator.get(), jk_initiator.get());
  auto comparison = NumericProtocol::AddResponderPerPair(
                        y, x.size(), masked, jk_responder.get())
                        .TakeValue();
  return NumericProtocol::RecoverDistancesPerPair(comparison, y.size(),
                                                  x.size(), jt_tp.get())
      .TakeValue();
}

uint64_t AbsDiff(int64_t a, int64_t b) {
  return a >= b ? static_cast<uint64_t>(a) - static_cast<uint64_t>(b)
                : static_cast<uint64_t>(b) - static_cast<uint64_t>(a);
}

// ------------------------------------------------- Fig. 3 worked example --

TEST(NumericProtocolTest, Figure3WorkedExample) {
  // Paper Fig. 3: x = 3 at DHJ, y = 8 at DHK, RJK = 5, RJT = 7.
  ScriptedPrng rng_jk_j({5});
  ScriptedPrng rng_jk_k({5});
  ScriptedPrng rng_jt_j({7});
  ScriptedPrng rng_jt_tp({7});

  // DHJ: RJK = 5 is odd, so DHJ negates: x' = -3; x'' = -3 + 7 = 4.
  auto masked = NumericProtocol::MaskVector({3}, &rng_jt_j, &rng_jk_j);
  ASSERT_EQ(masked.size(), 1u);
  EXPECT_EQ(masked[0], 4u);

  // DHK: opposite sign coin -> y' = +8; m = 8 + 4 = 12.
  auto comparison =
      NumericProtocol::BuildComparisonMatrix({8}, masked, &rng_jk_k);
  ASSERT_EQ(comparison.size(), 1u);
  EXPECT_EQ(comparison[0], 12u);

  // TP: |12 - 7| = 5 = |x - y|.
  auto distances =
      NumericProtocol::RecoverDistances(comparison, 1, 1, &rng_jt_tp)
          .TakeValue();
  ASSERT_EQ(distances.size(), 1u);
  EXPECT_EQ(distances[0], 5u);
}

TEST(NumericProtocolTest, Figure3WithEvenCoinNegatesResponder) {
  // If RJK were even, DHK negates instead; the result is unchanged.
  ScriptedPrng rng_jk_j({4});
  ScriptedPrng rng_jk_k({4});
  ScriptedPrng rng_jt_j({7});
  ScriptedPrng rng_jt_tp({7});

  auto masked = NumericProtocol::MaskVector({3}, &rng_jt_j, &rng_jk_j);
  EXPECT_EQ(masked[0], 10u);  // 7 + 3.
  auto comparison =
      NumericProtocol::BuildComparisonMatrix({8}, masked, &rng_jk_k);
  EXPECT_EQ(comparison[0], 2u);  // 10 - 8.
  auto distances =
      NumericProtocol::RecoverDistances(comparison, 1, 1, &rng_jt_tp)
          .TakeValue();
  EXPECT_EQ(distances[0], 5u);
}

// ------------------------------------------------------------- Exactness --

class NumericProtocolParamTest : public ::testing::TestWithParam<PrngKind> {};

TEST_P(NumericProtocolParamTest, BatchRecoversAllPairwiseDistances) {
  auto data_rng = MakePrng(PrngKind::kXoshiro256, 1);
  for (int trial = 0; trial < 10; ++trial) {
    size_t n = 1 + data_rng->NextBounded(12);
    size_t m = 1 + data_rng->NextBounded(12);
    std::vector<int64_t> x(n), y(m);
    for (auto& v : x) {
      v = Distributions::UniformInt(data_rng.get(), -1000000, 1000000);
    }
    for (auto& v : y) {
      v = Distributions::UniformInt(data_rng.get(), -1000000, 1000000);
    }
    auto distances = RunBatch(x, y, GetParam(), 100 + trial, 200 + trial);
    ASSERT_EQ(distances.size(), n * m);
    for (size_t mi = 0; mi < m; ++mi) {
      for (size_t ni = 0; ni < n; ++ni) {
        EXPECT_EQ(distances[mi * n + ni], AbsDiff(x[ni], y[mi]))
            << "pair (" << mi << "," << ni << ")";
      }
    }
  }
}

TEST_P(NumericProtocolParamTest, PerPairRecoversAllPairwiseDistances) {
  auto data_rng = MakePrng(PrngKind::kXoshiro256, 2);
  for (int trial = 0; trial < 10; ++trial) {
    size_t n = 1 + data_rng->NextBounded(10);
    size_t m = 1 + data_rng->NextBounded(10);
    std::vector<int64_t> x(n), y(m);
    for (auto& v : x) {
      v = Distributions::UniformInt(data_rng.get(), -500, 500);
    }
    for (auto& v : y) {
      v = Distributions::UniformInt(data_rng.get(), -500, 500);
    }
    auto distances = RunPerPair(x, y, GetParam(), 300 + trial, 400 + trial);
    ASSERT_EQ(distances.size(), n * m);
    for (size_t mi = 0; mi < m; ++mi) {
      for (size_t ni = 0; ni < n; ++ni) {
        EXPECT_EQ(distances[mi * n + ni], AbsDiff(x[ni], y[mi]));
      }
    }
  }
}

TEST_P(NumericProtocolParamTest, ExtremeMagnitudesStayExact) {
  // Distances up to ~2^62 survive the ring arithmetic exactly.
  std::vector<int64_t> x{0, (1ll << 62), -(1ll << 62), 17};
  std::vector<int64_t> y{-(1ll << 61), (1ll << 61)};
  auto distances = RunBatch(x, y, GetParam(), 9, 10);
  for (size_t mi = 0; mi < y.size(); ++mi) {
    for (size_t ni = 0; ni < x.size(); ++ni) {
      EXPECT_EQ(distances[mi * x.size() + ni], AbsDiff(x[ni], y[mi]));
    }
  }
}

TEST_P(NumericProtocolParamTest, EqualInputsGiveZero) {
  std::vector<int64_t> x{42, -42};
  std::vector<int64_t> y{42, -42};
  auto distances = RunBatch(x, y, GetParam(), 5, 6);
  EXPECT_EQ(distances[0], 0u);   // y=42 vs x=42.
  EXPECT_EQ(distances[3], 0u);   // y=-42 vs x=-42.
  EXPECT_EQ(distances[1], 84u);  // y=42 vs x=-42.
}

INSTANTIATE_TEST_SUITE_P(AllKinds, NumericProtocolParamTest,
                         ::testing::Values(PrngKind::kSplitMix64,
                                           PrngKind::kXoshiro256,
                                           PrngKind::kChaCha20),
                         [](const auto& info) {
                           switch (info.param) {
                             case PrngKind::kSplitMix64:
                               return "SplitMix64";
                             case PrngKind::kXoshiro256:
                               return "Xoshiro256";
                             case PrngKind::kChaCha20:
                               return "ChaCha20";
                           }
                           return "Unknown";
                         });

// ---------------------------------------------------------------- Hiding --

TEST(NumericProtocolTest, MaskedValueIsNotPlaintext) {
  auto rng_jt = MakePrng(PrngKind::kChaCha20, 77);
  auto rng_jk = MakePrng(PrngKind::kChaCha20, 78);
  std::vector<int64_t> x{12345};
  auto masked = NumericProtocol::MaskVector(x, rng_jt.get(), rng_jk.get());
  EXPECT_NE(masked[0], 12345u);
  EXPECT_NE(masked[0], static_cast<uint64_t>(-12345));
}

TEST(NumericProtocolTest, SignOfDifferenceHiddenFromThirdParty) {
  // The TP sees t = m - r = ±(x - y); over many (JK) seeds the sign must be
  // balanced regardless of whether x > y, or the TP could infer order.
  const std::vector<int64_t> x{100};  // x < y always.
  const std::vector<int64_t> y{900};
  int positive = 0;
  constexpr int kTrials = 600;
  for (int trial = 0; trial < kTrials; ++trial) {
    auto jk_i = MakePrng(PrngKind::kChaCha20, 1000 + trial);
    auto jk_r = MakePrng(PrngKind::kChaCha20, 1000 + trial);
    auto jt_i = MakePrng(PrngKind::kChaCha20, 5000 + trial);
    auto jt_tp = MakePrng(PrngKind::kChaCha20, 5000 + trial);
    auto masked = NumericProtocol::MaskVector(x, jt_i.get(), jk_i.get());
    auto comparison =
        NumericProtocol::BuildComparisonMatrix(y, masked, jk_r.get());
    jt_tp->Reset();
    int64_t unmasked = static_cast<int64_t>(comparison[0] - jt_tp->Next());
    if (unmasked > 0) ++positive;
  }
  EXPECT_GT(positive, kTrials * 0.42);
  EXPECT_LT(positive, kTrials * 0.58);
}

TEST(NumericProtocolTest, DifferentJtSeedsDifferentMasks) {
  auto rng_jk_1 = MakePrng(PrngKind::kChaCha20, 1);
  auto rng_jk_2 = MakePrng(PrngKind::kChaCha20, 1);
  auto rng_jt_1 = MakePrng(PrngKind::kChaCha20, 2);
  auto rng_jt_2 = MakePrng(PrngKind::kChaCha20, 3);
  std::vector<int64_t> x{5, 5, 5};
  auto a = NumericProtocol::MaskVector(x, rng_jt_1.get(), rng_jk_1.get());
  auto b = NumericProtocol::MaskVector(x, rng_jt_2.get(), rng_jk_2.get());
  EXPECT_NE(a, b);
}

TEST(NumericProtocolTest, BatchMasksVaryPerElement) {
  // Identical inputs must still be masked to distinct values within one
  // vector (fresh mask per element).
  auto rng_jt = MakePrng(PrngKind::kChaCha20, 4);
  auto rng_jk = MakePrng(PrngKind::kChaCha20, 5);
  std::vector<int64_t> x(16, 999);
  auto masked = NumericProtocol::MaskVector(x, rng_jt.get(), rng_jk.get());
  std::set<uint64_t> distinct(masked.begin(), masked.end());
  EXPECT_EQ(distinct.size(), masked.size());
}

// ------------------------------------------------------- Stream alignment --

TEST(NumericProtocolTest, ResponderRealignsPerRow) {
  // With 2 responder rows, both rows must consume the SAME initiator sign
  // sequence; a responder that failed to reset rng_jk would corrupt row 2.
  std::vector<int64_t> x{10, 20, 30};
  std::vector<int64_t> y{1, 2};
  auto distances = RunBatch(x, y, PrngKind::kChaCha20, 11, 12);
  for (size_t mi = 0; mi < y.size(); ++mi) {
    for (size_t ni = 0; ni < x.size(); ++ni) {
      ASSERT_EQ(distances[mi * x.size() + ni], AbsDiff(x[ni], y[mi]));
    }
  }
}

TEST(NumericProtocolTest, MaskVectorIsIdempotentAfterReuse) {
  // The protocol functions reset generators on entry, so reusing the same
  // generator objects reproduces identical output (session safety).
  auto rng_jt = MakePrng(PrngKind::kChaCha20, 21);
  auto rng_jk = MakePrng(PrngKind::kChaCha20, 22);
  std::vector<int64_t> x{7, -9, 13};
  auto first = NumericProtocol::MaskVector(x, rng_jt.get(), rng_jk.get());
  auto second = NumericProtocol::MaskVector(x, rng_jt.get(), rng_jk.get());
  EXPECT_EQ(first, second);
}

// ------------------------------------------------------------ Edge cases --

TEST(NumericProtocolTest, EmptyVectorsFlowThrough) {
  auto rng_jt = MakePrng(PrngKind::kChaCha20, 31);
  auto rng_jk = MakePrng(PrngKind::kChaCha20, 32);
  auto masked = NumericProtocol::MaskVector({}, rng_jt.get(), rng_jk.get());
  EXPECT_TRUE(masked.empty());
  auto comparison =
      NumericProtocol::BuildComparisonMatrix({}, masked, rng_jk.get());
  EXPECT_TRUE(comparison.empty());
  auto distances =
      NumericProtocol::RecoverDistances(comparison, 0, 0, rng_jt.get());
  EXPECT_TRUE(distances.ok());
  EXPECT_TRUE(distances->empty());
}

TEST(NumericProtocolTest, RecoverRejectsShapeMismatch) {
  auto rng_jt = MakePrng(PrngKind::kChaCha20, 33);
  std::vector<uint64_t> cells{1, 2, 3};
  EXPECT_EQ(NumericProtocol::RecoverDistances(cells, 2, 2, rng_jt.get())
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(NumericProtocol::RecoverDistancesPerPair(cells, 2, 2, rng_jt.get())
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(NumericProtocolTest, AddResponderRejectsShapeMismatch) {
  auto rng_jk = MakePrng(PrngKind::kChaCha20, 34);
  std::vector<uint64_t> masked{1, 2, 3};
  EXPECT_FALSE(
      NumericProtocol::AddResponderPerPair({5, 6}, 2, masked, rng_jk.get())
          .ok());
}

TEST(NumericProtocolTest, AbsFromRingHandlesBothSigns) {
  EXPECT_EQ(NumericProtocol::AbsFromRing(5), 5u);
  EXPECT_EQ(NumericProtocol::AbsFromRing(static_cast<uint64_t>(-5)), 5u);
  EXPECT_EQ(NumericProtocol::AbsFromRing(0), 0u);
  // INT64_MIN maps to its magnitude 2^63.
  EXPECT_EQ(NumericProtocol::AbsFromRing(0x8000000000000000ull),
            0x8000000000000000ull);
}

}  // namespace
}  // namespace ppc

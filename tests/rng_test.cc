// Unit tests for src/rng: determinism, Reset() semantics (which the
// paper's batch protocols depend on), known-answer vectors, and basic
// statistical sanity.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>

#include "rng/chacha20.h"
#include "rng/distributions.h"
#include "rng/prng.h"
#include "rng/splitmix64.h"
#include "rng/xoshiro256.h"

namespace ppc {
namespace {

// Each PRNG family must satisfy the same contract; run the contract suite
// over every kind.
class PrngContractTest : public ::testing::TestWithParam<PrngKind> {};

TEST_P(PrngContractTest, SameSeedSameStream) {
  auto a = MakePrng(GetParam(), 1234);
  auto b = MakePrng(GetParam(), 1234);
  for (int i = 0; i < 256; ++i) {
    ASSERT_EQ(a->Next(), b->Next()) << "diverged at step " << i;
  }
}

TEST_P(PrngContractTest, DifferentSeedDifferentStream) {
  auto a = MakePrng(GetParam(), 1);
  auto b = MakePrng(GetParam(), 2);
  int differing = 0;
  for (int i = 0; i < 64; ++i) {
    if (a->Next() != b->Next()) ++differing;
  }
  EXPECT_GT(differing, 60);
}

TEST_P(PrngContractTest, ResetRewindsToSeedState) {
  auto prng = MakePrng(GetParam(), 99);
  std::vector<uint64_t> first;
  for (int i = 0; i < 50; ++i) first.push_back(prng->Next());
  prng->Reset();
  for (int i = 0; i < 50; ++i) {
    ASSERT_EQ(prng->Next(), first[i]) << "reset mismatch at " << i;
  }
}

TEST_P(PrngContractTest, ResetIsIdempotent) {
  auto prng = MakePrng(GetParam(), 7);
  prng->Reset();
  prng->Reset();
  uint64_t v = prng->Next();
  prng->Reset();
  EXPECT_EQ(prng->Next(), v);
}

TEST_P(PrngContractTest, NextBoundedStaysInRange) {
  auto prng = MakePrng(GetParam(), 5);
  for (uint64_t bound : {1ull, 2ull, 3ull, 10ull, 255ull, 1000003ull}) {
    for (int i = 0; i < 200; ++i) {
      EXPECT_LT(prng->NextBounded(bound), bound);
    }
  }
}

TEST_P(PrngContractTest, NextBoundedCoversAllResidues) {
  auto prng = MakePrng(GetParam(), 5);
  std::set<uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(prng->NextBounded(4));
  EXPECT_EQ(seen.size(), 4u);
}

TEST_P(PrngContractTest, ParityCoinRoughlyFair) {
  auto prng = MakePrng(GetParam(), 321);
  int odd = 0;
  constexpr int kTrials = 4000;
  for (int i = 0; i < kTrials; ++i) {
    if (prng->NextParityOdd()) ++odd;
  }
  EXPECT_GT(odd, kTrials * 0.45);
  EXPECT_LT(odd, kTrials * 0.55);
}

TEST_P(PrngContractTest, UnitDoubleInHalfOpenInterval) {
  auto prng = MakePrng(GetParam(), 8);
  double sum = 0;
  for (int i = 0; i < 2000; ++i) {
    double v = prng->NextUnitDouble();
    ASSERT_GE(v, 0.0);
    ASSERT_LT(v, 1.0);
    sum += v;
  }
  EXPECT_NEAR(sum / 2000, 0.5, 0.05);
}

INSTANTIATE_TEST_SUITE_P(AllKinds, PrngContractTest,
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

// -------------------------------------------------- Known-answer vectors --

TEST(SplitMix64Test, ReferenceVector) {
  // Reference outputs for seed 1234567 from the canonical C implementation.
  SplitMix64Prng prng(1234567);
  EXPECT_EQ(prng.Next(), 6457827717110365317ull);
  EXPECT_EQ(prng.Next(), 3203168211198807973ull);
  EXPECT_EQ(prng.Next(), 9817491932198370423ull);
}

TEST(ChaCha20Test, Rfc8439BlockFunctionVector) {
  // RFC 8439 section 2.3.2 test vector.
  std::array<uint32_t, 8> key;
  for (int i = 0; i < 8; ++i) {
    // Key bytes 00 01 02 ... 1f, little-endian words.
    uint32_t w = 0;
    for (int b = 0; b < 4; ++b) {
      w |= static_cast<uint32_t>(4 * i + b) << (8 * b);
    }
    key[i] = w;
  }
  std::array<uint32_t, 3> nonce = {0x09000000, 0x4a000000, 0x00000000};
  std::array<uint32_t, 16> out;
  ChaCha20Block(key, /*counter=*/1, nonce, &out);

  const std::array<uint32_t, 16> expected = {
      0xe4e7f110, 0x15593bd1, 0x1fdd0f50, 0xc47120a3, 0xc7f4d1c7, 0x0368c033,
      0x9aaa2204, 0x4e6cd4c3, 0x466482d2, 0x09aa9f07, 0x05d7c214, 0xa2028bd9,
      0xd19c12b5, 0xb94e16de, 0xe883d0cb, 0x4e3c50a2};
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(out[i], expected[i]) << "word " << i;
  }
}

TEST(ChaCha20Test, CounterAdvancesBlocks) {
  std::array<uint32_t, 8> key{};
  std::array<uint32_t, 3> nonce{};
  std::array<uint32_t, 16> block0, block1;
  ChaCha20Block(key, 0, nonce, &block0);
  ChaCha20Block(key, 1, nonce, &block1);
  EXPECT_NE(block0, block1);
}

TEST(ChaCha20Test, PrngConsumesKeystreamAcrossBlocks) {
  // 1000 calls cross many 64-byte blocks; determinism must hold throughout.
  ChaCha20Prng a(uint64_t{77});
  ChaCha20Prng b(uint64_t{77});
  for (int i = 0; i < 1000; ++i) ASSERT_EQ(a.Next(), b.Next());
}

TEST(MakePrngFromKeyTest, IsChaCha20KeyedByTheWholeSecret) {
  // Mask streams come from the full 256-bit secret: the factory's stream
  // is exactly ChaCha20 under that key, and secrets differing only in
  // their last byte give unrelated streams.
  const std::string key(32, '\x5a');
  std::string tweaked = key;
  tweaked.back() ^= 1;
  auto a = MakePrngFromKey(key);
  auto b = MakePrngFromKey(key);
  auto c = MakePrngFromKey(tweaked);
  ChaCha20Prng reference(key);
  bool all_equal = true;
  for (int i = 0; i < 16; ++i) {
    const uint64_t value = a->Next();
    EXPECT_EQ(value, b->Next());
    EXPECT_EQ(value, reference.Next());
    if (value != c->Next()) all_equal = false;
  }
  EXPECT_FALSE(all_equal);
}

TEST(Xoshiro256Test, NoObviousShortCycle) {
  Xoshiro256Prng prng(3);
  std::set<uint64_t> seen;
  for (int i = 0; i < 10000; ++i) seen.insert(prng.Next());
  EXPECT_EQ(seen.size(), 10000u);
}

// ---------------------------------------------------------- Distributions --

TEST(DistributionsTest, GaussianMomentsRoughlyCorrect) {
  auto prng = MakePrng(PrngKind::kXoshiro256, 11);
  double sum = 0, sum_sq = 0;
  constexpr int kSamples = 20000;
  for (int i = 0; i < kSamples; ++i) {
    double v = Distributions::Gaussian(prng.get(), 5.0, 2.0);
    sum += v;
    sum_sq += v * v;
  }
  double mean = sum / kSamples;
  double variance = sum_sq / kSamples - mean * mean;
  EXPECT_NEAR(mean, 5.0, 0.1);
  EXPECT_NEAR(variance, 4.0, 0.3);
}

TEST(DistributionsTest, UniformIntInclusiveRange) {
  auto prng = MakePrng(PrngKind::kSplitMix64, 12);
  std::set<int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    int64_t v = Distributions::UniformInt(prng.get(), -2, 2);
    ASSERT_GE(v, -2);
    ASSERT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(DistributionsTest, CategoricalFollowsWeights) {
  auto prng = MakePrng(PrngKind::kXoshiro256, 13);
  std::map<size_t, int> counts;
  constexpr int kSamples = 10000;
  for (int i = 0; i < kSamples; ++i) {
    counts[Distributions::Categorical(prng.get(), {1.0, 3.0})] += 1;
  }
  EXPECT_NEAR(static_cast<double>(counts[1]) / kSamples, 0.75, 0.03);
}

TEST(DistributionsTest, ShufflePermutes) {
  auto prng = MakePrng(PrngKind::kSplitMix64, 14);
  std::vector<int> values{1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> original = values;
  Distributions::Shuffle(prng.get(), &values);
  auto sorted = values;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, original);
}

}  // namespace
}  // namespace ppc

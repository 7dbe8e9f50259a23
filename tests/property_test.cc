// Cross-cutting property tests: exhaustive micro-enumerations and
// randomized invariants that complement the per-module suites — serde
// roundtrips under random operation sequences, edit distance vs. brute
// force, metric axioms of the distance functions, merge/normalize algebra
// of dissimilarity matrices, and label-permutation invariance of external
// quality metrics.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <map>
#include <new>

#include "cluster/quality.h"
#include "common/serde.h"
#include "data/alphabet.h"
#include "data/taxonomy.h"
#include "distance/comparators.h"
#include "distance/dissimilarity_matrix.h"
#include "distance/edit_distance.h"
#include "rng/distributions.h"
#include "rng/prng.h"

// Largest single heap request while `g_track_allocations` is set: lets the
// serde property below prove a hostile length prefix cannot make a reader
// allocate more than the bytes it actually received.
namespace {
std::atomic<bool> g_track_allocations{false};
std::atomic<size_t> g_largest_allocation{0};
}  // namespace

// GCC flags free() on operator-new memory once these are inlined; the pair
// below is a consistent malloc/free replacement.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void* operator new(std::size_t size) {
  if (g_track_allocations.load(std::memory_order_relaxed)) {
    size_t seen = g_largest_allocation.load(std::memory_order_relaxed);
    while (size > seen && !g_largest_allocation.compare_exchange_weak(
                              seen, size, std::memory_order_relaxed)) {
    }
  }
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

namespace ppc {
namespace {

// --------------------------------------------------- serde random fuzzing --

TEST(SerdePropertyTest, RandomOperationSequencesRoundTrip) {
  auto prng = MakePrng(PrngKind::kXoshiro256, 1);
  for (int trial = 0; trial < 50; ++trial) {
    // Record a random schedule of writes, then read it back in order.
    enum Op { kU8, kU32, kU64, kI64, kF64, kBytes, kU64Vec };
    std::vector<Op> schedule;
    std::vector<uint64_t> scalars;
    std::vector<std::string> byte_values;
    std::vector<std::vector<uint64_t>> vectors;

    ByteWriter writer;
    size_t ops = 1 + prng->NextBounded(20);
    for (size_t i = 0; i < ops; ++i) {
      Op op = static_cast<Op>(prng->NextBounded(7));
      schedule.push_back(op);
      switch (op) {
        case kU8: {
          uint64_t v = prng->NextBounded(256);
          scalars.push_back(v);
          writer.WriteU8(static_cast<uint8_t>(v));
          break;
        }
        case kU32: {
          uint64_t v = prng->NextBounded(1ull << 32);
          scalars.push_back(v);
          writer.WriteU32(static_cast<uint32_t>(v));
          break;
        }
        case kU64: {
          uint64_t v = prng->Next();
          scalars.push_back(v);
          writer.WriteU64(v);
          break;
        }
        case kI64: {
          uint64_t v = prng->Next();
          scalars.push_back(v);
          writer.WriteI64(static_cast<int64_t>(v));
          break;
        }
        case kF64: {
          double v = prng->NextUnitDouble() * 1e6 - 5e5;
          scalars.push_back(0);
          byte_values.push_back("");  // Placeholder alignment not needed.
          writer.WriteF64(v);
          // Store the double bit pattern for comparison.
          uint64_t bits;
          std::memcpy(&bits, &v, sizeof(bits));
          scalars.back() = bits;
          byte_values.pop_back();
          break;
        }
        case kBytes: {
          std::string bytes;
          size_t len = prng->NextBounded(32);
          for (size_t b = 0; b < len; ++b) {
            bytes.push_back(static_cast<char>(prng->NextBounded(256)));
          }
          byte_values.push_back(bytes);
          writer.WriteBytes(bytes);
          break;
        }
        case kU64Vec: {
          std::vector<uint64_t> values(prng->NextBounded(16));
          for (auto& v : values) v = prng->Next();
          vectors.push_back(values);
          writer.WriteU64Vector(values);
          break;
        }
      }
    }

    std::string buffer = writer.TakeBytes();
    ByteReader reader(buffer);
    size_t scalar_index = 0, bytes_index = 0, vector_index = 0;
    for (Op op : schedule) {
      switch (op) {
        case kU8:
          ASSERT_EQ(reader.ReadU8().value(), scalars[scalar_index++]);
          break;
        case kU32:
          ASSERT_EQ(reader.ReadU32().value(), scalars[scalar_index++]);
          break;
        case kU64:
          ASSERT_EQ(reader.ReadU64().value(), scalars[scalar_index++]);
          break;
        case kI64:
          ASSERT_EQ(static_cast<uint64_t>(reader.ReadI64().value()),
                    scalars[scalar_index++]);
          break;
        case kF64: {
          double v = reader.ReadF64().value();
          uint64_t bits;
          std::memcpy(&bits, &v, sizeof(bits));
          ASSERT_EQ(bits, scalars[scalar_index++]);
          break;
        }
        case kBytes:
          ASSERT_EQ(reader.ReadBytes().value(), byte_values[bytes_index++]);
          break;
        case kU64Vec:
          ASSERT_EQ(reader.ReadU64Vector().value(),
                    vectors[vector_index++]);
          break;
      }
    }
    ASSERT_TRUE(reader.ExpectEnd().ok()) << "trial " << trial;
  }
}

TEST(SerdePropertyTest, RandomTruncationNeverCrashes) {
  auto prng = MakePrng(PrngKind::kXoshiro256, 2);
  ByteWriter writer;
  writer.WriteU64Vector({1, 2, 3});
  writer.WriteBytes("payload");
  writer.WriteBytesVector({"a", "bb"});
  std::string full = writer.TakeBytes();
  for (size_t cut = 0; cut < full.size(); ++cut) {
    std::string truncated = full.substr(0, cut);
    ByteReader reader(truncated);
    // Any parse either succeeds partially or returns DataLoss; no UB.
    auto vec = reader.ReadU64Vector();
    if (!vec.ok()) {
      EXPECT_EQ(vec.status().code(), StatusCode::kDataLoss);
      continue;
    }
    auto bytes = reader.ReadBytes();
    if (!bytes.ok()) {
      EXPECT_EQ(bytes.status().code(), StatusCode::kDataLoss);
      continue;
    }
    auto list = reader.ReadBytesVector();
    if (!list.ok()) {
      EXPECT_EQ(list.status().code(), StatusCode::kDataLoss);
    }
  }
}

/// Largest single allocation made while decoding `payload` as one u64 (or
/// f64) vector; the decode must fail with kDataLoss.
size_t LargestAllocationOfFailedVectorRead(const std::string& payload,
                                           bool f64) {
  ByteReader reader(payload);
  g_largest_allocation = 0;
  g_track_allocations = true;
  StatusCode code = f64 ? reader.ReadF64Vector().status().code()
                        : reader.ReadU64Vector().status().code();
  g_track_allocations = false;
  EXPECT_EQ(code, StatusCode::kDataLoss);
  return g_largest_allocation;
}

TEST(SerdePropertyTest, BadVectorLengthsAllocateOnlyReceivedBytes) {
  // A failed read may allocate its error message, never a buffer sized by
  // the (attacker-controlled) length prefix.
  constexpr size_t kMessageAllowance = 256;
  for (bool f64 : {false, true}) {
    ByteWriter writer;
    if (f64) {
      writer.WriteF64Vector(std::vector<double>(1000, 0.25));
    } else {
      writer.WriteU64Vector(std::vector<uint64_t>(1000, 7));
    }
    const std::string full = writer.TakeBytes();
    // Truncated: every cut of a 1000-element vector.
    for (size_t cut = 0; cut < full.size(); cut += 97) {
      std::string truncated = full.substr(0, cut);
      EXPECT_LE(LargestAllocationOfFailedVectorRead(truncated, f64),
                std::max(cut, kMessageAllowance))
          << "f64=" << f64 << " cut=" << cut;
    }
    // Length-inflated: the prefix claims up to the sanity cap (2^28
    // elements, 2 GiB) over the same 8000 payload bytes.
    for (uint32_t claimed : {1001u, 1u << 20, 1u << 28}) {
      std::string inflated = full;
      for (int i = 0; i < 4; ++i) {
        inflated[i] = static_cast<char>((claimed >> (8 * i)) & 0xff);
      }
      EXPECT_LE(LargestAllocationOfFailedVectorRead(inflated, f64),
                kMessageAllowance)
          << "f64=" << f64 << " claimed=" << claimed;
    }
  }
}

// ------------------------------------------- edit distance vs brute force --

/// Minimal recursive reference implementation (exponential; only for tiny
/// inputs).
size_t BruteForceEditDistance(const std::string& a, const std::string& b) {
  if (a.empty()) return b.size();
  if (b.empty()) return a.size();
  size_t substitute = BruteForceEditDistance(a.substr(1), b.substr(1)) +
                      (a[0] == b[0] ? 0 : 1);
  size_t erase = BruteForceEditDistance(a.substr(1), b) + 1;
  size_t insert = BruteForceEditDistance(a, b.substr(1)) + 1;
  return std::min({substitute, erase, insert});
}

TEST(EditDistancePropertyTest, ExhaustiveBinaryStringsUpToLengthFour) {
  // All pairs of binary strings with length <= 4: 31 x 31 combinations,
  // DP vs brute force.
  std::vector<std::string> universe{""};
  for (size_t len = 1; len <= 4; ++len) {
    for (size_t bits = 0; bits < (1u << len); ++bits) {
      std::string s;
      for (size_t i = 0; i < len; ++i) {
        s.push_back((bits >> i) & 1 ? 'b' : 'a');
      }
      universe.push_back(s);
    }
  }
  for (const std::string& a : universe) {
    for (const std::string& b : universe) {
      ASSERT_EQ(EditDistance::Compute(a, b), BruteForceEditDistance(a, b))
          << a << " vs " << b;
    }
  }
}

TEST(EditDistancePropertyTest, IdentityOfIndiscernibles) {
  auto prng = MakePrng(PrngKind::kXoshiro256, 3);
  Alphabet dna = Alphabet::Dna();
  const std::string symbols = "ACGT";
  for (int trial = 0; trial < 30; ++trial) {
    std::string s;
    size_t len = prng->NextBounded(20);
    for (size_t i = 0; i < len; ++i) {
      s.push_back(symbols[prng->NextBounded(4)]);
    }
    EXPECT_EQ(EditDistance::Compute(s, s), 0u);
  }
}

// --------------------------------------------------- distance metric axioms

TEST(DistanceAxiomsTest, NumericDistanceIsAMetric) {
  auto prng = MakePrng(PrngKind::kXoshiro256, 4);
  for (int trial = 0; trial < 200; ++trial) {
    int64_t x = Distributions::UniformInt(prng.get(), -1000, 1000);
    int64_t y = Distributions::UniformInt(prng.get(), -1000, 1000);
    int64_t z = Distributions::UniformInt(prng.get(), -1000, 1000);
    double dxy = Comparators::NumericDistance(x, y);
    double dyx = Comparators::NumericDistance(y, x);
    double dxz = Comparators::NumericDistance(x, z);
    double dzy = Comparators::NumericDistance(z, y);
    EXPECT_EQ(dxy, dyx);
    EXPECT_GE(dxy, 0.0);
    EXPECT_EQ(Comparators::NumericDistance(x, x), 0.0);
    EXPECT_LE(dxy, dxz + dzy);
  }
}

TEST(DistanceAxiomsTest, CategoricalDistanceIsAMetric) {
  std::vector<std::string> values{"a", "b", "c", "a"};
  for (const auto& x : values) {
    for (const auto& y : values) {
      double d = Comparators::CategoricalDistance(x, y);
      EXPECT_EQ(d, Comparators::CategoricalDistance(y, x));
      EXPECT_EQ(d == 0.0, x == y);
      for (const auto& z : values) {
        EXPECT_LE(d, Comparators::CategoricalDistance(x, z) +
                         Comparators::CategoricalDistance(z, y));
      }
    }
  }
}

// --------------------------------------------- dissimilarity matrix algebra

TEST(MatrixAlgebraTest, WeightedMergeIsConvex) {
  auto prng = MakePrng(PrngKind::kXoshiro256, 5);
  DissimilarityMatrix a(6), b(6);
  for (size_t i = 1; i < 6; ++i) {
    for (size_t j = 0; j < i; ++j) {
      a.set(i, j, prng->NextUnitDouble());
      b.set(i, j, prng->NextUnitDouble());
    }
  }
  auto merged =
      DissimilarityMatrix::WeightedMerge({&a, &b}, {0.3, 0.7}).TakeValue();
  for (size_t i = 1; i < 6; ++i) {
    for (size_t j = 0; j < i; ++j) {
      double lo = std::min(a.at(i, j), b.at(i, j));
      double hi = std::max(a.at(i, j), b.at(i, j));
      EXPECT_GE(merged.at(i, j), lo - 1e-12);
      EXPECT_LE(merged.at(i, j), hi + 1e-12);
    }
  }
}

TEST(MatrixAlgebraTest, WeightScaleInvariance) {
  // Scaling all weights by a constant must not change the merge.
  auto prng = MakePrng(PrngKind::kXoshiro256, 6);
  DissimilarityMatrix a(5), b(5), c(5);
  for (size_t i = 1; i < 5; ++i) {
    for (size_t j = 0; j < i; ++j) {
      a.set(i, j, prng->NextUnitDouble());
      b.set(i, j, prng->NextUnitDouble());
      c.set(i, j, prng->NextUnitDouble());
    }
  }
  auto m1 = DissimilarityMatrix::WeightedMerge({&a, &b, &c}, {1.0, 2.0, 3.0})
                .TakeValue();
  auto m2 = DissimilarityMatrix::WeightedMerge({&a, &b, &c}, {10.0, 20.0, 30.0})
                .TakeValue();
  EXPECT_LT(m1.MaxAbsDifference(m2).TakeValue(), 1e-12);
}

TEST(MatrixAlgebraTest, NormalizeIsIdempotent) {
  auto prng = MakePrng(PrngKind::kXoshiro256, 7);
  DissimilarityMatrix d(8);
  for (size_t i = 1; i < 8; ++i) {
    for (size_t j = 0; j < i; ++j) {
      d.set(i, j, prng->NextUnitDouble() * 42.0);
    }
  }
  d.Normalize();
  DissimilarityMatrix once =
      DissimilarityMatrix::FromPacked(8, d.packed_cells()).TakeValue();
  d.Normalize();
  EXPECT_LT(d.MaxAbsDifference(once).TakeValue(), 1e-12);
  EXPECT_DOUBLE_EQ(d.MaxValue(), 1.0);
}

// ------------------------------------------------ quality metric invariance

TEST(QualityInvarianceTest, ExternalMetricsInvariantUnderRelabeling) {
  auto prng = MakePrng(PrngKind::kXoshiro256, 8);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<int> truth(30), predicted(30);
    for (size_t i = 0; i < truth.size(); ++i) {
      truth[i] = static_cast<int>(prng->NextBounded(4));
      predicted[i] = static_cast<int>(prng->NextBounded(4));
    }
    // Random permutation of predicted label names.
    std::vector<int> permutation{0, 1, 2, 3};
    Distributions::Shuffle(prng.get(), &permutation);
    std::vector<int> renamed(predicted.size());
    for (size_t i = 0; i < predicted.size(); ++i) {
      renamed[i] = permutation[predicted[i]];
    }
    EXPECT_NEAR(Quality::AdjustedRandIndex(predicted, truth).TakeValue(),
                Quality::AdjustedRandIndex(renamed, truth).TakeValue(), 1e-12);
    EXPECT_NEAR(Quality::RandIndex(predicted, truth).TakeValue(),
                Quality::RandIndex(renamed, truth).TakeValue(), 1e-12);
    EXPECT_NEAR(Quality::PairwiseF1(predicted, truth).TakeValue(),
                Quality::PairwiseF1(renamed, truth).TakeValue(), 1e-12);
    EXPECT_NEAR(Quality::Purity(predicted, truth).TakeValue(),
                Quality::Purity(renamed, truth).TakeValue(), 1e-12);
  }
}

TEST(QualityInvarianceTest, RandIndexSymmetry) {
  auto prng = MakePrng(PrngKind::kXoshiro256, 9);
  std::vector<int> a(25), b(25);
  for (size_t i = 0; i < a.size(); ++i) {
    a[i] = static_cast<int>(prng->NextBounded(3));
    b[i] = static_cast<int>(prng->NextBounded(3));
  }
  EXPECT_DOUBLE_EQ(Quality::RandIndex(a, b).TakeValue(),
                   Quality::RandIndex(b, a).TakeValue());
  EXPECT_NEAR(Quality::AdjustedRandIndex(a, b).TakeValue(),
              Quality::AdjustedRandIndex(b, a).TakeValue(), 1e-12);
}

// ----------------------------------------------------- alphabets, sweeping --

class AlphabetSweepTest : public ::testing::TestWithParam<const char*> {};

TEST_P(AlphabetSweepTest, ModularArithmeticInvertsForAllPairs) {
  Alphabet alphabet = Alphabet::Create(GetParam()).TakeValue();
  for (uint8_t a = 0; a < alphabet.size(); ++a) {
    for (uint8_t r = 0; r < alphabet.size(); ++r) {
      ASSERT_EQ(alphabet.SubMod(alphabet.AddMod(a, r), r), a);
      ASSERT_EQ(alphabet.AddMod(alphabet.SubMod(a, r), r), a);
    }
  }
}

TEST_P(AlphabetSweepTest, EncodeDecodeIsIdentity) {
  Alphabet alphabet = Alphabet::Create(GetParam()).TakeValue();
  std::string all(GetParam());
  EXPECT_EQ(alphabet.Decode(alphabet.Encode(all).TakeValue()).value(), all);
}

INSTANTIATE_TEST_SUITE_P(Alphabets, AlphabetSweepTest,
                         ::testing::Values("ACGT", "ab", "0123456789",
                                           "abcdefghijklmnopqrstuvwxyz"),
                         [](const auto& info) {
                           return "Size" +
                                  std::to_string(std::string(info.param).size());
                         });

// -------------------------------------------------- taxonomy distance axioms

TEST(TaxonomyAxiomsTest, DistanceIsAMetricOnRandomTrees) {
  auto prng = MakePrng(PrngKind::kXoshiro256, 10);
  for (int trial = 0; trial < 10; ++trial) {
    // Random tree over 12 nodes: parent of node i is a random node < i.
    std::vector<std::pair<std::string, std::string>> edges;
    for (int i = 1; i < 12; ++i) {
      int parent = static_cast<int>(prng->NextBounded(i));
      edges.push_back({"n" + std::to_string(i), "n" + std::to_string(parent)});
    }
    auto taxonomy = CategoryTaxonomy::Create(edges).TakeValue();
    const auto& nodes = taxonomy.categories();
    for (const auto& a : nodes) {
      EXPECT_DOUBLE_EQ(taxonomy.Distance(a, a).value(), 0.0);
      for (const auto& b : nodes) {
        double dab = taxonomy.Distance(a, b).value();
        EXPECT_DOUBLE_EQ(dab, taxonomy.Distance(b, a).value());
        EXPECT_GE(dab, 0.0);
        EXPECT_LE(dab, 1.0);
        for (const auto& c : nodes) {
          EXPECT_LE(dab, taxonomy.Distance(a, c).value() +
                             taxonomy.Distance(c, b).value() + 1e-12);
        }
      }
    }
  }
}

}  // namespace
}  // namespace ppc

// Unit tests for src/distance: the comparison functions of paper Sec. 2.3,
// edit distance engines, character comparison matrices, the packed
// dissimilarity matrix, and Fig.-12 local construction.

#include <gtest/gtest.h>

#include "common/fixed_point.h"
#include "data/data_matrix.h"
#include "distance/comparators.h"
#include "distance/dissimilarity_matrix.h"
#include "distance/edit_distance.h"
#include "rng/distributions.h"
#include "rng/prng.h"

namespace ppc {
namespace {

// ------------------------------------------------------------ Comparators --

TEST(ComparatorsTest, NumericDistanceIsAbsoluteDifference) {
  EXPECT_EQ(Comparators::NumericDistance(3, 8), 5.0);
  EXPECT_EQ(Comparators::NumericDistance(8, 3), 5.0);
  EXPECT_EQ(Comparators::NumericDistance(-3, 8), 11.0);
  EXPECT_EQ(Comparators::NumericDistance(7, 7), 0.0);
}

TEST(ComparatorsTest, NumericDistanceExtremeValuesNoOverflow) {
  int64_t max = std::numeric_limits<int64_t>::max();
  int64_t min = std::numeric_limits<int64_t>::min();
  EXPECT_EQ(Comparators::NumericDistance(max, max - 5), 5.0);
  EXPECT_EQ(Comparators::NumericDistance(min, min + 5), 5.0);
  // Full span = 2^64 - 1, exactly representable check via double compare.
  EXPECT_DOUBLE_EQ(Comparators::NumericDistance(max, min),
                   18446744073709551615.0);
}

TEST(ComparatorsTest, CategoricalDistanceIsEqualityIndicator) {
  EXPECT_EQ(Comparators::CategoricalDistance("a", "a"), 0.0);
  EXPECT_EQ(Comparators::CategoricalDistance("a", "b"), 1.0);
  EXPECT_EQ(Comparators::CategoricalDistance("", ""), 0.0);
}

TEST(ComparatorsTest, AlphanumericDistanceIsEditDistance) {
  EXPECT_EQ(Comparators::AlphanumericDistance("kitten", "sitting"), 3.0);
}

// ---------------------------------------------------------- Edit distance --

TEST(EditDistanceTest, ClassicCases) {
  EXPECT_EQ(EditDistance::Compute("", ""), 0u);
  EXPECT_EQ(EditDistance::Compute("abc", ""), 3u);
  EXPECT_EQ(EditDistance::Compute("", "abc"), 3u);
  EXPECT_EQ(EditDistance::Compute("abc", "abc"), 0u);
  EXPECT_EQ(EditDistance::Compute("kitten", "sitting"), 3u);
  EXPECT_EQ(EditDistance::Compute("flaw", "lawn"), 2u);
  EXPECT_EQ(EditDistance::Compute("intention", "execution"), 5u);
  EXPECT_EQ(EditDistance::Compute("ACGT", "AGT"), 1u);
}

TEST(EditDistanceTest, Symmetric) {
  auto prng = MakePrng(PrngKind::kXoshiro256, 1);
  const std::string symbols = "ACGT";
  for (int trial = 0; trial < 50; ++trial) {
    std::string a, b;
    size_t la = prng->NextBounded(12);
    size_t lb = prng->NextBounded(12);
    for (size_t i = 0; i < la; ++i) a.push_back(symbols[prng->NextBounded(4)]);
    for (size_t i = 0; i < lb; ++i) b.push_back(symbols[prng->NextBounded(4)]);
    EXPECT_EQ(EditDistance::Compute(a, b), EditDistance::Compute(b, a));
  }
}

TEST(EditDistanceTest, TriangleInequality) {
  auto prng = MakePrng(PrngKind::kXoshiro256, 2);
  const std::string symbols = "AC";
  for (int trial = 0; trial < 50; ++trial) {
    std::string s[3];
    for (auto& str : s) {
      size_t len = 1 + prng->NextBounded(8);
      for (size_t i = 0; i < len; ++i) {
        str.push_back(symbols[prng->NextBounded(2)]);
      }
    }
    size_t ab = EditDistance::Compute(s[0], s[1]);
    size_t bc = EditDistance::Compute(s[1], s[2]);
    size_t ac = EditDistance::Compute(s[0], s[2]);
    EXPECT_LE(ac, ab + bc);
  }
}

TEST(EditDistanceTest, CcmFromStringsMatchesDefinition) {
  CharComparisonMatrix ccm = CharComparisonMatrix::FromStrings("abc", "bd");
  EXPECT_EQ(ccm.source_length(), 3u);
  EXPECT_EQ(ccm.target_length(), 2u);
  // CCM[i][j] == 0 iff source[i] == target[j].
  EXPECT_EQ(ccm.at(0, 0), 1);  // a vs b.
  EXPECT_EQ(ccm.at(1, 0), 0);  // b vs b.
  EXPECT_EQ(ccm.at(1, 1), 1);  // b vs d.
  EXPECT_EQ(ccm.at(2, 1), 1);  // c vs d.
}

TEST(EditDistanceTest, CcmDrivenEqualsDirect) {
  // The paper's claim: the CCM is "equally expressive" — edit distance from
  // the CCM equals edit distance from the strings.
  auto prng = MakePrng(PrngKind::kXoshiro256, 3);
  const std::string symbols = "ACGT";
  for (int trial = 0; trial < 100; ++trial) {
    std::string a, b;
    size_t la = prng->NextBounded(15);
    size_t lb = prng->NextBounded(15);
    for (size_t i = 0; i < la; ++i) a.push_back(symbols[prng->NextBounded(4)]);
    for (size_t i = 0; i < lb; ++i) b.push_back(symbols[prng->NextBounded(4)]);
    EXPECT_EQ(
        EditDistance::ComputeFromCcm(CharComparisonMatrix::FromStrings(a, b)),
        EditDistance::Compute(a, b))
        << "a=" << a << " b=" << b;
  }
}

class BandedEditDistanceTest : public ::testing::TestWithParam<size_t> {};

TEST_P(BandedEditDistanceTest, ExactWithinBandSaturatedBeyond) {
  const size_t band = GetParam();
  auto prng = MakePrng(PrngKind::kXoshiro256, 4);
  const std::string symbols = "ACGT";
  for (int trial = 0; trial < 60; ++trial) {
    std::string a, b;
    size_t la = prng->NextBounded(20);
    size_t lb = prng->NextBounded(20);
    for (size_t i = 0; i < la; ++i) a.push_back(symbols[prng->NextBounded(4)]);
    for (size_t i = 0; i < lb; ++i) b.push_back(symbols[prng->NextBounded(4)]);
    size_t exact = EditDistance::Compute(a, b);
    size_t banded = EditDistance::ComputeBanded(a, b, band);
    if (exact <= band) {
      EXPECT_EQ(banded, exact) << "a=" << a << " b=" << b;
    } else {
      EXPECT_GT(banded, band) << "a=" << a << " b=" << b;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Bands, BandedEditDistanceTest,
                         ::testing::Values(0, 1, 2, 3, 5, 8));

// --------------------------------------------------- DissimilarityMatrix --

TEST(DissimilarityMatrixTest, DiagonalZeroAndSymmetry) {
  DissimilarityMatrix d(4);
  d.set(2, 1, 5.0);
  EXPECT_EQ(d.at(2, 1), 5.0);
  EXPECT_EQ(d.at(1, 2), 5.0);  // Symmetric access.
  EXPECT_EQ(d.at(3, 3), 0.0);
  EXPECT_EQ(d.NumEntries(), 6u);
}

TEST(DissimilarityMatrixTest, BoundsChecking) {
  DissimilarityMatrix d(3);
  EXPECT_FALSE(d.At(3, 0).ok());
  EXPECT_FALSE(d.Set(0, 3, 1.0).ok());
  EXPECT_EQ(d.Set(1, 1, 1.0).code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(d.Set(2, 0, 1.5).ok());
  EXPECT_EQ(d.At(0, 2).value(), 1.5);
}

TEST(DissimilarityMatrixTest, NormalizeScalesIntoUnitInterval) {
  DissimilarityMatrix d(3);
  d.set(1, 0, 2.0);
  d.set(2, 0, 8.0);
  d.set(2, 1, 4.0);
  EXPECT_EQ(d.MaxValue(), 8.0);
  d.Normalize();
  EXPECT_DOUBLE_EQ(d.at(1, 0), 0.25);
  EXPECT_DOUBLE_EQ(d.at(2, 0), 1.0);
  EXPECT_DOUBLE_EQ(d.at(2, 1), 0.5);
}

TEST(DissimilarityMatrixTest, NormalizeAllZerosIsNoOp) {
  DissimilarityMatrix d(3);
  d.Normalize();
  EXPECT_EQ(d.at(1, 0), 0.0);
}

TEST(DissimilarityMatrixTest, WeightedMergeNormalizesWeights) {
  DissimilarityMatrix a(2), b(2);
  a.set(1, 0, 1.0);
  b.set(1, 0, 3.0);
  auto merged =
      DissimilarityMatrix::WeightedMerge({&a, &b}, {2.0, 2.0}).TakeValue();
  EXPECT_DOUBLE_EQ(merged.at(1, 0), 2.0);  // Equal weights -> average.
  merged =
      DissimilarityMatrix::WeightedMerge({&a, &b}, {1.0, 0.0}).TakeValue();
  EXPECT_DOUBLE_EQ(merged.at(1, 0), 1.0);
}

TEST(DissimilarityMatrixTest, WeightedMergeSumsTermsInMatrixOrder) {
  // Each cell is 0.0 + w0*m0 + w1*m1 + ... in matrix order, zero weights
  // skipped: the exact rounding sequence the merged matrix is pinned to.
  auto prng = MakePrng(PrngKind::kXoshiro256, 5);
  std::vector<DissimilarityMatrix> parts(3, DissimilarityMatrix(40));
  for (DissimilarityMatrix& m : parts) {
    for (size_t i = 1; i < 40; ++i) {
      for (size_t j = 0; j < i; ++j) m.set(i, j, prng->NextUnitDouble());
    }
  }
  const std::vector<double> weights{0.3, 0.0, 1.7};
  auto merged = DissimilarityMatrix::WeightedMerge(
                    {&parts[0], &parts[1], &parts[2]}, weights)
                    .TakeValue();
  const double w0 = 0.3 / 2.0, w2 = 1.7 / 2.0;
  for (size_t i = 1; i < 40; ++i) {
    for (size_t j = 0; j < i; ++j) {
      double expected = 0.0;
      expected += w0 * parts[0].at(i, j);
      expected += w2 * parts[2].at(i, j);
      ASSERT_EQ(merged.at(i, j), expected) << i << "," << j;
    }
  }
}

TEST(DissimilarityMatrixTest, WeightedMergeValidation) {
  DissimilarityMatrix a(2), b(3);
  EXPECT_FALSE(DissimilarityMatrix::WeightedMerge({&a, &b}, {1.0, 1.0}).ok());
  EXPECT_FALSE(DissimilarityMatrix::WeightedMerge({&a}, {1.0, 1.0}).ok());
  EXPECT_FALSE(DissimilarityMatrix::WeightedMerge({&a}, {-1.0}).ok());
  EXPECT_FALSE(DissimilarityMatrix::WeightedMerge({&a}, {0.0}).ok());
  EXPECT_FALSE(DissimilarityMatrix::WeightedMerge({}, {}).ok());
}

TEST(DissimilarityMatrixTest, PackedRoundTrip) {
  DissimilarityMatrix d(4);
  d.set(1, 0, 1.0);
  d.set(3, 2, 9.0);
  auto copy =
      DissimilarityMatrix::FromPacked(4, d.packed_cells()).TakeValue();
  EXPECT_EQ(copy.MaxAbsDifference(d).value(), 0.0);
  EXPECT_FALSE(DissimilarityMatrix::FromPacked(5, d.packed_cells()).ok());
}

TEST(DissimilarityMatrixTest, MaxAbsDifference) {
  DissimilarityMatrix a(3), b(3);
  a.set(2, 1, 4.0);
  b.set(2, 1, 1.5);
  EXPECT_DOUBLE_EQ(a.MaxAbsDifference(b).value(), 2.5);
  DissimilarityMatrix c(2);
  EXPECT_FALSE(a.MaxAbsDifference(c).ok());
}

// ------------------------------------------------------ LocalDissimilarity --

TEST(LocalDissimilarityTest, IntegerColumnMatchesFig12) {
  Schema schema = Schema::Create({{"v", AttributeType::kInteger}}).TakeValue();
  DataMatrix m(schema);
  for (int64_t v : {10, 3, 8}) {
    ASSERT_TRUE(m.AppendRow({Value::Integer(v)}).ok());
  }
  FixedPointCodec codec = FixedPointCodec::Create(6).TakeValue();
  auto d = LocalDissimilarity::Build(m, 0, codec).TakeValue();
  EXPECT_EQ(d.at(1, 0), 7.0);
  EXPECT_EQ(d.at(2, 0), 2.0);
  EXPECT_EQ(d.at(2, 1), 5.0);
}

TEST(LocalDissimilarityTest, RealColumnUsesFixedPointGrid) {
  Schema schema = Schema::Create({{"v", AttributeType::kReal}}).TakeValue();
  DataMatrix m(schema);
  ASSERT_TRUE(m.AppendRow({Value::Real(1.25)}).ok());
  ASSERT_TRUE(m.AppendRow({Value::Real(-0.75)}).ok());
  FixedPointCodec codec = FixedPointCodec::Create(3).TakeValue();
  auto d = LocalDissimilarity::Build(m, 0, codec).TakeValue();
  EXPECT_DOUBLE_EQ(d.at(1, 0), 2.0);
}

TEST(LocalDissimilarityTest, CategoricalAndAlphanumericColumns) {
  Schema schema = Schema::Create({{"c", AttributeType::kCategorical},
                                  {"s", AttributeType::kAlphanumeric}})
                      .TakeValue();
  DataMatrix m(schema);
  ASSERT_TRUE(
      m.AppendRow({Value::Categorical("x"), Value::Alphanumeric("AC")}).ok());
  ASSERT_TRUE(
      m.AppendRow({Value::Categorical("x"), Value::Alphanumeric("AG")}).ok());
  ASSERT_TRUE(
      m.AppendRow({Value::Categorical("y"), Value::Alphanumeric("ACGT")}).ok());
  FixedPointCodec codec = FixedPointCodec::Create(6).TakeValue();
  auto cat = LocalDissimilarity::Build(m, 0, codec).TakeValue();
  EXPECT_EQ(cat.at(1, 0), 0.0);
  EXPECT_EQ(cat.at(2, 0), 1.0);
  auto alnum = LocalDissimilarity::Build(m, 1, codec).TakeValue();
  EXPECT_EQ(alnum.at(1, 0), 1.0);  // AC -> AG.
  EXPECT_EQ(alnum.at(2, 0), 2.0);  // AC -> ACGT.
}

TEST(LocalDissimilarityTest, BuildAllCoversEveryColumn) {
  Schema schema = Schema::Create({{"a", AttributeType::kInteger},
                                  {"b", AttributeType::kCategorical}})
                      .TakeValue();
  DataMatrix m(schema);
  ASSERT_TRUE(m.AppendRow({Value::Integer(1), Value::Categorical("p")}).ok());
  ASSERT_TRUE(m.AppendRow({Value::Integer(4), Value::Categorical("q")}).ok());
  FixedPointCodec codec = FixedPointCodec::Create(6).TakeValue();
  auto all = LocalDissimilarity::BuildAll(m, codec).TakeValue();
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(all[0].at(1, 0), 3.0);
  EXPECT_EQ(all[1].at(1, 0), 1.0);
}

TEST(LocalDissimilarityTest, ColumnOutOfRange) {
  Schema schema = Schema::Create({{"v", AttributeType::kInteger}}).TakeValue();
  DataMatrix m(schema);
  FixedPointCodec codec = FixedPointCodec::Create(6).TakeValue();
  EXPECT_FALSE(LocalDissimilarity::Build(m, 1, codec).ok());
}

}  // namespace
}  // namespace ppc

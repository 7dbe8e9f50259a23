// Unit tests for src/cluster: dendrograms, the two agglomerative engines
// (naive greedy and NN-chain must agree), DBSCAN, PAM, and quality metrics.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <deque>
#include <iterator>
#include <limits>
#include <map>
#include <set>
#include <string>

#include "cluster/agglomerative.h"
#include "cluster/dbscan.h"
#include "cluster/dendrogram.h"
#include "cluster/kmedoids.h"
#include "cluster/quality.h"
#include "distance/dissimilarity_matrix.h"
#include "rng/prng.h"

namespace ppc {
namespace {

/// 1-D points -> absolute-difference dissimilarity matrix.
DissimilarityMatrix FromPoints(const std::vector<double>& points) {
  DissimilarityMatrix d(points.size());
  for (size_t i = 1; i < points.size(); ++i) {
    for (size_t j = 0; j < i; ++j) {
      d.set(i, j, std::abs(points[i] - points[j]));
    }
  }
  return d;
}

DissimilarityMatrix RandomMatrix(size_t n, Prng* prng) {
  DissimilarityMatrix d(n);
  for (size_t i = 1; i < n; ++i) {
    for (size_t j = 0; j < i; ++j) {
      d.set(i, j, prng->NextUnitDouble() + 0.01);
    }
  }
  return d;
}

/// Two labelings partition identically iff their co-membership relations
/// agree.
bool SamePartition(const std::vector<int>& a, const std::vector<int>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    for (size_t j = 0; j < i; ++j) {
      if ((a[i] == a[j]) != (b[i] == b[j])) return false;
    }
  }
  return true;
}

// -------------------------------------------------------------- Dendrogram --

TEST(DendrogramTest, CutToClustersUndoesMerges) {
  // Points 0,1 close; 10,11 close; far apart groups.
  auto dendrogram =
      Agglomerative::Run(FromPoints({0.0, 1.0, 10.0, 11.0}), Linkage::kSingle)
          .TakeValue();
  ASSERT_EQ(dendrogram.merges().size(), 3u);
  auto two = dendrogram.CutToClusters(2).TakeValue();
  EXPECT_TRUE(SamePartition(two, {0, 0, 1, 1}));
  auto one = dendrogram.CutToClusters(1).TakeValue();
  EXPECT_TRUE(SamePartition(one, {0, 0, 0, 0}));
  auto four = dendrogram.CutToClusters(4).TakeValue();
  EXPECT_TRUE(SamePartition(four, {0, 1, 2, 3}));
  EXPECT_FALSE(dendrogram.CutToClusters(0).ok());
  EXPECT_FALSE(dendrogram.CutToClusters(5).ok());
}

TEST(DendrogramTest, CutAtHeightRespectsThreshold) {
  auto dendrogram =
      Agglomerative::Run(FromPoints({0.0, 1.0, 10.0, 11.0}), Linkage::kSingle)
          .TakeValue();
  // Merges at heights 1, 1, 9 (single linkage).
  EXPECT_TRUE(SamePartition(dendrogram.CutAtHeight(2.0), {0, 0, 1, 1}));
  EXPECT_TRUE(SamePartition(dendrogram.CutAtHeight(0.5), {0, 1, 2, 3}));
  EXPECT_TRUE(SamePartition(dendrogram.CutAtHeight(100.0), {0, 0, 0, 0}));
}

TEST(DendrogramTest, SingleLeafDendrogram) {
  auto dendrogram =
      Agglomerative::Run(FromPoints({5.0}), Linkage::kAverage).TakeValue();
  EXPECT_EQ(dendrogram.merges().size(), 0u);
  EXPECT_EQ(dendrogram.CutToClusters(1).value(), (std::vector<int>{0}));
}

// ----------------------------------------------------------- Agglomerative --

TEST(AgglomerativeTest, KnownSingleLinkageHeights) {
  auto dendrogram =
      Agglomerative::Run(FromPoints({0.0, 2.0, 5.0, 9.0}), Linkage::kSingle)
          .TakeValue();
  // Single linkage merges at gaps: 2, 3, 4.
  ASSERT_EQ(dendrogram.merges().size(), 3u);
  EXPECT_DOUBLE_EQ(dendrogram.merges()[0].height, 2.0);
  EXPECT_DOUBLE_EQ(dendrogram.merges()[1].height, 3.0);
  EXPECT_DOUBLE_EQ(dendrogram.merges()[2].height, 4.0);
}

TEST(AgglomerativeTest, KnownCompleteLinkageHeights) {
  auto dendrogram =
      Agglomerative::Run(FromPoints({0.0, 2.0, 5.0, 9.0}), Linkage::kComplete)
          .TakeValue();
  // Merges: {0,1}@2, {2,3}@4, then complete distance 9.
  ASSERT_EQ(dendrogram.merges().size(), 3u);
  EXPECT_DOUBLE_EQ(dendrogram.merges()[0].height, 2.0);
  EXPECT_DOUBLE_EQ(dendrogram.merges()[1].height, 4.0);
  EXPECT_DOUBLE_EQ(dendrogram.merges()[2].height, 9.0);
}

TEST(AgglomerativeTest, KnownAverageLinkageHeights) {
  auto dendrogram =
      Agglomerative::Run(FromPoints({0.0, 2.0, 10.0, 13.0}), Linkage::kAverage)
          .TakeValue();
  ASSERT_EQ(dendrogram.merges().size(), 3u);
  EXPECT_DOUBLE_EQ(dendrogram.merges()[0].height, 2.0);
  EXPECT_DOUBLE_EQ(dendrogram.merges()[1].height, 3.0);
  // Average of {|0-10|,|0-13|,|2-10|,|2-13|} = (10+13+8+11)/4 = 10.5.
  EXPECT_DOUBLE_EQ(dendrogram.merges()[2].height, 10.5);
}

TEST(AgglomerativeTest, MergeSizesAccumulate) {
  auto dendrogram =
      Agglomerative::Run(FromPoints({0.0, 2.0, 5.0, 9.0}), Linkage::kSingle)
          .TakeValue();
  EXPECT_EQ(dendrogram.merges().back().size, 4u);
}

class LinkageParamTest : public ::testing::TestWithParam<Linkage> {};

TEST_P(LinkageParamTest, NnChainMatchesNaiveGreedy) {
  auto prng = MakePrng(PrngKind::kXoshiro256, 42);
  for (size_t n : {2u, 3u, 5u, 10u, 25u, 60u}) {
    DissimilarityMatrix d = RandomMatrix(n, prng.get());
    auto fast = Agglomerative::Run(d, GetParam()).TakeValue();
    auto naive = Agglomerative::RunNaive(d, GetParam()).TakeValue();
    ASSERT_EQ(fast.merges().size(), naive.merges().size());
    for (size_t k = 0; k < fast.merges().size(); ++k) {
      EXPECT_NEAR(fast.merges()[k].height, naive.merges()[k].height, 1e-9)
          << "n=" << n << " merge " << k;
    }
    // Same flat clusterings at several cuts.
    for (size_t k : {size_t{1}, size_t{2}, n / 2 + 1, n}) {
      EXPECT_TRUE(SamePartition(fast.CutToClusters(k).value(),
                                naive.CutToClusters(k).value()))
          << "n=" << n << " cut " << k;
    }
  }
}

TEST_P(LinkageParamTest, HeightsMonotone) {
  auto prng = MakePrng(PrngKind::kXoshiro256, 7);
  DissimilarityMatrix d = RandomMatrix(40, prng.get());
  auto dendrogram = Agglomerative::Run(d, GetParam()).TakeValue();
  EXPECT_TRUE(dendrogram.HeightsMonotone());
}

TEST_P(LinkageParamTest, WellSeparatedBlobsRecovered) {
  auto prng = MakePrng(PrngKind::kXoshiro256, 8);
  std::vector<double> points;
  std::vector<int> truth;
  for (int c = 0; c < 3; ++c) {
    for (int i = 0; i < 8; ++i) {
      points.push_back(100.0 * c + prng->NextUnitDouble());
      truth.push_back(c);
    }
  }
  auto dendrogram =
      Agglomerative::Run(FromPoints(points), GetParam()).TakeValue();
  EXPECT_TRUE(SamePartition(dendrogram.CutToClusters(3).value(), truth));
}

INSTANTIATE_TEST_SUITE_P(AllLinkages, LinkageParamTest,
                         ::testing::Values(Linkage::kSingle,
                                           Linkage::kComplete,
                                           Linkage::kAverage, Linkage::kWard),
                         [](const auto& info) {
                           return std::string(LinkageToString(info.param));
                         });

TEST(AgglomerativeTest, SingleLinkageFindsElongatedShapes) {
  // A chain of points: single linkage keeps it together, complete splits
  // it — the paper's "arbitrary shapes" argument for hierarchical methods.
  std::vector<double> chain;
  for (int i = 0; i < 20; ++i) chain.push_back(i * 1.0);
  chain.push_back(100.0);  // Lone far point.
  auto single =
      Agglomerative::Run(FromPoints(chain), Linkage::kSingle).TakeValue();
  auto labels = single.CutToClusters(2).TakeValue();
  std::vector<int> expected(20, 0);
  expected.push_back(1);
  EXPECT_TRUE(SamePartition(labels, expected));
}

TEST(AgglomerativeTest, EmptyMatrixRejected) {
  DissimilarityMatrix d(0);
  EXPECT_FALSE(Agglomerative::Run(d, Linkage::kSingle).ok());
  EXPECT_FALSE(Agglomerative::RunNaive(d, Linkage::kSingle).ok());
}

// ------------------------------------------------------------------ DBSCAN --

TEST(DbscanTest, FindsDenseClustersAndNoise) {
  // Two dense 1-D blobs plus one isolated point.
  std::vector<double> points{0.0, 0.1, 0.2, 0.3, 5.0, 5.1, 5.2, 5.3, 50.0};
  Dbscan::Options options;
  options.eps = 0.5;
  options.min_points = 3;
  auto labels = Dbscan::Run(FromPoints(points), options).TakeValue();
  EXPECT_EQ(labels[0], labels[3]);
  EXPECT_EQ(labels[4], labels[7]);
  EXPECT_NE(labels[0], labels[4]);
  EXPECT_EQ(labels[8], Dbscan::kNoise);
}

TEST(DbscanTest, BorderPointsJoinCores) {
  std::vector<double> points{0.0, 0.4, 0.8, 1.2};  // Chain within eps=0.5.
  Dbscan::Options options;
  options.eps = 0.5;
  options.min_points = 2;
  auto labels = Dbscan::Run(FromPoints(points), options).TakeValue();
  for (int label : labels) EXPECT_EQ(label, 0);
}

TEST(DbscanTest, AllNoiseWhenSparse) {
  std::vector<double> points{0.0, 10.0, 20.0};
  Dbscan::Options options;
  options.eps = 1.0;
  options.min_points = 2;
  auto labels = Dbscan::Run(FromPoints(points), options).TakeValue();
  for (int label : labels) EXPECT_EQ(label, Dbscan::kNoise);
}

TEST(DbscanTest, ParameterValidation) {
  DissimilarityMatrix d(3);
  EXPECT_FALSE(Dbscan::Run(d, {.eps = -1.0, .min_points = 2}).ok());
  EXPECT_FALSE(Dbscan::Run(d, {.eps = 1.0, .min_points = 0}).ok());
}

// Reference implementation with the pre-optimization frontier behavior
// (every core point re-enqueues its whole neighborhood, duplicates and
// visited points included). The shipped version filters at insertion time;
// this pins down that the filtering is behavior-preserving.
std::vector<int> DbscanWholesaleFrontierReference(
    const DissimilarityMatrix& matrix, const Dbscan::Options& options) {
  const size_t n = matrix.num_objects();
  std::vector<int> labels(n, Dbscan::kNoise);
  std::vector<bool> visited(n, false);
  auto neighbors_of = [&](size_t i) {
    std::vector<size_t> out;
    for (size_t j = 0; j < n; ++j) {
      if (matrix.at(i, j) <= options.eps) out.push_back(j);
    }
    return out;
  };
  int next_cluster = 0;
  for (size_t i = 0; i < n; ++i) {
    if (visited[i]) continue;
    visited[i] = true;
    std::vector<size_t> seeds = neighbors_of(i);
    if (seeds.size() < options.min_points) continue;
    int cluster = next_cluster++;
    labels[i] = cluster;
    std::deque<size_t> frontier(seeds.begin(), seeds.end());
    while (!frontier.empty()) {
      size_t j = frontier.front();
      frontier.pop_front();
      if (labels[j] == Dbscan::kNoise) labels[j] = cluster;
      if (visited[j]) continue;
      visited[j] = true;
      labels[j] = cluster;
      std::vector<size_t> expansion = neighbors_of(j);
      if (expansion.size() >= options.min_points) {
        frontier.insert(frontier.end(), expansion.begin(), expansion.end());
      }
    }
  }
  return labels;
}

TEST(DbscanTest, InsertionFilteredFrontierMatchesWholesaleReference) {
  auto prng = MakePrng(PrngKind::kXoshiro256, 99);
  for (size_t n : {10, 30, 60}) {
    DissimilarityMatrix d = RandomMatrix(n, prng.get());
    for (double eps : {0.05, 0.2, 0.5, 0.9}) {
      for (size_t min_points : {2, 4, 8}) {
        Dbscan::Options options;
        options.eps = eps;
        options.min_points = min_points;
        auto labels = Dbscan::Run(d, options).TakeValue();
        EXPECT_EQ(labels, DbscanWholesaleFrontierReference(d, options))
            << "n=" << n << " eps=" << eps << " min_points=" << min_points;
      }
    }
  }
}

TEST(DbscanTest, DenseDataMatchesReference) {
  // Fully dense neighborhood graph: the worst case for wholesale
  // re-enqueueing (every expansion used to append all n neighbors).
  auto points = std::vector<double>();
  for (size_t i = 0; i < 50; ++i) points.push_back(0.001 * i);
  auto d = FromPoints(points);
  Dbscan::Options options;
  options.eps = 1.0;
  options.min_points = 3;
  auto labels = Dbscan::Run(d, options).TakeValue();
  EXPECT_EQ(labels, DbscanWholesaleFrontierReference(d, options));
  for (int label : labels) EXPECT_EQ(label, 0);
}

// ---------------------------------------------------------------- KMedoids --

TEST(KMedoidsTest, RecoversSeparatedBlobs) {
  auto prng = MakePrng(PrngKind::kXoshiro256, 9);
  std::vector<double> points;
  std::vector<int> truth;
  for (int c = 0; c < 3; ++c) {
    for (int i = 0; i < 10; ++i) {
      points.push_back(50.0 * c + prng->NextUnitDouble());
      truth.push_back(c);
    }
  }
  KMedoids::Options options;
  options.k = 3;
  auto result =
      KMedoids::Run(FromPoints(points), options).TakeValue();
  EXPECT_TRUE(SamePartition(result.labels, truth));
  EXPECT_EQ(result.medoids.size(), 3u);
  std::set<int> labels(result.labels.begin(), result.labels.end());
  EXPECT_EQ(labels.size(), 3u);
}

TEST(KMedoidsTest, MedoidsBelongToOwnClusters) {
  auto prng = MakePrng(PrngKind::kXoshiro256, 10);
  DissimilarityMatrix d = RandomMatrix(20, prng.get());
  KMedoids::Options options;
  options.k = 4;
  auto result = KMedoids::Run(d, options).TakeValue();
  for (size_t c = 0; c < result.medoids.size(); ++c) {
    EXPECT_EQ(result.labels[result.medoids[c]], static_cast<int>(c));
  }
}

TEST(KMedoidsTest, KOneAssignsEverythingTogether) {
  auto prng = MakePrng(PrngKind::kXoshiro256, 11);
  DissimilarityMatrix d = RandomMatrix(10, prng.get());
  KMedoids::Options options;
  options.k = 1;
  auto result = KMedoids::Run(d, options).TakeValue();
  for (int label : result.labels) EXPECT_EQ(label, 0);
}

TEST(KMedoidsTest, ValidatesK) {
  auto prng = MakePrng(PrngKind::kXoshiro256, 12);
  DissimilarityMatrix d = RandomMatrix(5, prng.get());
  EXPECT_FALSE(KMedoids::Run(d, {.k = 0}).ok());
  EXPECT_FALSE(KMedoids::Run(d, {.k = 6}).ok());
}

TEST(KMedoidsTest, FullyDeterministic) {
  // No entropy parameter: repeated runs over the same matrix must agree
  // exactly (the greedy BUILD breaks ties toward the lowest index).
  auto prng = MakePrng(PrngKind::kXoshiro256, 21);
  DissimilarityMatrix d = RandomMatrix(25, prng.get());
  KMedoids::Options options;
  options.k = 4;
  auto first = KMedoids::Run(d, options).TakeValue();
  auto second = KMedoids::Run(d, options).TakeValue();
  EXPECT_EQ(first.labels, second.labels);
  EXPECT_EQ(first.medoids, second.medoids);
  EXPECT_EQ(first.total_cost, second.total_cost);
}

// ----------------------------------------------------------------- Quality --

TEST(QualityTest, SilhouetteHighForSeparatedClusters) {
  auto matrix = FromPoints({0.0, 0.1, 0.2, 10.0, 10.1, 10.2});
  std::vector<int> good{0, 0, 0, 1, 1, 1};
  std::vector<int> bad{0, 1, 0, 1, 0, 1};
  double s_good = Quality::Silhouette(matrix, good).TakeValue();
  double s_bad = Quality::Silhouette(matrix, bad).TakeValue();
  EXPECT_GT(s_good, 0.9);
  EXPECT_LT(s_bad, 0.1);
}

TEST(QualityTest, SilhouetteNeedsTwoClusters) {
  auto matrix = FromPoints({0.0, 1.0});
  EXPECT_FALSE(Quality::Silhouette(matrix, {0, 0}).ok());
}

TEST(QualityTest, WithinClusterMeanSquaredDistance) {
  auto matrix = FromPoints({0.0, 2.0, 10.0});
  auto wcmsd =
      Quality::WithinClusterMeanSquaredDistance(matrix, {0, 0, 1}).TakeValue();
  ASSERT_EQ(wcmsd.size(), 2u);
  EXPECT_DOUBLE_EQ(wcmsd[0], 4.0);  // One pair at distance 2.
  EXPECT_DOUBLE_EQ(wcmsd[1], 0.0);  // Singleton.
}

/// The silhouette as a direct per-object scan with label-keyed maps: the
/// definition the single-pass implementation must reproduce bit for bit.
double ReferenceSilhouette(const DissimilarityMatrix& d,
                           const std::vector<int>& labels) {
  std::map<int, size_t> sizes;
  for (int label : labels) sizes[label] += 1;
  double total = 0.0;
  for (size_t i = 0; i < labels.size(); ++i) {
    if (sizes[labels[i]] == 1) continue;
    std::map<int, double> sums;
    for (size_t j = 0; j < labels.size(); ++j) {
      if (j != i) sums[labels[j]] += d.at(i, j);
    }
    double a = sums[labels[i]] / static_cast<double>(sizes[labels[i]] - 1);
    double b = std::numeric_limits<double>::infinity();
    for (const auto& [label, sum] : sums) {
      if (label != labels[i]) {
        b = std::min(b, sum / static_cast<double>(sizes[label]));
      }
    }
    double denom = std::max(a, b);
    total += denom > 0.0 ? (b - a) / denom : 0.0;
  }
  return total / static_cast<double>(labels.size());
}

TEST(QualityTest, SilhouetteMatchesPerObjectReferenceWithManyLabels) {
  // Hundreds of labels split the objects into several blocks of label
  // sums; singletons and negative labels mixed in.
  auto prng = MakePrng(PrngKind::kXoshiro256, 31);
  const size_t n = 1100;
  DissimilarityMatrix d = RandomMatrix(n, prng.get());
  for (size_t num_labels : {size_t{2}, size_t{550}, size_t{1000}}) {
    std::vector<int> labels(n);
    for (size_t i = 0; i < n; ++i) {
      labels[i] = static_cast<int>(prng->NextBounded(num_labels)) - 7;
    }
    EXPECT_EQ(Quality::Silhouette(d, labels).TakeValue(),
              ReferenceSilhouette(d, labels))
        << num_labels << " labels";
  }
}

TEST(QualityTest, RandIndexBoundsAndIdentity) {
  std::vector<int> a{0, 0, 1, 1};
  EXPECT_DOUBLE_EQ(Quality::RandIndex(a, a).TakeValue(), 1.0);
  std::vector<int> opposite{0, 1, 0, 1};
  double r = Quality::RandIndex(a, opposite).TakeValue();
  EXPECT_GE(r, 0.0);
  EXPECT_LT(r, 1.0);
}

TEST(QualityTest, AdjustedRandIndexIdentityAndChance) {
  std::vector<int> a{0, 0, 1, 1, 2, 2};
  EXPECT_DOUBLE_EQ(Quality::AdjustedRandIndex(a, a).TakeValue(), 1.0);
  // Independent labelings hover near 0.
  auto prng = MakePrng(PrngKind::kXoshiro256, 13);
  std::vector<int> x, y;
  for (int i = 0; i < 300; ++i) {
    x.push_back(static_cast<int>(prng->NextBounded(3)));
    y.push_back(static_cast<int>(prng->NextBounded(3)));
  }
  EXPECT_NEAR(Quality::AdjustedRandIndex(x, y).TakeValue(), 0.0, 0.1);
}

TEST(QualityTest, LabelPermutationInvariance) {
  std::vector<int> truth{0, 0, 1, 1, 2, 2};
  std::vector<int> permuted{2, 2, 0, 0, 1, 1};
  EXPECT_DOUBLE_EQ(Quality::AdjustedRandIndex(permuted, truth).TakeValue(),
                   1.0);
  EXPECT_DOUBLE_EQ(Quality::PairwiseF1(permuted, truth).TakeValue(), 1.0);
  EXPECT_DOUBLE_EQ(Quality::Purity(permuted, truth).TakeValue(), 1.0);
}

TEST(QualityTest, PurityOfMergedClusters) {
  // One predicted cluster containing two true ones: purity 0.5.
  std::vector<int> predicted{0, 0, 0, 0};
  std::vector<int> truth{0, 0, 1, 1};
  EXPECT_DOUBLE_EQ(Quality::Purity(predicted, truth).TakeValue(), 0.5);
}

TEST(QualityTest, PairwiseF1PenalizesSplitsAndMerges) {
  std::vector<int> truth{0, 0, 0, 0};
  std::vector<int> split{0, 0, 1, 1};
  double f1 = Quality::PairwiseF1(split, truth).TakeValue();
  EXPECT_GT(f1, 0.0);
  EXPECT_LT(f1, 1.0);
}

TEST(QualityTest, InputValidation) {
  EXPECT_FALSE(Quality::RandIndex({0}, {0}).ok());
  EXPECT_FALSE(Quality::RandIndex({0, 1}, {0}).ok());
  EXPECT_FALSE(Quality::Purity({}, {}).ok());
  auto matrix = FromPoints({0.0, 1.0});
  EXPECT_FALSE(Quality::Silhouette(matrix, {0}).ok());
}

// ----------------------------------------------------- Golden bit-identity --
//
// The third party's clustering path (NN-chain, silhouette, within-cluster
// scores) is a performance-sensitive rewrite target whose output must never
// change by a single bit: these digests were captured from the original
// dense-symmetric-workspace implementation and pin every merge's children,
// size and height bits, and the exact bits of both quality scores.

/// Three input families: uniform random cells (no ties), cells rounded to
/// {0..4} (tie-heavy, zero distances), and Euclidean distances between
/// points on a small integer grid (tie-heavy, metric, duplicate points).
enum class GoldenKind { kUniform, kRounded, kGrid };

DissimilarityMatrix GoldenMatrix(GoldenKind kind, size_t n) {
  auto prng = MakePrng(PrngKind::kXoshiro256,
                       1000 * (static_cast<uint64_t>(kind) + 1) + n);
  DissimilarityMatrix d(n);
  if (kind == GoldenKind::kGrid) {
    std::vector<double> x(n), y(n);
    for (size_t i = 0; i < n; ++i) {
      x[i] = static_cast<double>(prng->NextBounded(16));
      y[i] = static_cast<double>(prng->NextBounded(16));
    }
    for (size_t i = 1; i < n; ++i) {
      for (size_t j = 0; j < i; ++j) {
        double dx = x[i] - x[j];
        double dy = y[i] - y[j];
        d.set(i, j, std::sqrt(dx * dx + dy * dy));
      }
    }
    return d;
  }
  for (size_t i = 1; i < n; ++i) {
    for (size_t j = 0; j < i; ++j) {
      d.set(i, j, kind == GoldenKind::kUniform
                      ? prng->NextUnitDouble() + 0.01
                      : static_cast<double>(prng->NextBounded(5)));
    }
  }
  return d;
}

/// Arbitrary, sparse int labels (DBSCAN's -1 included); the first two
/// objects always differ so the silhouette is defined.
std::vector<int> ArbitraryLabels(size_t n) {
  static constexpr int kLabels[] = {-1, 3, 17, -40};
  auto prng = MakePrng(PrngKind::kXoshiro256, 77 + n);
  std::vector<int> labels(n);
  for (size_t i = 0; i < n; ++i) labels[i] = kLabels[prng->NextBounded(4)];
  labels[0] = -1;
  if (n > 1) labels[1] = 17;
  return labels;
}

/// FNV-1a over 64-bit words.
class Digest {
 public:
  void Add(uint64_t word) {
    for (int i = 0; i < 8; ++i) {
      state_ ^= (word >> (8 * i)) & 0xff;
      state_ *= 0x100000001b3ull;
    }
  }
  void Add(double value) {
    uint64_t bits;
    std::memcpy(&bits, &value, sizeof(bits));
    Add(bits);
  }
  uint64_t value() const { return state_; }

 private:
  uint64_t state_ = 0xcbf29ce484222325ull;
};

uint64_t DendrogramDigest(const Dendrogram& dendrogram) {
  Digest digest;
  for (const MergeStep& merge : dendrogram.merges()) {
    digest.Add(uint64_t{merge.left});
    digest.Add(uint64_t{merge.right});
    digest.Add(uint64_t{merge.size});
    digest.Add(merge.height);
  }
  return digest.value();
}

/// Silhouette bits, or all-ones when the score is undefined.
uint64_t SilhouetteBits(const DissimilarityMatrix& d,
                        const std::vector<int>& labels) {
  auto score = Quality::Silhouette(d, labels);
  if (!score.ok()) return ~uint64_t{0};
  uint64_t bits;
  std::memcpy(&bits, &score.value(), sizeof(bits));
  return bits;
}

uint64_t WithinClusterDigest(const DissimilarityMatrix& d,
                             const std::vector<int>& labels) {
  Digest digest;
  for (double v :
       Quality::WithinClusterMeanSquaredDistance(d, labels).TakeValue()) {
    digest.Add(v);
  }
  return digest.value();
}

constexpr size_t kGoldenSizes[] = {2, 3, 60, 300, 1100};
constexpr GoldenKind kGoldenKinds[] = {GoldenKind::kUniform,
                                       GoldenKind::kRounded, GoldenKind::kGrid};
constexpr Linkage kGoldenLinkages[] = {Linkage::kSingle, Linkage::kComplete,
                                       Linkage::kAverage, Linkage::kWard};

// Row order: kind-major, then size, then linkage (single, complete, average,
// ward).
constexpr uint64_t kDendrogramGolden[] = {
    0xdbd1f09b6caa7594ull,
    0xdbd1f09b6caa7594ull,
    0xdbd1f09b6caa7594ull,
    0xdbd1f09b6caa7594ull,
    0xc8bcfd1829a99fb6ull,
    0x2fdf051ecaef49baull,
    0x8539c5ae3ede83c4ull,
    0x91e51c1616251157ull,
    0xbc2d866efab4c204ull,
    0xb232191df92498e5ull,
    0x6bb92eadfbbc6c89ull,
    0x0ac01ba0d6bb9a02ull,
    0x8c0d64ab22bc93f2ull,
    0x9243af2bff39cdcaull,
    0x54122adecabf7111ull,
    0x755cd53ca67747d9ull,
    0x98690d39939ba016ull,
    0x00ae8aa77f543611ull,
    0x2c60136ec1695eeaull,
    0x35d0f737a6c08735ull,
    0x83d692ccb64b3bc6ull,
    0x83d692ccb64b3bc6ull,
    0x83d692ccb64b3bc6ull,
    0x83d692ccb64b3bc6ull,
    0xe24417ece92671a4ull,
    0xe24417ece92671a4ull,
    0xe24417ece92671a4ull,
    0xe24417ece92671a4ull,
    0x59294a9482cfa862ull,
    0x0ca77a3c6836b268ull,
    0x426b7d19d0d596c9ull,
    0xdb9389c0b0f72d3bull,
    0x7aef945b27c2bd4cull,
    0x33329b2da4a01509ull,
    0x881f74f901cee784ull,
    0xef29f670c5bbc1faull,
    0xceef7b3957130327ull,
    0x54d9ed1124c1bfebull,
    0x726e4605d71e2f03ull,
    0xb7224742f3bc1ed6ull,
    0xe56d859712748557ull,
    0xe56d859712748557ull,
    0xe56d859712748557ull,
    0xe56d859712748557ull,
    0x893e339e75485392ull,
    0xe0db2c766c3ff5dfull,
    0xf8944b0dd05e9e3bull,
    0x4e315dd53820f3feull,
    0x77fa0aca70f730adull,
    0x59dba47a92302578ull,
    0x7539420d3f46c3c5ull,
    0xb59d2db120941407ull,
    0xff0b51c6b0b971acull,
    0x317bd21ae4944c3full,
    0x61112d7994eb6bcbull,
    0x8b68a63da22ae0deull,
    0x49a1e9cfcaff8cc2ull,
    0x8e0578cc5c88dedaull,
    0x5c245c9365a04345ull,
    0x5267af14388254dfull,
};

// Row order: kind-major, then size. Columns: silhouette of the average-
// linkage 4-cluster cut, silhouette of ArbitraryLabels, then the within-
// cluster digests of the same two labelings.
constexpr uint64_t kQualityGolden[][4] = {
    {0x0000000000000000ull, 0x0000000000000000ull,
     0x88201fb960ff6465ull, 0x88201fb960ff6465ull},
    {0x0000000000000000ull, 0x3fdefa092c5b4ad8ull,
     0x81d23fd7003c2305ull, 0x681188cb9516f6c0ull},
    {0x3fc2fd6395b86fafull, 0xbfc17a10ddfaa56full,
     0xee68cda287f24be5ull, 0xa9751c4fbd065f69ull},
    {0x3f9f04a713de09ecull, 0xbfaecbcc3bdff0edull,
     0xc72f7497732d2013ull, 0x1f45ae3bf34e2c7eull},
    {0xbf708d908ba06c31ull, 0xbf9aa51f30f012e9ull,
     0x5e16cdaad3f4c581ull, 0xc60845f3b276b500ull},
    {0x0000000000000000ull, 0x0000000000000000ull,
     0x88201fb960ff6465ull, 0x88201fb960ff6465ull},
    {0x0000000000000000ull, 0x0000000000000000ull,
     0x81d23fd7003c2305ull, 0x88936bb961612317ull},
    {0x3fc2058e8eee21c9ull, 0xbfc3bd491d3513f5ull,
     0x7db74db0ea2c7892ull, 0x4f526298ccde7d97ull},
    {0x3f9908f046bfd6deull, 0xbfb0421d38e65ad0ull,
     0xd50b2b9c8e078193ull, 0x70dac207fb392fecull},
    {0xbf60dd598186aa1bull, 0xbfa0cd0548c7c273ull,
     0xb4cfb2dde17221fcull, 0x8e107938c6854c8eull},
    {0x0000000000000000ull, 0x0000000000000000ull,
     0x88201fb960ff6465ull, 0x88201fb960ff6465ull},
    {0x0000000000000000ull, 0xbfb18060b69188dfull,
     0x81d23fd7003c2305ull, 0x71a759b8c2e7e93cull},
    {0x3fdb396cf8083f46ull, 0xbfb5865c08ba2f66ull,
     0x65d21af6734355e6ull, 0xba0370ca8487f6adull},
    {0x3fd7ce6b3f68137bull, 0xbfa9d1631cadf91aull,
     0xf15ac1a729f84182ull, 0xafc18ebe48372e7cull},
    {0x3fd75886c6c77c64ull, 0xbf95cb077529e808ull,
     0x73bffccfaa5c9726ull, 0xdea86d1d999b64e2ull},
};

std::string Hex(uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "0x%016llxull",
                static_cast<unsigned long long>(v));
  return buf;
}

TEST(GoldenTest, AgglomerativeMatchesCapturedDigests) {
  size_t row = 0;
  std::string actual;
  for (GoldenKind kind : kGoldenKinds) {
    for (size_t n : kGoldenSizes) {
      DissimilarityMatrix d = GoldenMatrix(kind, n);
      for (Linkage linkage : kGoldenLinkages) {
        uint64_t digest =
            DendrogramDigest(Agglomerative::Run(d, linkage).TakeValue());
        actual += "    " + Hex(digest) + ",\n";
        if (row < std::size(kDendrogramGolden)) {
          EXPECT_EQ(digest, kDendrogramGolden[row])
              << "kind " << static_cast<int>(kind) << " n=" << n << " "
              << LinkageToString(linkage);
        }
        ++row;
      }
    }
  }
  EXPECT_EQ(std::size(kDendrogramGolden), row) << actual;
}

TEST(GoldenTest, QualityScoresMatchCapturedBits) {
  size_t row = 0;
  std::string actual;
  for (GoldenKind kind : kGoldenKinds) {
    for (size_t n : kGoldenSizes) {
      DissimilarityMatrix d = GoldenMatrix(kind, n);
      std::vector<int> cut = Agglomerative::Run(d, Linkage::kAverage)
                                 .TakeValue()
                                 .CutToClusters(std::min<size_t>(n, 4))
                                 .TakeValue();
      std::vector<int> arbitrary = ArbitraryLabels(n);
      uint64_t got[4] = {SilhouetteBits(d, cut), SilhouetteBits(d, arbitrary),
                         WithinClusterDigest(d, cut),
                         WithinClusterDigest(d, arbitrary)};
      actual += "    {" + Hex(got[0]) + ", " + Hex(got[1]) + ",\n     " +
                Hex(got[2]) + ", " + Hex(got[3]) + "},\n";
      if (row < std::size(kQualityGolden)) {
        for (int c = 0; c < 4; ++c) {
          EXPECT_EQ(got[c], kQualityGolden[row][c])
              << "kind " << static_cast<int>(kind) << " n=" << n
              << " column " << c;
        }
      }
      ++row;
    }
  }
  EXPECT_EQ(std::size(kQualityGolden), row) << actual;
}

// ------------------------------------------------------------------ Newick --

TEST(NewickTest, TwoLeafTree) {
  auto dendrogram =
      Agglomerative::Run(FromPoints({0.0, 3.0}), Linkage::kSingle).TakeValue();
  EXPECT_EQ(dendrogram.ToNewick({"A0", "B0"}).value(), "(A0:3,B0:3);");
}

TEST(NewickTest, BranchLengthsAreHeightDifferences) {
  // Points 0,1 merge at 1; with 5 at single-linkage height 4.
  auto dendrogram =
      Agglomerative::Run(FromPoints({0.0, 1.0, 5.0}), Linkage::kSingle)
          .TakeValue();
  std::string newick = dendrogram.ToNewick({"a", "b", "c"}).TakeValue();
  // Inner pair at height 1, root at height 4: inner branch 4-1=3; the
  // smaller node id (leaf c) is listed first by canonical child order.
  EXPECT_EQ(newick, "(c:4,(a:1,b:1):3);");
}

TEST(NewickTest, SingleLeaf) {
  auto dendrogram =
      Agglomerative::Run(FromPoints({2.0}), Linkage::kAverage).TakeValue();
  EXPECT_EQ(dendrogram.ToNewick({"only"}).value(), "only;");
}

TEST(NewickTest, ValidatesNames) {
  auto dendrogram =
      Agglomerative::Run(FromPoints({0.0, 1.0}), Linkage::kSingle).TakeValue();
  EXPECT_FALSE(dendrogram.ToNewick({"a"}).ok());
  EXPECT_FALSE(dendrogram.ToNewick({"a", "b", "c"}).ok());
}

TEST(NewickTest, BalancedParenthesesOnLargerTrees) {
  auto prng = MakePrng(PrngKind::kXoshiro256, 20);
  DissimilarityMatrix d = RandomMatrix(20, prng.get());
  auto dendrogram = Agglomerative::Run(d, Linkage::kAverage).TakeValue();
  std::vector<std::string> names;
  for (int i = 0; i < 20; ++i) names.push_back("x" + std::to_string(i));
  std::string newick = dendrogram.ToNewick(names).TakeValue();
  int depth = 0;
  for (char c : newick) {
    if (c == '(') ++depth;
    if (c == ')') --depth;
    ASSERT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
  EXPECT_EQ(newick.back(), ';');
  for (const auto& name : names) {
    EXPECT_NE(newick.find(name), std::string::npos);
  }
}

}  // namespace
}  // namespace ppc

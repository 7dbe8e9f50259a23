// Concurrent protocol engine tests: Run() on several workers must produce
// bit-identical third-party state to the sequential Run() — the mask
// streams are derived from per-(attribute, initiator, responder) labels,
// so the schedule cannot change a single bit — across numeric,
// alphanumeric, categorical, and mixed schemas, both masking modes, and
// several party counts.

#include <gtest/gtest.h>

#include <vector>

#include "data/generators.h"
#include "data/partition.h"
#include "session_test_util.h"

namespace ppc {
namespace {

using testutil::MakeSession;
using testutil::MatricesOf;
using testutil::SessionFixture;

LabeledDataset GaussianData(size_t n, uint64_t seed) {
  auto prng = MakePrng(PrngKind::kXoshiro256, seed);
  return Generators::GaussianMixture(
             n,
             {{{0.0, 0.0}, 1.0, 1.0},
              {{9.0, 9.0}, 1.0, 1.0},
              {{-9.0, 9.0}, 1.0, 1.0}},
             prng.get())
      .TakeValue();
}

LabeledDataset MixedData(size_t n, uint64_t seed) {
  auto prng = MakePrng(PrngKind::kXoshiro256, seed);
  Generators::MixedOptions options;
  options.string_length = 10;
  return Generators::MixedClusters(n, options, Alphabet::Dna(), prng.get())
      .TakeValue();
}

LabeledDataset DnaData(size_t n, uint64_t seed) {
  auto prng = MakePrng(PrngKind::kXoshiro256, seed);
  return Generators::DnaSequences(n, {}, prng.get()).TakeValue();
}

LabeledDataset CategoricalData(size_t n, uint64_t seed) {
  auto prng = MakePrng(PrngKind::kXoshiro256, seed);
  return Generators::CategoricalClusters(n, {}, prng.get()).TakeValue();
}

/// Runs the dataset through a sequential and a parallel session (same
/// entropy seeds) and asserts every attribute matrix agrees bit for bit.
void ExpectBitIdenticalMatrices(const LabeledDataset& data, size_t parties,
                                ProtocolConfig config) {
  auto parts = Partitioner::RoundRobin(data, parties).TakeValue();
  const Schema& schema = data.data.schema();

  config.num_threads = 1;
  auto sequential =
      MakeSession(schema, MatricesOf(parts), config).TakeValue();
  ASSERT_TRUE(sequential.session->Run().ok());

  config.num_threads = 4;
  auto parallel = MakeSession(schema, MatricesOf(parts), config).TakeValue();
  ASSERT_TRUE(parallel.session->Run().ok());

  for (size_t c = 0; c < schema.size(); ++c) {
    const DissimilarityMatrix* seq_matrix =
        sequential.third_party->AttributeMatrixForTesting(c).TakeValue();
    const DissimilarityMatrix* par_matrix =
        parallel.third_party->AttributeMatrixForTesting(c).TakeValue();
    double diff = seq_matrix->MaxAbsDifference(*par_matrix).TakeValue();
    EXPECT_EQ(diff, 0.0) << "attribute " << c << " ("
                         << schema.attribute(c).name << ") diverged";
  }
}

TEST(ParallelSessionTest, NumericSchemaBitIdentical) {
  ExpectBitIdenticalMatrices(GaussianData(36, 1), 2, ProtocolConfig{});
  ExpectBitIdenticalMatrices(GaussianData(36, 2), 4, ProtocolConfig{});
}

TEST(ParallelSessionTest, AlphanumericSchemaBitIdentical) {
  ExpectBitIdenticalMatrices(DnaData(24, 3), 3, ProtocolConfig{});
}

TEST(ParallelSessionTest, CategoricalSchemaBitIdentical) {
  ExpectBitIdenticalMatrices(CategoricalData(30, 4), 3, ProtocolConfig{});
}

TEST(ParallelSessionTest, MixedSchemaBitIdentical) {
  ExpectBitIdenticalMatrices(MixedData(24, 5), 3, ProtocolConfig{});
}

TEST(ParallelSessionTest, PerPairMaskingBitIdentical) {
  ProtocolConfig config;
  config.masking_mode = MaskingMode::kPerPair;
  ExpectBitIdenticalMatrices(GaussianData(30, 6), 3, config);
}

TEST(ParallelSessionTest, ClusteringOutcomesMatchSequential) {
  LabeledDataset data = MixedData(24, 7);
  auto parts = Partitioner::RoundRobin(data, 3).TakeValue();
  ProtocolConfig config;

  auto sequential =
      MakeSession(data.data.schema(), MatricesOf(parts), config).TakeValue();
  ASSERT_TRUE(sequential.session->Run().ok());

  config.num_threads = 4;
  auto parallel =
      MakeSession(data.data.schema(), MatricesOf(parts), config).TakeValue();
  ASSERT_TRUE(parallel.session->Run().ok());

  for (auto algorithm : {ClusterAlgorithm::kHierarchical,
                         ClusterAlgorithm::kKMedoids}) {
    ClusterRequest request;
    request.algorithm = algorithm;
    request.num_clusters = 3;
    auto seq_outcome =
        sequential.session->RequestClustering("A", request).TakeValue();
    auto par_outcome =
        parallel.session->RequestClustering("A", request).TakeValue();
    EXPECT_EQ(seq_outcome.FlatLabels(data.data.NumRows()),
              par_outcome.FlatLabels(data.data.NumRows()));
    EXPECT_EQ(seq_outcome.silhouette, par_outcome.silhouette);
    EXPECT_EQ(seq_outcome.within_cluster_mean_squared,
              par_outcome.within_cluster_mean_squared);
  }
}

TEST(ParallelSessionTest, RunDispatchesToConcurrentEngineViaConfig) {
  // Run() with a worker count other than the suite's usual four must
  // still reproduce the sequential reference session's matrices.
  LabeledDataset data = GaussianData(30, 8);
  auto parts = Partitioner::RoundRobin(data, 3).TakeValue();
  ProtocolConfig config;

  auto reference =
      MakeSession(data.data.schema(), MatricesOf(parts), config).TakeValue();
  ASSERT_TRUE(reference.session->Run().ok());

  config.num_threads = 3;
  auto threaded =
      MakeSession(data.data.schema(), MatricesOf(parts), config).TakeValue();
  ASSERT_TRUE(threaded.session->Run().ok());

  for (size_t c = 0; c < data.data.schema().size(); ++c) {
    const DissimilarityMatrix* ref =
        reference.third_party->AttributeMatrixForTesting(c).TakeValue();
    const DissimilarityMatrix* thr =
        threaded.third_party->AttributeMatrixForTesting(c).TakeValue();
    EXPECT_EQ(ref->MaxAbsDifference(*thr).TakeValue(), 0.0);
  }
}

TEST(ParallelSessionTest, ParallelSessionServesRepeatedRequests) {
  // The merged-matrix cache behind ServeClusterRequest must return the
  // same answer on a cache hit as on the miss that populated it.
  LabeledDataset data = GaussianData(24, 9);
  auto parts = Partitioner::RoundRobin(data, 2).TakeValue();
  ProtocolConfig config;
  config.num_threads = 4;
  auto fixture =
      MakeSession(data.data.schema(), MatricesOf(parts), config).TakeValue();
  ASSERT_TRUE(fixture.session->Run().ok());

  ClusterRequest request;
  request.num_clusters = 3;
  request.weights = {0.5, 0.5};
  auto first = fixture.session->RequestClustering("A", request).TakeValue();
  auto second = fixture.session->RequestClustering("B", request).TakeValue();
  EXPECT_EQ(first.FlatLabels(data.data.NumRows()),
            second.FlatLabels(data.data.NumRows()));
  EXPECT_EQ(first.silhouette, second.silhouette);

  // A different weighting must not be served from the {0.5, 0.5} entry.
  ClusterRequest skewed = request;
  skewed.weights = {1.0, 0.0};
  auto merged_equal =
      fixture.third_party->MergedMatrix(request.weights).TakeValue();
  auto merged_skewed =
      fixture.third_party->MergedMatrix(skewed.weights).TakeValue();
  EXPECT_GT(merged_equal.MaxAbsDifference(merged_skewed).TakeValue(), 0.0);
}

TEST(ParallelSessionTest, MergedMatrixCacheStableAcrossCalls) {
  LabeledDataset data = GaussianData(20, 10);
  auto parts = Partitioner::RoundRobin(data, 2).TakeValue();
  auto fixture = MakeSession(data.data.schema(), MatricesOf(parts),
                             ProtocolConfig{})
                     .TakeValue();
  ASSERT_TRUE(fixture.session->Run().ok());

  auto first = fixture.third_party->MergedMatrix({}).TakeValue();
  auto second = fixture.third_party->MergedMatrix({}).TakeValue();
  EXPECT_EQ(first.packed_cells(), second.packed_cells());
}

}  // namespace
}  // namespace ppc

// Experiment E14 — the clustering substrate behind the paper's argument
// that the dissimilarity matrix is algorithm-agnostic and that hierarchical
// methods handle arbitrary shapes better than partitioning methods:
//   * NN-chain vs naive greedy agglomeration (O(n^2) vs O(n^3) ablation),
//   * the four linkages at a fixed size,
//   * k-medoids and DBSCAN on the same matrices,
//   * the rest of the third party's post-protocol path at a large job's
//     size (n = 4096): merging the per-attribute matrices, the published
//     quality scores, and the bulk f64 vector encode/decode that carries
//     the matrices over the wire,
//   * a shape experiment: ARI of single-linkage vs k-medoids on elongated
//     (chain) clusters — single linkage should win decisively.

#include <benchmark/benchmark.h>

#include "cluster/agglomerative.h"
#include "cluster/dbscan.h"
#include "cluster/kmedoids.h"
#include "cluster/quality.h"
#include "common/serde.h"
#include "rng/distributions.h"
#include "rng/prng.h"

namespace ppc {
namespace {

DissimilarityMatrix RandomMatrix(size_t n, uint64_t seed) {
  auto prng = MakePrng(PrngKind::kXoshiro256, seed);
  DissimilarityMatrix d(n);
  for (size_t i = 1; i < n; ++i) {
    for (size_t j = 0; j < i; ++j) {
      d.set(i, j, prng->NextUnitDouble() + 0.01);
    }
  }
  return d;
}

/// An elongated chain next to a compact blob: the chain's tail is closer to
/// the blob than to the chain's own center, so medoid-based partitioning
/// splits the chain while single linkage keeps it whole.
struct ChainData {
  DissimilarityMatrix matrix;
  std::vector<int> truth;
};

ChainData ChainClusters(size_t chain_length) {
  std::vector<double> points;
  std::vector<int> truth;
  for (size_t i = 0; i < chain_length; ++i) {
    points.push_back(static_cast<double>(i));  // Chain: 0,1,2,...
    truth.push_back(0);
  }
  for (size_t i = 0; i < chain_length / 3; ++i) {
    points.push_back(chain_length + 30.0 + 0.1 * i);  // Compact blob.
    truth.push_back(1);
  }
  DissimilarityMatrix d(points.size());
  for (size_t i = 1; i < points.size(); ++i) {
    for (size_t j = 0; j < i; ++j) {
      d.set(i, j, std::abs(points[i] - points[j]));
    }
  }
  return {std::move(d), std::move(truth)};
}

void BM_AgglomerativeNnChain(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  DissimilarityMatrix d = RandomMatrix(n, 1);
  for (auto _ : state) {
    auto dendrogram = Agglomerative::Run(d, Linkage::kAverage);
    benchmark::DoNotOptimize(dendrogram);
  }
  state.counters["n"] = static_cast<double>(n);
  state.SetComplexityN(static_cast<benchmark::IterationCount>(n));
}
BENCHMARK(BM_AgglomerativeNnChain)
    ->RangeMultiplier(2)
    ->Range(64, 4096)
    ->Complexity(benchmark::oNSquared)
    ->Unit(benchmark::kMillisecond);

void BM_AgglomerativeNaive(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  DissimilarityMatrix d = RandomMatrix(n, 1);
  for (auto _ : state) {
    auto dendrogram = Agglomerative::RunNaive(d, Linkage::kAverage);
    benchmark::DoNotOptimize(dendrogram);
  }
  state.counters["n"] = static_cast<double>(n);
  state.SetComplexityN(static_cast<benchmark::IterationCount>(n));
}
BENCHMARK(BM_AgglomerativeNaive)
    ->RangeMultiplier(2)
    ->Range(64, 512)
    ->Complexity(benchmark::oNCubed);

void BM_LinkageVariants(benchmark::State& state) {
  const Linkage linkage = static_cast<Linkage>(state.range(0));
  DissimilarityMatrix d = RandomMatrix(512, 1);
  for (auto _ : state) {
    auto dendrogram = Agglomerative::Run(d, linkage);
    benchmark::DoNotOptimize(dendrogram);
  }
  state.SetLabel(LinkageToString(linkage));
}
BENCHMARK(BM_LinkageVariants)->DenseRange(0, 3);

void BM_KMedoids(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  DissimilarityMatrix d = RandomMatrix(n, 1);
  KMedoids::Options options;
  options.k = 4;
  for (auto _ : state) {
    auto assignment = KMedoids::Run(d, options);
    benchmark::DoNotOptimize(assignment);
  }
  state.counters["n"] = static_cast<double>(n);
}
BENCHMARK(BM_KMedoids)->RangeMultiplier(2)->Range(64, 512);

void BM_Dbscan(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  DissimilarityMatrix d = RandomMatrix(n, 1);
  Dbscan::Options options;
  options.eps = 0.1;
  options.min_points = 4;
  for (auto _ : state) {
    auto labels = Dbscan::Run(d, options);
    benchmark::DoNotOptimize(labels);
  }
  state.counters["n"] = static_cast<double>(n);
}
BENCHMARK(BM_Dbscan)->RangeMultiplier(2)->Range(64, 1024);

/// Four clusters of random membership, the shape of a k=4 request.
std::vector<int> RandomLabels(size_t n) {
  auto prng = MakePrng(PrngKind::kXoshiro256, 2);
  std::vector<int> labels(n);
  for (int& label : labels) label = static_cast<int>(prng->NextBounded(4));
  return labels;
}

void BM_Silhouette(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  DissimilarityMatrix d = RandomMatrix(n, 1);
  std::vector<int> labels = RandomLabels(n);
  for (auto _ : state) {
    auto score = Quality::Silhouette(d, labels);
    benchmark::DoNotOptimize(score);
  }
  state.counters["n"] = static_cast<double>(n);
}
BENCHMARK(BM_Silhouette)->Arg(1024)->Arg(4096)->Unit(benchmark::kMillisecond);

void BM_WithinClusterMeanSquaredDistance(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  DissimilarityMatrix d = RandomMatrix(n, 1);
  std::vector<int> labels = RandomLabels(n);
  for (auto _ : state) {
    auto scores = Quality::WithinClusterMeanSquaredDistance(d, labels);
    benchmark::DoNotOptimize(scores);
  }
  state.counters["n"] = static_cast<double>(n);
}
BENCHMARK(BM_WithinClusterMeanSquaredDistance)
    ->Arg(4096)
    ->Unit(benchmark::kMillisecond);

/// Weighted merge of two attribute matrices, as for a two-attribute job.
void BM_WeightedMerge(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  DissimilarityMatrix first = RandomMatrix(n, 1);
  DissimilarityMatrix second = RandomMatrix(n, 2);
  for (auto _ : state) {
    auto merged =
        DissimilarityMatrix::WeightedMerge({&first, &second}, {1.0, 1.0});
    benchmark::DoNotOptimize(merged);
  }
  state.counters["n"] = static_cast<double>(n);
}
BENCHMARK(BM_WeightedMerge)->Arg(4096)->Unit(benchmark::kMillisecond);

/// Encode + decode of one packed n = 4096 matrix as an f64 vector: the
/// bulk serde path every matrix payload takes to and from the wire.
void BM_SerdeF64VectorRoundTrip(benchmark::State& state) {
  const size_t elements = static_cast<size_t>(state.range(0));
  std::vector<double> values(elements, 0.5);
  for (auto _ : state) {
    ByteWriter writer;
    writer.WriteF64Vector(values);
    std::string bytes = writer.TakeBytes();
    ByteReader reader(bytes);
    auto decoded = reader.ReadF64Vector();
    benchmark::DoNotOptimize(decoded);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(elements) * 8);
}
BENCHMARK(BM_SerdeF64VectorRoundTrip)
    ->Arg(4096 * 4095 / 2)
    ->Unit(benchmark::kMillisecond);

// The "arbitrary shapes" argument: single linkage recovers chains that the
// partitioning method breaks. ARI counters tell the story; the timing is
// incidental.
void BM_ShapeRecoverySingleLinkage(benchmark::State& state) {
  ChainData data = ChainClusters(90);
  double ari = 0.0;
  for (auto _ : state) {
    auto dendrogram =
        Agglomerative::Run(data.matrix, Linkage::kSingle).TakeValue();
    auto labels = dendrogram.CutToClusters(2).TakeValue();
    ari = Quality::AdjustedRandIndex(labels, data.truth).TakeValue();
    benchmark::DoNotOptimize(ari);
  }
  state.counters["ARI"] = ari;
}
BENCHMARK(BM_ShapeRecoverySingleLinkage);

void BM_ShapeRecoveryKMedoids(benchmark::State& state) {
  ChainData data = ChainClusters(90);
  KMedoids::Options options;
  options.k = 2;
  double ari = 0.0;
  for (auto _ : state) {
    auto assignment = KMedoids::Run(data.matrix, options)
                          .TakeValue();
    ari = Quality::AdjustedRandIndex(assignment.labels, data.truth)
              .TakeValue();
    benchmark::DoNotOptimize(ari);
  }
  state.counters["ARI"] = ari;
}
BENCHMARK(BM_ShapeRecoveryKMedoids);

}  // namespace
}  // namespace ppc

#include "cluster/quality.h"

#include <algorithm>
#include <limits>
#include <map>

namespace ppc {

namespace {

Status CheckLabels(const std::vector<int>& labels, size_t expected) {
  if (labels.size() != expected) {
    return Status::InvalidArgument("labels size " +
                                   std::to_string(labels.size()) +
                                   " != objects " + std::to_string(expected));
  }
  return Status::OK();
}

/// Pair-counting contingency sums between two labelings.
struct PairCounts {
  double same_both = 0;    // Pairs together in both.
  double same_a_only = 0;  // Together in a, apart in b.
  double same_b_only = 0;  // Apart in a, together in b.
  double apart_both = 0;   // Apart in both.
};

PairCounts CountPairs(const std::vector<int>& a, const std::vector<int>& b) {
  PairCounts counts;
  const size_t n = a.size();
  for (size_t i = 1; i < n; ++i) {
    for (size_t j = 0; j < i; ++j) {
      bool together_a = a[i] == a[j];
      bool together_b = b[i] == b[j];
      if (together_a && together_b) {
        counts.same_both += 1;
      } else if (together_a) {
        counts.same_a_only += 1;
      } else if (together_b) {
        counts.same_b_only += 1;
      } else {
        counts.apart_both += 1;
      }
    }
  }
  return counts;
}

/// Arbitrary int labels mapped to dense ids 0..L-1 in ascending label
/// order, so per-label state lives in flat arrays (not maps) and is
/// visited in the same order a label-keyed map would visit it.
struct DenseLabels {
  explicit DenseLabels(const std::vector<int>& labels) : ids(labels.size()) {
    std::vector<int> distinct = labels;
    std::sort(distinct.begin(), distinct.end());
    distinct.erase(std::unique(distinct.begin(), distinct.end()),
                   distinct.end());
    sizes.assign(distinct.size(), 0);
    for (size_t i = 0; i < labels.size(); ++i) {
      ids[i] = static_cast<size_t>(
          std::lower_bound(distinct.begin(), distinct.end(), labels[i]) -
          distinct.begin());
      sizes[ids[i]] += 1;
    }
  }

  std::vector<size_t> ids;    // Dense id of each object's label.
  std::vector<size_t> sizes;  // Members per dense id.
};

}  // namespace

Result<double> Quality::Silhouette(const DissimilarityMatrix& matrix,
                                   const std::vector<int>& labels) {
  const size_t n = matrix.num_objects();
  PPC_RETURN_IF_ERROR(CheckLabels(labels, n));
  if (n == 0) return Status::InvalidArgument("empty matrix");

  const DenseLabels dense(labels);
  const size_t num_labels = dense.sizes.size();
  if (num_labels < 2) {
    return Status::InvalidArgument("silhouette needs at least two clusters");
  }

  // sums[p][l]: total distance from object p to the members of label l.
  // One pass over the packed triangle adds d(i, j) to both endpoints'
  // sums, so every object accumulates its distances in ascending order of
  // the other object — the order of a per-object row scan. Objects are
  // processed in blocks whose sums fit a fixed budget, so many labels cost
  // more passes, not more memory.
  constexpr size_t kSumsBudget = size_t{1} << 18;  // Doubles (2 MiB).
  const size_t block = std::max<size_t>(1, kSumsBudget / num_labels);
  const double* cells = matrix.packed_cells().data();
  const std::vector<size_t>& id = dense.ids;
  std::vector<double> sums(std::min(block, n) * num_labels);

  double total = 0.0;
  for (size_t begin = 0; begin < n; begin += block) {
    const size_t end = std::min(n, begin + block);
    std::fill(sums.begin(), sums.end(), 0.0);
    // Row i holds d(i, j) for j < i: it completes object i's own sums (when
    // i is in the block) and adds d(i, j) to the block's objects j < i.
    for (size_t i = std::max<size_t>(begin, 1); i < n; ++i) {
      const double* row = cells + i * (i - 1) / 2;
      double* to_label_of_i = sums.data() + id[i];
      if (i < end) {
        double* own = sums.data() + (i - begin) * num_labels;
        for (size_t j = 0; j < begin; ++j) own[id[j]] += row[j];
        for (size_t j = begin; j < i; ++j) {
          own[id[j]] += row[j];
          to_label_of_i[(j - begin) * num_labels] += row[j];
        }
      } else {
        for (size_t j = begin; j < end; ++j) {
          to_label_of_i[(j - begin) * num_labels] += row[j];
        }
      }
    }
    for (size_t i = begin; i < end; ++i) {
      const size_t own_label = id[i];
      if (dense.sizes[own_label] == 1) continue;  // Scores 0 by convention.
      // Mean intra-cluster distance and minimal mean inter-cluster distance.
      const double* own = sums.data() + (i - begin) * num_labels;
      double a = own[own_label] /
                 static_cast<double>(dense.sizes[own_label] - 1);
      double b = std::numeric_limits<double>::infinity();
      for (size_t l = 0; l < num_labels; ++l) {
        if (l == own_label) continue;
        b = std::min(b, own[l] / static_cast<double>(dense.sizes[l]));
      }
      double denom = std::max(a, b);
      total += denom > 0.0 ? (b - a) / denom : 0.0;
    }
  }
  return total / static_cast<double>(n);
}

Result<std::vector<double>> Quality::WithinClusterMeanSquaredDistance(
    const DissimilarityMatrix& matrix, const std::vector<int>& labels) {
  const size_t n = matrix.num_objects();
  PPC_RETURN_IF_ERROR(CheckLabels(labels, n));

  const DenseLabels dense(labels);
  const std::vector<size_t>& id = dense.ids;
  std::vector<double> sums(dense.sizes.size(), 0.0);
  std::vector<size_t> pair_counts(dense.sizes.size(), 0);
  const double* cells = matrix.packed_cells().data();
  for (size_t i = 1; i < n; ++i) {
    const double* row = cells + i * (i - 1) / 2;
    const size_t label = id[i];
    for (size_t j = 0; j < i; ++j) {
      if (id[j] != label) continue;
      sums[label] += row[j] * row[j];
      pair_counts[label] += 1;
    }
  }
  std::vector<double> out;
  out.reserve(sums.size());
  for (size_t l = 0; l < sums.size(); ++l) {
    out.push_back(pair_counts[l] == 0
                      ? 0.0
                      : sums[l] / static_cast<double>(pair_counts[l]));
  }
  return out;
}

Result<double> Quality::RandIndex(const std::vector<int>& a,
                                  const std::vector<int>& b) {
  if (a.size() != b.size() || a.size() < 2) {
    return Status::InvalidArgument("labelings must agree on size >= 2");
  }
  PairCounts counts = CountPairs(a, b);
  double total = counts.same_both + counts.same_a_only + counts.same_b_only +
                 counts.apart_both;
  return (counts.same_both + counts.apart_both) / total;
}

Result<double> Quality::AdjustedRandIndex(const std::vector<int>& a,
                                          const std::vector<int>& b) {
  if (a.size() != b.size() || a.size() < 2) {
    return Status::InvalidArgument("labelings must agree on size >= 2");
  }
  PairCounts c = CountPairs(a, b);
  double sum_a = c.same_both + c.same_a_only;   // Pairs together in a.
  double sum_b = c.same_both + c.same_b_only;   // Pairs together in b.
  double total = c.same_both + c.same_a_only + c.same_b_only + c.apart_both;
  double expected = sum_a * sum_b / total;
  double max_index = 0.5 * (sum_a + sum_b);
  if (max_index == expected) return 1.0;  // Degenerate (both trivial).
  return (c.same_both - expected) / (max_index - expected);
}

Result<double> Quality::Purity(const std::vector<int>& predicted,
                               const std::vector<int>& truth) {
  if (predicted.size() != truth.size() || predicted.empty()) {
    return Status::InvalidArgument("labelings must agree on nonzero size");
  }
  std::map<int, std::map<int, size_t>> contingency;
  for (size_t i = 0; i < predicted.size(); ++i) {
    contingency[predicted[i]][truth[i]] += 1;
  }
  size_t correct = 0;
  for (const auto& [cluster, histogram] : contingency) {
    (void)cluster;
    size_t best = 0;
    for (const auto& [label, count] : histogram) {
      (void)label;
      best = std::max(best, count);
    }
    correct += best;
  }
  return static_cast<double>(correct) / static_cast<double>(predicted.size());
}

Result<double> Quality::PairwiseF1(const std::vector<int>& predicted,
                                   const std::vector<int>& truth) {
  if (predicted.size() != truth.size() || predicted.size() < 2) {
    return Status::InvalidArgument("labelings must agree on size >= 2");
  }
  PairCounts c = CountPairs(predicted, truth);
  double tp = c.same_both;
  double fp = c.same_a_only;
  double fn = c.same_b_only;
  if (tp == 0.0) return 0.0;
  double precision = tp / (tp + fp);
  double recall = tp / (tp + fn);
  return 2.0 * precision * recall / (precision + recall);
}

}  // namespace ppc

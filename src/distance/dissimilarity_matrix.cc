#include "distance/dissimilarity_matrix.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace ppc {

DissimilarityMatrix::DissimilarityMatrix(size_t num_objects)
    : num_objects_(num_objects),
      cells_(num_objects < 2 ? 0 : num_objects * (num_objects - 1) / 2, 0.0) {}

Result<double> DissimilarityMatrix::At(size_t i, size_t j) const {
  if (i >= num_objects_ || j >= num_objects_) {
    return Status::OutOfRange("object index out of range");
  }
  return at(i, j);
}

Status DissimilarityMatrix::Set(size_t i, size_t j, double value) {
  if (i >= num_objects_ || j >= num_objects_) {
    return Status::OutOfRange("object index out of range");
  }
  if (i == j) {
    return Status::InvalidArgument("diagonal entries are fixed at zero");
  }
  set(i, j, value);
  return Status::OK();
}

double DissimilarityMatrix::MaxValue() const {
  double max = 0.0;
  for (double v : cells_) max = std::max(max, v);
  return max;
}

void DissimilarityMatrix::Normalize() {
  double max = MaxValue();
  if (max <= 0.0) return;
  for (double& v : cells_) v /= max;
}

Result<DissimilarityMatrix> DissimilarityMatrix::WeightedMerge(
    const std::vector<const DissimilarityMatrix*>& matrices,
    const std::vector<double>& weights) {
  if (matrices.empty() || matrices.size() != weights.size()) {
    return Status::InvalidArgument(
        "need equal, nonzero numbers of matrices and weights");
  }
  double total = 0.0;
  for (double w : weights) {
    if (w < 0.0) return Status::InvalidArgument("weights must be >= 0");
    total += w;
  }
  if (total <= 0.0) {
    return Status::InvalidArgument("at least one weight must be positive");
  }
  size_t n = matrices[0]->num_objects();
  for (const DissimilarityMatrix* m : matrices) {
    if (m->num_objects() != n) {
      return Status::InvalidArgument("matrices disagree on object count");
    }
  }
  struct Term {
    double weight;
    const double* cells;
  };
  std::vector<Term> terms;
  for (size_t k = 0; k < matrices.size(); ++k) {
    double w = weights[k] / total;
    if (w == 0.0) continue;
    terms.push_back({w, matrices[k]->cells_.data()});
  }
  // One sweep; each cell sums its terms in matrix order starting from 0.0.
  const size_t count = matrices[0]->cells_.size();
  std::vector<double> cells;
  cells.reserve(count);
  for (size_t idx = 0; idx < count; ++idx) {
    double acc = 0.0;
    for (const Term& term : terms) acc += term.weight * term.cells[idx];
    cells.push_back(acc);
  }
  DissimilarityMatrix merged;
  merged.num_objects_ = n;
  merged.cells_ = std::move(cells);
  return merged;
}

Result<double> DissimilarityMatrix::MaxAbsDifference(
    const DissimilarityMatrix& other) const {
  if (other.num_objects_ != num_objects_) {
    return Status::InvalidArgument("matrices disagree on object count");
  }
  double max = 0.0;
  for (size_t idx = 0; idx < cells_.size(); ++idx) {
    max = std::max(max, std::fabs(cells_[idx] - other.cells_[idx]));
  }
  return max;
}

Result<DissimilarityMatrix> DissimilarityMatrix::FromPacked(
    size_t num_objects, std::vector<double> cells) {
  size_t expected = num_objects < 2 ? 0 : num_objects * (num_objects - 1) / 2;
  if (cells.size() != expected) {
    return Status::InvalidArgument(
        "packed cell count " + std::to_string(cells.size()) +
        " does not match " + std::to_string(num_objects) + " objects");
  }
  DissimilarityMatrix matrix;
  matrix.num_objects_ = num_objects;
  matrix.cells_ = std::move(cells);
  return matrix;
}

std::string DissimilarityMatrix::ToString(int precision) const {
  std::string out;
  char buf[64];
  for (size_t i = 0; i < num_objects_; ++i) {
    for (size_t j = 0; j <= i; ++j) {
      std::snprintf(buf, sizeof(buf), "%.*f", precision, at(i, j));
      out += buf;
      out += (j == i) ? "\n" : " ";
    }
  }
  return out;
}

}  // namespace ppc

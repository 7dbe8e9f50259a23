#include "cluster/agglomerative.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <numeric>
#include <type_traits>

namespace ppc {

namespace {

constexpr double kInfinity = std::numeric_limits<double>::infinity();

/// Shared machinery for both algorithms: a dense n x n working copy of the
/// dissimilarity matrix with Lance-Williams updates. Ward operates on
/// squared distances internally; heights are reported in distance units.
///
/// A merge rewrites only the surviving cluster's row, never its column, so
/// every write is sequential. Two stamps per slot, both merge counts, say
/// where a pair's live distance is: `changed_[i]` is when cluster i last
/// changed (the merge that produced it) and `synced_[i] >= changed_[i]` is
/// when row i last held every live distance. Row i holds the live d(i, j)
/// iff synced_[i] >= changed_[j]; otherwise row j does, because then
/// synced_[j] >= changed_[j] > synced_[i] >= changed_[i]. A nearest-
/// neighbor scan copies the column values it had to read into its own row
/// and marks the row synced, so the merge that usually follows a scan reads
/// both rows sequentially. Active slots are kept in an ascending list, so
/// scans visit the same slots in the same order as a full 0..n-1 sweep over
/// live slots.
template <Linkage L>
class Workspace {
 public:
  explicit Workspace(const DissimilarityMatrix& matrix)
      : n_(matrix.num_objects()),
        cells_(std::make_unique_for_overwrite<double[]>(n_ * n_)),
        changed_(n_, 0),
        synced_(n_, 0),
        size_(n_, 1),
        active_(n_) {
    std::iota(active_.begin(), active_.end(), size_t{0});
    // Row i's lower half straight from the packed triangle, then the upper
    // half as a blocked transpose whose inner loop writes rows
    // sequentially.
    const double* packed = matrix.packed_cells().data();
    for (size_t i = 0; i < n_; ++i) {
      const double* source = packed + i * (i - 1) / 2;
      double* row = &cells_[i * n_];
      for (size_t j = 0; j < i; ++j) {
        row[j] = source[j];
        if constexpr (L == Linkage::kWard) row[j] = row[j] * row[j];
      }
      row[i] = 0.0;
    }
    constexpr size_t kTile = 64;
    for (size_t i0 = 0; i0 < n_; i0 += kTile) {
      const size_t i1 = std::min(n_, i0 + kTile);
      for (size_t j0 = 0; j0 <= i0; j0 += kTile) {
        const size_t j1 = std::min(i1, j0 + kTile);
        for (size_t j = j0; j < j1; ++j) {
          for (size_t i = std::max(i0, j + 1); i < i1; ++i) {
            cells_[j * n_ + i] = cells_[i * n_ + j];
          }
        }
      }
    }
  }

  /// Live slots in ascending order.
  const std::vector<size_t>& active() const { return active_; }

  double dist(size_t i, size_t j) const { return cells_[Cell(i, j)]; }

  /// Converts an internal working distance to a reported merge height.
  static double Height(double working_distance) {
    if constexpr (L == Linkage::kWard) return std::sqrt(working_distance);
    return working_distance;
  }

  /// Nearest active neighbor of `a` (ties: smallest slot, except that
  /// `preferred` wins any tie it is part of). `slot` is n when `a` is the
  /// only active slot.
  struct Neighbor {
    size_t slot;
    double distance;
  };
  Neighbor Nearest(size_t a, size_t preferred) {
    Neighbor best{n_, kInfinity};
    double* row_a = &cells_[a * n_];
    for (size_t k : active_) {
      if (k == a) continue;
      double d = row_a[k];
      if (synced_[a] < changed_[k]) row_a[k] = d = cells_[k * n_ + a];
      if (d < best.distance || (d == best.distance && k == preferred)) {
        best = {k, d};
      }
    }
    synced_[a] = merges_;
    return best;
  }

  /// Merges cluster `b` into cluster `a` (slot `a` survives) and applies
  /// the Lance-Williams update to every other active cluster.
  void Merge(size_t a, size_t b) {
    [[maybe_unused]] const double d_ab = dist(a, b);
    [[maybe_unused]] const double na = static_cast<double>(size_[a]);
    [[maybe_unused]] const double nb = static_cast<double>(size_[b]);
    double* row_a = &cells_[a * n_];
    for (size_t k : active_) {
      if (k == a || k == b) continue;
      const double d_ak = dist(a, k);
      const double d_bk = dist(b, k);
      if constexpr (L == Linkage::kSingle) {
        row_a[k] = std::min(d_ak, d_bk);
      } else if constexpr (L == Linkage::kComplete) {
        row_a[k] = std::max(d_ak, d_bk);
      } else if constexpr (L == Linkage::kAverage) {
        row_a[k] = (na * d_ak + nb * d_bk) / (na + nb);
      } else {
        const double nk = static_cast<double>(size_[k]);
        row_a[k] = ((na + nk) * d_ak + (nb + nk) * d_bk - nk * d_ab) /
                   (na + nb + nk);
      }
    }
    changed_[a] = synced_[a] = ++merges_;
    size_[a] += size_[b];
    active_.erase(std::lower_bound(active_.begin(), active_.end(), b));
  }

 private:
  /// Index of the cell holding the live distance between `i` and `j`.
  size_t Cell(size_t i, size_t j) const {
    return synced_[i] >= changed_[j] ? i * n_ + j : j * n_ + i;
  }

  size_t n_;
  std::unique_ptr<double[]> cells_;  // Row-major n x n.
  std::vector<size_t> changed_;      // Merge count when the cluster formed.
  std::vector<size_t> synced_;       // Merge count when the row was live.
  std::vector<size_t> size_;         // Leaves under each slot's cluster.
  std::vector<size_t> active_;       // Live slots, ascending.
  size_t merges_ = 0;
};

/// A merge in slot space, later canonicalized into a Dendrogram.
struct RawMerge {
  size_t rep_a;   // Any leaf index inside cluster a (its slot id).
  size_t rep_b;   // Any leaf index inside cluster b.
  double height;  // Reported (non-squared) height.
};

/// Sorts raw merges by height and relabels them with union-find into the
/// canonical dendrogram node numbering (leaves first, then merges in height
/// order). This is how NN-chain output — whose execution order is not
/// height-sorted — becomes a proper dendrogram.
Dendrogram Canonicalize(size_t n, std::vector<RawMerge> raw) {
  std::stable_sort(raw.begin(), raw.end(),
                   [](const RawMerge& x, const RawMerge& y) {
                     return x.height < y.height;
                   });
  std::vector<size_t> parent(n);
  std::iota(parent.begin(), parent.end(), size_t{0});
  auto find = [&parent](size_t x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  };

  std::vector<size_t> node_of(n);
  std::iota(node_of.begin(), node_of.end(), size_t{0});
  std::vector<size_t> leaves_under(n, 1);

  std::vector<MergeStep> merges;
  merges.reserve(raw.size());
  for (size_t k = 0; k < raw.size(); ++k) {
    size_t root_a = find(raw[k].rep_a);
    size_t root_b = find(raw[k].rep_b);
    MergeStep step;
    // Canonical child order (smaller node id first): makes dendrograms and
    // Newick output deterministic across agglomeration algorithms.
    step.left = std::min(node_of[root_a], node_of[root_b]);
    step.right = std::max(node_of[root_a], node_of[root_b]);
    step.height = raw[k].height;
    step.size = leaves_under[root_a] + leaves_under[root_b];
    merges.push_back(step);
    parent[root_a] = root_b;
    node_of[root_b] = n + k;
    leaves_under[root_b] = step.size;
  }
  return Dendrogram(n, std::move(merges));
}

template <Linkage L>
Dendrogram Greedy(const DissimilarityMatrix& matrix) {
  const size_t n = matrix.num_objects();
  Workspace<L> work(matrix);
  const std::vector<size_t>& active = work.active();

  std::vector<RawMerge> raw;
  raw.reserve(n - 1);
  for (size_t step = 0; step + 1 < n; ++step) {
    // Find the globally closest active pair (ties: smallest indices).
    double best = kInfinity;
    size_t best_a = 0, best_b = 0;
    for (size_t x = 0; x < active.size(); ++x) {
      for (size_t y = x + 1; y < active.size(); ++y) {
        const double d = work.dist(active[x], active[y]);
        if (d < best) {
          best = d;
          best_a = active[x];
          best_b = active[y];
        }
      }
    }
    raw.push_back({best_a, best_b, Workspace<L>::Height(best)});
    work.Merge(best_a, best_b);
  }
  return Canonicalize(n, std::move(raw));
}

template <Linkage L>
Dendrogram NnChain(const DissimilarityMatrix& matrix) {
  const size_t n = matrix.num_objects();
  Workspace<L> work(matrix);

  std::vector<RawMerge> raw;
  raw.reserve(n - 1);
  std::vector<size_t> chain;
  chain.reserve(n);

  while (raw.size() + 1 < n) {
    if (chain.empty()) chain.push_back(work.active().front());
    size_t a = chain.back();
    // Prefer the chain predecessor on ties so reciprocal pairs are
    // detected and the chain terminates.
    size_t prev = chain.size() >= 2 ? chain[chain.size() - 2] : n;
    const auto nearest = work.Nearest(a, prev);
    if (nearest.slot == prev) {
      raw.push_back({a, prev, Workspace<L>::Height(nearest.distance)});
      chain.pop_back();
      chain.pop_back();
      // Keep the surviving slot consistent with Workspace::Merge (a wins).
      work.Merge(a, prev);
    } else {
      chain.push_back(nearest.slot);
    }
  }
  return Canonicalize(n, std::move(raw));
}

/// Calls `fn` with `linkage` as a compile-time constant.
template <typename Fn>
Dendrogram DispatchLinkage(Linkage linkage, Fn fn) {
  using std::integral_constant;
  switch (linkage) {
    case Linkage::kSingle:
      return fn(integral_constant<Linkage, Linkage::kSingle>{});
    case Linkage::kComplete:
      return fn(integral_constant<Linkage, Linkage::kComplete>{});
    case Linkage::kAverage:
      return fn(integral_constant<Linkage, Linkage::kAverage>{});
    case Linkage::kWard:
      break;
  }
  return fn(integral_constant<Linkage, Linkage::kWard>{});
}

}  // namespace

const char* LinkageToString(Linkage linkage) {
  switch (linkage) {
    case Linkage::kSingle:
      return "single";
    case Linkage::kComplete:
      return "complete";
    case Linkage::kAverage:
      return "average";
    case Linkage::kWard:
      return "ward";
  }
  return "unknown";
}

Result<Dendrogram> Agglomerative::RunNaive(const DissimilarityMatrix& matrix,
                                           Linkage linkage) {
  if (matrix.num_objects() == 0) {
    return Status::InvalidArgument("cannot cluster zero objects");
  }
  return DispatchLinkage(
      linkage, [&](auto l) { return Greedy<decltype(l)::value>(matrix); });
}

Result<Dendrogram> Agglomerative::Run(const DissimilarityMatrix& matrix,
                                      Linkage linkage) {
  if (matrix.num_objects() == 0) {
    return Status::InvalidArgument("cannot cluster zero objects");
  }
  return DispatchLinkage(
      linkage, [&](auto l) { return NnChain<decltype(l)::value>(matrix); });
}

}  // namespace ppc

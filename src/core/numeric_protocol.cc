#include "core/numeric_protocol.h"

#include "common/thread_pool.h"
#include "distance/kernels.h"

namespace ppc {

namespace {

/// sign ? -x : +x in ring arithmetic.
inline uint64_t Signed(int64_t x, bool negate) {
  uint64_t ux = static_cast<uint64_t>(x);
  return negate ? ~ux + 1 : ux;
}

}  // namespace

std::vector<uint64_t> NumericProtocol::MaskVector(
    const std::vector<int64_t>& values, Prng* rng_jt, Prng* rng_jk) {
  rng_jt->Reset();
  rng_jk->Reset();
  std::vector<uint64_t> out;
  out.reserve(values.size());
  for (int64_t x : values) {
    uint64_t mask = rng_jt->Next();
    bool negate = rng_jk->NextParityOdd();
    out.push_back(mask + Signed(x, negate));
  }
  return out;
}

std::vector<uint64_t> NumericProtocol::BuildComparisonMatrix(
    const std::vector<int64_t>& responder_values,
    const std::vector<uint64_t>& masked_initiator, Prng* rng_jk,
    size_t num_threads) {
  const size_t rows = responder_values.size();
  const size_t cols = masked_initiator.size();
  std::vector<uint64_t> matrix(rows * cols);
  // Every row restarts the coin stream (Fig. 5 step 4: column n uses the
  // same coin DHJ consumed for its nth element) — so every row reads the
  // *identical* sign prefix. Hoist it once into a negate-mask row (all-ones
  // where the responder takes the opposite of the initiator's coin, i.e.
  // where the coin came up even), then sweep the rows with the branch-free
  // SIMD-dispatched kernel. No generator state remains in the inner loop,
  // so any chunking is bit-identical.
  std::vector<uint64_t> negate_mask(cols);
  if (rows > 0) {
    rng_jk->Reset();
    for (size_t n = 0; n < cols; ++n) {
      bool initiator_negated = rng_jk->NextParityOdd();
      negate_mask[n] = initiator_negated ? 0 : ~uint64_t{0};
    }
  }
  ParallelFor(
      rows, num_threads,
      [&](size_t row_begin, size_t row_end) {
        for (size_t m = row_begin; m < row_end; ++m) {
          DistanceKernels::AddSignedRow(
              masked_initiator.data(), negate_mask.data(),
              static_cast<uint64_t>(responder_values[m]),
              matrix.data() + m * cols, cols);
        }
      },
      /*min_items=*/64);
  // Leave the caller's generator reset-consistent, as the sequential code
  // did after its last row.
  rng_jk->Reset();
  return matrix;
}

Result<std::vector<uint64_t>> NumericProtocol::RecoverDistances(
    const std::vector<uint64_t>& matrix, size_t rows, size_t cols,
    Prng* rng_jt, size_t num_threads) {
  if (matrix.size() != rows * cols) {
    return Status::InvalidArgument("comparison matrix size mismatch: got " +
                                   std::to_string(matrix.size()) +
                                   ", expected " +
                                   std::to_string(rows * cols));
  }
  std::vector<uint64_t> distances(matrix.size());
  // Fig. 6 step 4: re-initialize rng_jt at every row (all entries of a
  // column are disguised with the same mask) — so every row subtracts the
  // identical mask prefix. Draw it once, then sweep the rows with the
  // subtract-and-abs kernel; the inner loop is generator-free, so any
  // chunking is bit-identical. Callers derive a fresh generator per payload
  // and drop it afterwards, so its end state is not part of the contract.
  std::vector<uint64_t> masks(cols);
  if (rows > 0) {
    rng_jt->Reset();
    for (size_t n = 0; n < cols; ++n) masks[n] = rng_jt->Next();
  }
  ParallelFor(
      rows, num_threads,
      [&](size_t row_begin, size_t row_end) {
        for (size_t m = row_begin; m < row_end; ++m) {
          DistanceKernels::SubAbsRow(matrix.data() + m * cols, masks.data(),
                                     distances.data() + m * cols, cols);
        }
      },
      /*min_items=*/64);
  return distances;
}

std::vector<uint64_t> NumericProtocol::MaskMatrixPerPair(
    const std::vector<int64_t>& values, size_t responder_count, Prng* rng_jt,
    Prng* rng_jk) {
  rng_jt->Reset();
  rng_jk->Reset();
  std::vector<uint64_t> out;
  out.reserve(responder_count * values.size());
  for (size_t m = 0; m < responder_count; ++m) {
    for (int64_t x : values) {
      uint64_t mask = rng_jt->Next();
      bool negate = rng_jk->NextParityOdd();
      out.push_back(mask + Signed(x, negate));
    }
  }
  return out;
}

Result<std::vector<uint64_t>> NumericProtocol::AddResponderPerPair(
    const std::vector<int64_t>& responder_values, size_t initiator_count,
    const std::vector<uint64_t>& masked, Prng* rng_jk) {
  const size_t rows = responder_values.size();
  if (masked.size() != rows * initiator_count) {
    return Status::InvalidArgument("masked matrix size mismatch");
  }
  rng_jk->Reset();
  std::vector<uint64_t> out;
  out.reserve(masked.size());
  for (size_t m = 0; m < rows; ++m) {
    for (size_t n = 0; n < initiator_count; ++n) {
      bool initiator_negated = rng_jk->NextParityOdd();
      out.push_back(masked[m * initiator_count + n] +
                    Signed(responder_values[m], !initiator_negated));
    }
  }
  return out;
}

Result<std::vector<uint64_t>> NumericProtocol::RecoverDistancesPerPair(
    const std::vector<uint64_t>& matrix, size_t rows, size_t cols,
    Prng* rng_jt) {
  if (matrix.size() != rows * cols) {
    return Status::InvalidArgument("comparison matrix size mismatch");
  }
  rng_jt->Reset();
  std::vector<uint64_t> distances;
  distances.reserve(matrix.size());
  for (uint64_t cell : matrix) {
    distances.push_back(AbsFromRing(cell - rng_jt->Next()));
  }
  return distances;
}

}  // namespace ppc

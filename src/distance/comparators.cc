#include "distance/comparators.h"

#include <algorithm>
#include <cmath>

#include "common/thread_pool.h"
#include "distance/edit_distance.h"
#include "distance/kernels.h"

namespace ppc {

namespace {

/// Number of packed strictly-lower-triangle cells strictly above row `r`:
/// rows 0..r-1 hold 0 + 1 + ... + (r-1) = r(r-1)/2 cells.
size_t CellsBeforeRow(size_t r) { return r * (r - 1) / 2; }

/// Walks packed cells [cell_begin, cell_end) of the strict lower triangle,
/// invoking `row_fn(i, j_begin, j_end, out_row)` once per maximal per-row
/// segment — row i's cells are (i, 0) .. (i, i-1) — where `out_row` points
/// at the output slot of cell (i, j_begin). `out` is the output slot of
/// `cell_begin` itself, so callers can hand in a slice that starts mid-
/// triangle.
template <typename RowFn>
void ForEachPackedRowSegment(size_t cell_begin, size_t cell_end, double* out,
                             RowFn row_fn) {
  // Packed cell c lives in row i iff i(i-1)/2 <= c < i(i+1)/2; seed i from
  // the quadratic root, correct for rounding, then walk.
  size_t i = static_cast<size_t>(
      (1.0 + std::sqrt(1.0 + 8.0 * static_cast<double>(cell_begin))) / 2.0);
  while (i > 1 && i * (i - 1) / 2 > cell_begin) --i;
  while ((i + 1) * i / 2 <= cell_begin) ++i;
  size_t j = cell_begin - CellsBeforeRow(i);
  size_t c = cell_begin;
  while (c < cell_end) {
    const size_t segment = std::min(cell_end - c, i - j);
    row_fn(i, j, j + segment, out + (c - cell_begin));
    c += segment;
    j += segment;
    if (j == i) {
      ++i;
      j = 0;
    }
  }
}

/// Fills the packed cells of triangle rows [row_begin, row_end) for
/// attribute `column`, writing to `out` (which points at the slot of packed
/// cell row_begin(row_begin-1)/2). Splits the *cells* (not rows — triangle
/// rows grow linearly, so equal row counts would leave the last chunk with
/// ~2x the work) across `num_threads`; every cell is a pure computation, so
/// the chunking cannot change the result. Numeric rows go through the
/// SIMD-dispatched row kernels (distance/kernels.h).
Status FillPackedRows(const DataMatrix& data, size_t column,
                      const FixedPointCodec& real_codec, size_t row_begin,
                      size_t row_end, size_t num_threads, double* out) {
  const size_t cell_begin = CellsBeforeRow(row_begin);
  const size_t cell_end = CellsBeforeRow(row_end);
  const size_t total = cell_end - cell_begin;
  const AttributeType type = data.schema().attribute(column).type;

  switch (type) {
    case AttributeType::kInteger: {
      PPC_ASSIGN_OR_RETURN(std::vector<int64_t> values,
                           data.IntegerColumn(column));
      ParallelFor(
          total, num_threads,
          [&](size_t begin, size_t end) {
            ForEachPackedRowSegment(
                cell_begin + begin, cell_begin + end, out + begin,
                [&](size_t i, size_t j_begin, size_t j_end, double* row_out) {
                  DistanceKernels::AbsDiffRow(values[i],
                                              values.data() + j_begin,
                                              row_out, j_end - j_begin);
                });
          },
          /*min_items=*/4096);
      return Status::OK();
    }
    case AttributeType::kReal: {
      PPC_ASSIGN_OR_RETURN(std::vector<double> raw, data.RealColumn(column));
      std::vector<int64_t> values;
      values.reserve(raw.size());
      for (double v : raw) {
        PPC_ASSIGN_OR_RETURN(int64_t encoded, real_codec.Encode(v));
        values.push_back(encoded);
      }
      // Decode is a single multiply by the codec's inverse scale;
      // Decode(1) recovers that factor exactly.
      const double inverse_scale = real_codec.Decode(1);
      ParallelFor(
          total, num_threads,
          [&](size_t begin, size_t end) {
            ForEachPackedRowSegment(
                cell_begin + begin, cell_begin + end, out + begin,
                [&](size_t i, size_t j_begin, size_t j_end, double* row_out) {
                  DistanceKernels::AbsDiffScaledRow(
                      values[i], values.data() + j_begin, inverse_scale,
                      row_out, j_end - j_begin);
                });
          },
          /*min_items=*/4096);
      return Status::OK();
    }
    case AttributeType::kCategorical: {
      PPC_ASSIGN_OR_RETURN(std::vector<std::string> values,
                           data.StringColumn(column));
      ParallelFor(
          total, num_threads,
          [&](size_t begin, size_t end) {
            ForEachPackedRowSegment(
                cell_begin + begin, cell_begin + end, out + begin,
                [&](size_t i, size_t j_begin, size_t j_end, double* row_out) {
                  for (size_t j = j_begin; j < j_end; ++j) {
                    row_out[j - j_begin] =
                        Comparators::CategoricalDistance(values[i], values[j]);
                  }
                });
          },
          /*min_items=*/4096);
      return Status::OK();
    }
    case AttributeType::kAlphanumeric: {
      PPC_ASSIGN_OR_RETURN(std::vector<std::string> values,
                           data.StringColumn(column));
      ParallelFor(
          total, num_threads,
          [&](size_t begin, size_t end) {
            ForEachPackedRowSegment(
                cell_begin + begin, cell_begin + end, out + begin,
                [&](size_t i, size_t j_begin, size_t j_end, double* row_out) {
                  for (size_t j = j_begin; j < j_end; ++j) {
                    row_out[j - j_begin] = Comparators::AlphanumericDistance(
                        values[i], values[j]);
                  }
                });
          },
          /*min_items=*/4096);
      return Status::OK();
    }
  }
  return Status::Internal("unreachable attribute type");
}

}  // namespace

double Comparators::NumericDistance(int64_t x, int64_t y) {
  uint64_t ux = static_cast<uint64_t>(x);
  uint64_t uy = static_cast<uint64_t>(y);
  uint64_t diff = x >= y ? ux - uy : uy - ux;
  return static_cast<double>(diff);
}

double Comparators::CategoricalDistance(const std::string& a,
                                        const std::string& b) {
  return a == b ? 0.0 : 1.0;
}

double Comparators::AlphanumericDistance(const std::string& s,
                                         const std::string& t) {
  return static_cast<double>(EditDistance::Compute(s, t));
}

Result<DissimilarityMatrix> LocalDissimilarity::Build(
    const DataMatrix& data, size_t column, const FixedPointCodec& real_codec,
    size_t num_threads) {
  if (column >= data.NumColumns()) {
    return Status::OutOfRange("column " + std::to_string(column) +
                              " out of range");
  }
  const size_t n = data.NumRows();
  DissimilarityMatrix d(n);
  PPC_RETURN_IF_ERROR(FillPackedRows(data, column, real_codec, 0, n,
                                     num_threads, d.MutablePackedCells()));
  return d;
}

Result<std::vector<double>> LocalDissimilarity::BuildRows(
    const DataMatrix& data, size_t column, const FixedPointCodec& real_codec,
    size_t row_begin, size_t row_end, size_t num_threads) {
  if (column >= data.NumColumns()) {
    return Status::OutOfRange("column " + std::to_string(column) +
                              " out of range");
  }
  const size_t n = data.NumRows();
  if (row_begin > row_end || row_end > n) {
    return Status::OutOfRange("row range [" + std::to_string(row_begin) +
                              ", " + std::to_string(row_end) +
                              ") out of range for " + std::to_string(n) +
                              " objects");
  }
  std::vector<double> cells(CellsBeforeRow(row_end) -
                            CellsBeforeRow(row_begin));
  PPC_RETURN_IF_ERROR(FillPackedRows(data, column, real_codec, row_begin,
                                     row_end, num_threads, cells.data()));
  return cells;
}

Result<std::vector<DissimilarityMatrix>> LocalDissimilarity::BuildAll(
    const DataMatrix& data, const FixedPointCodec& real_codec,
    size_t num_threads) {
  std::vector<DissimilarityMatrix> out;
  out.reserve(data.NumColumns());
  for (size_t c = 0; c < data.NumColumns(); ++c) {
    PPC_ASSIGN_OR_RETURN(DissimilarityMatrix d,
                         Build(data, c, real_codec, num_threads));
    out.push_back(std::move(d));
  }
  return out;
}

}  // namespace ppc

#ifndef PPC_CORE_NUMERIC_PROTOCOL_H_
#define PPC_CORE_NUMERIC_PROTOCOL_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "rng/prng.h"

namespace ppc {

/// The three-site numeric comparison protocol of paper Sec. 4.1 (Figs. 3-6),
/// as pure functions over PRNG streams. The network roles in `DataHolder` /
/// `ThirdParty` serialize these vectors into messages; keeping the
/// arithmetic here makes every protocol step unit-testable in isolation.
///
/// Arithmetic lives in the ring Z_2^64 (`uint64_t` wrap-around): masking is
/// a one-time pad, and unmasking recovers the signed difference exactly for
/// any |x - y| < 2^63. The generators:
///   * `rng_jk` — seed shared by the two data holders; its parity stream
///     decides which side negates (hides the sign of x - y from the TP).
///   * `rng_jt` — seed shared by initiator DHJ and the TP; its values mask
///     the magnitudes.
///
/// Batch mode (Figs. 4-6): DHJ spends one (mask, sign) per object; DHK and
/// the TP re-align by *resetting* their generator after each row. Per-pair
/// mode spends a fresh (mask, sign) per object pair, defeating the
/// frequency-analysis attack at O(n·m) initiator traffic.
class NumericProtocol {
 public:
  // -- Batch mode (paper Figs. 4, 5, 6) ------------------------------------

  /// Site DHJ (Fig. 4): masks the initiator's column. Consumes one value
  /// from each generator per element:
  ///   out[m] = rng_jt.Next() + sign(rng_jk) * values[m]   (mod 2^64).
  static std::vector<uint64_t> MaskVector(const std::vector<int64_t>& values,
                                          Prng* rng_jt, Prng* rng_jk);

  /// Site DHK (Fig. 5): builds the pair-wise comparison matrix, row-major
  /// `responder_values.size()` x `masked_initiator.size()`:
  ///   s[m][n] = masked[n] + opposite_sign(rng_jk) * responder_values[m].
  /// `rng_jk` is reset after every row so the nth column always sees the
  /// nth sign DHJ used. The generator is left reset-consistent (the
  /// function resets it before first use too, making calls idempotent).
  /// With `num_threads > 1` rows are split across threads — bit-identical
  /// output, since every row reads the same sign prefix, drawn once per
  /// payload before the split.
  static std::vector<uint64_t> BuildComparisonMatrix(
      const std::vector<int64_t>& responder_values,
      const std::vector<uint64_t>& masked_initiator, Prng* rng_jk,
      size_t num_threads = 1);

  /// Site TP (Fig. 6): strips the masks and takes absolute values.
  /// `matrix` is row-major `rows` x `cols`; `rng_jt` is reset per row
  /// (each column was disguised with the same mask). Returns row-major
  /// distances: element (m, n) = |x_n - y_m|. Rows parallelize the same
  /// way as `BuildComparisonMatrix`.
  static Result<std::vector<uint64_t>> RecoverDistances(
      const std::vector<uint64_t>& matrix, size_t rows, size_t cols,
      Prng* rng_jt, size_t num_threads = 1);

  // -- Per-pair mode (Sec. 4.1 frequency-attack mitigation) ----------------

  /// Site DHJ: masks a full `responder_count` x `values.size()` matrix with
  /// a fresh (mask, sign) per cell, row-major. Both generators are consumed
  /// linearly with NO resets.
  static std::vector<uint64_t> MaskMatrixPerPair(
      const std::vector<int64_t>& values, size_t responder_count,
      Prng* rng_jt, Prng* rng_jk);

  /// Site DHK: adds its value with the opposite per-cell sign. `masked` is
  /// row-major `responder_values.size()` x `initiator_count`.
  static Result<std::vector<uint64_t>> AddResponderPerPair(
      const std::vector<int64_t>& responder_values, size_t initiator_count,
      const std::vector<uint64_t>& masked, Prng* rng_jk);

  /// Site TP: strips per-cell masks (no resets) and takes absolute values.
  static Result<std::vector<uint64_t>> RecoverDistancesPerPair(
      const std::vector<uint64_t>& matrix, size_t rows, size_t cols,
      Prng* rng_jt);

  /// |v| when interpreting a ring element as a signed 64-bit value.
  static uint64_t AbsFromRing(uint64_t v) {
    int64_t s = static_cast<int64_t>(v);
    return s >= 0 ? static_cast<uint64_t>(s)
                  : ~static_cast<uint64_t>(s) + 1;
  }
};

}  // namespace ppc

#endif  // PPC_CORE_NUMERIC_PROTOCOL_H_

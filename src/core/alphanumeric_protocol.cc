#include "core/alphanumeric_protocol.h"

#include <algorithm>
#include <atomic>

#include "common/thread_pool.h"
#include "distance/kernels.h"

namespace ppc {

Result<std::vector<std::vector<uint8_t>>> AlphanumericProtocol::MaskStrings(
    const std::vector<std::vector<uint8_t>>& strings, const Alphabet& alphabet,
    Prng* rng_jt) {
  const size_t alphabet_size = alphabet.size();
  std::vector<std::vector<uint8_t>> out;
  out.reserve(strings.size());
  for (const std::vector<uint8_t>& s : strings) {
    // Fig. 8 step 4: re-initialize rng_jt per string; every string is
    // masked with the same random prefix.
    rng_jt->Reset();
    std::vector<uint8_t> masked;
    masked.reserve(s.size());
    for (uint8_t symbol : s) {
      if (symbol >= alphabet_size) {
        return Status::InvalidArgument("symbol index " +
                                       std::to_string(symbol) +
                                       " outside alphabet");
      }
      uint8_t r = static_cast<uint8_t>(rng_jt->NextBounded(alphabet_size));
      masked.push_back(alphabet.AddMod(symbol, r));
    }
    out.push_back(std::move(masked));
  }
  return out;
}

std::vector<AlphanumericProtocol::MaskedGrid>
AlphanumericProtocol::BuildMaskedGrids(
    const std::vector<std::vector<uint8_t>>& responder_strings,
    const std::vector<std::vector<uint8_t>>& masked_initiator,
    const Alphabet& alphabet, size_t num_threads) {
  const size_t cols = masked_initiator.size();
  const size_t alphabet_size = alphabet.size();
  // The SubMod row kernel wants its left operand already reduced mod |A|
  // (Alphabet::SubMod reduces silently). Masked strings arrive over the wire,
  // so reduce each once up front — O(strings), shared by every grid in the
  // column — instead of per cell.
  std::vector<std::vector<uint8_t>> reduced = masked_initiator;
  for (std::vector<uint8_t>& s : reduced) {
    for (uint8_t& symbol : s) {
      if (symbol >= alphabet_size) {
        symbol = static_cast<uint8_t>(symbol % alphabet_size);
      }
    }
  }
  std::vector<MaskedGrid> grids(responder_strings.size() * cols);
  ParallelFor(
      grids.size(), num_threads,
      [&](size_t begin, size_t end) {
        for (size_t g = begin; g < end; ++g) {
          const std::vector<uint8_t>& own = responder_strings[g / cols];
          const std::vector<uint8_t>& masked = reduced[g % cols];
          MaskedGrid& grid = grids[g];
          grid.responder_length = own.size();
          grid.initiator_length = masked.size();
          grid.cells.resize(own.size() * masked.size());
          // Fig. 9 step 3: M[q][p] = s'[p] - t[q], mod alphabet size —
          // every row subtracts one constant symbol from the same masked
          // string, which is exactly the SubMod row kernel.
          for (size_t q = 0; q < own.size(); ++q) {
            DistanceKernels::SubModRow(masked.data(), own[q], alphabet_size,
                                       grid.cells.data() + q * masked.size(),
                                       masked.size());
          }
        }
      },
      /*min_items=*/16);
  return grids;
}

CharComparisonMatrix AlphanumericProtocol::DecodeCcm(const MaskedGrid& grid,
                                                     const Alphabet& alphabet,
                                                     Prng* rng_jt) {
  const size_t alphabet_size = alphabet.size();
  // The CCM orientation follows the comparison semantics: source = initiator
  // string (length = columns of the grid), target = responder string. Edit
  // distance is symmetric, so either orientation yields the same value; we
  // keep (responder rows, initiator cols) to match the grid layout.
  CharComparisonMatrix ccm(grid.responder_length, grid.initiator_length);
  for (size_t q = 0; q < grid.responder_length; ++q) {
    // Fig. 10 step 5: re-initialize rng_jt per row; column p was masked
    // with the pth random symbol.
    rng_jt->Reset();
    for (size_t p = 0; p < grid.initiator_length; ++p) {
      uint8_t r = static_cast<uint8_t>(rng_jt->NextBounded(alphabet_size));
      uint8_t residue =
          alphabet.SubMod(grid.cells[q * grid.initiator_length + p], r);
      ccm.set(q, p, residue == 0 ? 0 : 1);
    }
  }
  return ccm;
}

Result<std::vector<uint64_t>> AlphanumericProtocol::RecoverDistances(
    const std::vector<MaskedGrid>& grids, size_t responder_count,
    size_t initiator_count, const Alphabet& alphabet, Prng* rng_jt,
    size_t num_threads) {
  if (grids.size() != responder_count * initiator_count) {
    return Status::InvalidArgument(
        "grid count mismatch: got " + std::to_string(grids.size()) +
        ", expected " + std::to_string(responder_count * initiator_count));
  }
  std::vector<uint64_t> distances(grids.size());
  // DecodeCcm resets the generator at every grid *row* (column p is always
  // masked with the pth random symbol), so every row of every grid strips
  // the same mask prefix. Draw it once, to the longest initiator length —
  // NextBounded's rejection sampling consumes a deterministic stream, so the
  // first p draws after a Reset are the same no matter how many follow. The
  // decode then reduces to a byte-compare row kernel: residue (cell - r_p)
  // mod |A| is zero iff cell == r_p, given both operands are reduced mod
  // |A|. Masks are (NextBounded); cells arrive over the wire, so reject
  // out-of-range cells instead of silently reducing them.
  const size_t alphabet_size = alphabet.size();
  size_t max_initiator_length = 0;
  for (const MaskedGrid& grid : grids) {
    max_initiator_length = std::max(max_initiator_length,
                                    grid.initiator_length);
  }
  std::vector<uint8_t> mask_prefix(max_initiator_length);
  if (!grids.empty()) {
    rng_jt->Reset();
    for (size_t p = 0; p < max_initiator_length; ++p) {
      mask_prefix[p] = static_cast<uint8_t>(rng_jt->NextBounded(alphabet_size));
    }
  }
  std::atomic<bool> malformed{false};
  ParallelFor(
      grids.size(), num_threads,
      [&](size_t begin, size_t end) {
        for (size_t g = begin; g < end; ++g) {
          const MaskedGrid& grid = grids[g];
          const size_t rows = grid.responder_length;
          const size_t cols = grid.initiator_length;
          if (grid.cells.size() != rows * cols) {
            malformed.store(true, std::memory_order_relaxed);
            return;
          }
          for (uint8_t cell : grid.cells) {
            if (cell >= alphabet_size) {
              malformed.store(true, std::memory_order_relaxed);
              return;
            }
          }
          CharComparisonMatrix ccm(rows, cols);
          for (size_t q = 0; q < rows; ++q) {
            DistanceKernels::NotEqualRow(grid.cells.data() + q * cols,
                                         mask_prefix.data(),
                                         ccm.MutableRow(q), cols);
          }
          distances[g] = EditDistance::ComputeFromCcm(ccm);
        }
      },
      /*min_items=*/16);
  if (malformed.load(std::memory_order_relaxed)) {
    return Status::ProtocolViolation(
        "malformed masked grid: cell count mismatch or symbol outside "
        "alphabet");
  }
  return distances;
}

}  // namespace ppc

#ifndef PPC_CORE_CONFIG_H_
#define PPC_CORE_CONFIG_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <thread>

#include "data/alphabet.h"
#include "data/taxonomy.h"

namespace ppc {

/// Masking strategy of the numeric comparison protocol (paper Sec. 4.1).
enum class MaskingMode : uint8_t {
  /// One mask per initiator object, reused against every responder object —
  /// the paper's batch protocol. Initiator traffic O(n); vulnerable to the
  /// frequency-analysis attack when attribute ranges are small.
  kBatch = 0,
  /// A fresh (mask, sign) pair per object *pair* — the paper's mitigation
  /// ("site DHK can request omitting batch processing of inputs and using
  /// unique random numbers for each object pair"). Initiator traffic grows
  /// to O(n·m).
  kPerPair = 1,
};

/// Canonical name of `mode` ("batch" / "per-pair").
const char* MaskingModeToString(MaskingMode mode);

/// The `ProtocolConfig::num_threads` rule: 0 = auto (the hardware
/// concurrency, at least 2), otherwise exactly the configured count.
inline size_t ResolveNumThreads(size_t configured) {
  if (configured == 0) {
    return std::max(2u, std::thread::hardware_concurrency());
  }
  return configured;
}

/// Shared parameters every participant (data holders and third party) must
/// agree on before the protocol starts, alongside the attribute `Schema`.
struct ProtocolConfig {
  /// Masking strategy for numeric attributes.
  MaskingMode masking_mode = MaskingMode::kBatch;

  /// Fixed-point precision for real-valued attributes (decimal digits kept).
  int real_decimal_digits = 6;

  /// Worker threads for the protocol. The single rule, resolved by
  /// `ResolveNumThreads` for `ClusteringSession::Run` and for every
  /// party's row kernels alike:
  ///
  ///   * 1 (the default) — every phase on the caller's thread, the
  ///     deterministic sequential reference schedule.
  ///   * 0 — auto: resolve to the hardware concurrency.
  ///   * n > 1 — the schedule graph's ready set on exactly n workers,
  ///     driving independent protocol rounds concurrently and
  ///     parallelizing the O(n^2) inner loops.
  ///
  /// A party run alone by `PartyRunner` executes its steps in canonical
  /// order; there `num_threads` only splits the O(n^2) row kernels.
  ///
  /// Because every mask stream is derived from a per-(attribute,
  /// initiator, responder) label, results are bit-identical across thread
  /// counts.
  size_t num_threads = 1;

  /// Row-tile height for the quadratic phases (4 and 5). 0 (the default)
  /// ships each local matrix and comparison result as one whole-matrix
  /// message — the paper's original shape, byte-identical to every prior
  /// release. A positive value splits those payloads into row-range tiles
  /// of at most `tile_size` responder rows each, streamed through their own
  /// schedule-graph steps: the third party starts unmasking early tiles
  /// while later tiles are still being built and sent, and peak per-message
  /// memory drops from O(n^2) to O(n * tile_size). Final matrices (and
  /// therefore dendrograms/outcomes) are bit-identical at every tile size;
  /// wire framing differs (per-tile headers), which the communication
  /// model prices exactly.
  size_t tile_size = 0;

  /// End-to-end session deadline in milliseconds. 0 (the default) means
  /// no deadline: a blocking receive waits up to the transport's
  /// `receive_timeout` and surfaces `kUnavailable` when the peer never
  /// delivers. A positive value arms the session's `CancelToken` before
  /// the schedule runs; once it expires every party's next blocking
  /// receive and every executor's next schedule step fail with a typed
  /// `kDeadlineExceeded` (session, phase, peer, and topic in the
  /// message) instead of wedging on a dead peer.
  uint64_t deadline_ms = 0;

  /// Alphabet of every alphanumeric attribute. The paper requires a finite,
  /// publicly known alphabet so that masking can wrap modulo its size.
  Alphabet alphabet = Alphabet::Dna();

  /// Optional category hierarchies, keyed by attribute name. A categorical
  /// attribute listed here is compared with the normalized tree-path
  /// distance via `TaxonomyProtocol` instead of the flat 0/1 protocol —
  /// the Sec. 4.3 future work, wired into the ordinary session. Taxonomy
  /// *structures* are public (like the comparison functions); only values
  /// are private.
  std::map<std::string, CategoryTaxonomy> taxonomies;
};

}  // namespace ppc

#endif  // PPC_CORE_CONFIG_H_

#ifndef PPC_RNG_PRNG_H_
#define PPC_RNG_PRNG_H_

#include <cstdint>
#include <memory>
#include <string>

namespace ppc {

/// Deterministic pseudo-random stream with O(1) re-initialization.
///
/// This is the abstraction the paper's protocols are built on: two parties
/// holding the same seed generate identical streams, and the batch variants
/// of the comparison protocols repeatedly *reset* a generator to its seed to
/// re-align with the peer (paper Figs. 5, 6, 8, 10). `Reset()` must therefore
/// be cheap for every implementation.
///
/// Implementations: `SplitMix64Prng`, `Xoshiro256Prng` (fast, statistical),
/// and `ChaCha20Prng` (cryptographic; the only generator protocol masks are
/// drawn from, see `MakePrngFromKey` — the paper assumes "a high quality pseudo-random number generator ... that
/// is not predictable").
class Prng {
 public:
  virtual ~Prng() = default;

  /// Returns the next 64 uniformly distributed bits of the stream.
  virtual uint64_t Next() = 0;

  /// Rewinds the stream to its initial (seeded) state.
  virtual void Reset() = 0;

  /// Human-readable implementation name ("chacha20", ...).
  virtual std::string name() const = 0;

  /// Consumes one value; true iff it is odd. This is the sign coin of the
  /// paper's numeric protocol ("If the random number generated by rngJK is
  /// odd, DHJ negates its input").
  bool NextParityOdd() { return (Next() & 1) != 0; }

  /// Consumes values until one falls in the rejection region; returns a
  /// uniform value in [0, bound). `bound` must be nonzero.
  uint64_t NextBounded(uint64_t bound);

  /// Uniform double in [0, 1) with 53 random bits.
  double NextUnitDouble() {
    return static_cast<double>(Next() >> 11) * 0x1.0p-53;
  }
};

/// Available generator families.
enum class PrngKind {
  kSplitMix64,
  kXoshiro256,
  kChaCha20,
};

/// Returns the canonical name of `kind`.
const char* PrngKindToString(PrngKind kind);

/// Creates a generator of the given family from a 64-bit seed.
std::unique_ptr<Prng> MakePrng(PrngKind kind, uint64_t seed);

/// Creates the protocol's mask generator from a byte-string key (e.g. a
/// Diffie-Hellman-derived 32-byte secret): always ChaCha20, keyed directly
/// by the 256-bit secret (see `ChaCha20Prng` for other key lengths), so a
/// mask stream is as strong as the secret it came from.
std::unique_ptr<Prng> MakePrngFromKey(const std::string& key);

}  // namespace ppc

#endif  // PPC_RNG_PRNG_H_

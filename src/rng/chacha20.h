#ifndef PPC_RNG_CHACHA20_H_
#define PPC_RNG_CHACHA20_H_

#include <array>
#include <cstdint>
#include <string>

#include "rng/prng.h"

namespace ppc {

/// The ChaCha20 block function of RFC 8439.
///
/// `key` is 8 little-endian 32-bit words (32 bytes), `nonce` is 3 words
/// (12 bytes). Writes the 16-word (64-byte) keystream block for `counter`
/// into `out`.
void ChaCha20Block(const std::array<uint32_t, 8>& key, uint32_t counter,
                   const std::array<uint32_t, 3>& nonce,
                   std::array<uint32_t, 16>* out);

/// Cryptographic PRNG backed by the ChaCha20 keystream.
///
/// This is the "high quality pseudo-random number generator, that has a long
/// period and that is not predictable" the paper assumes for its masking
/// protocols. The 256-bit key is the shared seed (e.g. derived from a
/// Diffie-Hellman exchange); `Reset()` rewinds the block counter, which is
/// O(1) as the protocol requires.
class ChaCha20Prng final : public Prng {
 public:
  /// Seeds from a byte-string key. Keys shorter than 32 bytes are expanded
  /// with SplitMix64; longer keys are truncated.
  explicit ChaCha20Prng(const std::string& key);

  /// Seeds from a 64-bit seed (expanded to 32 bytes with SplitMix64).
  explicit ChaCha20Prng(uint64_t seed);

  uint64_t Next() override;
  void Reset() override;
  std::string name() const override { return "chacha20"; }

 private:
  void Refill();

  std::array<uint32_t, 8> key_;
  std::array<uint32_t, 3> nonce_;
  uint32_t counter_ = 0;
  std::array<uint32_t, 16> block_;
  int next_word_ = 16;  // 16 == block exhausted.
};

}  // namespace ppc

#endif  // PPC_RNG_CHACHA20_H_

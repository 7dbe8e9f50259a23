#include "rng/prng.h"

#include "rng/chacha20.h"
#include "rng/splitmix64.h"
#include "rng/xoshiro256.h"

namespace ppc {

uint64_t Prng::NextBounded(uint64_t bound) {
  if (bound == 0) return 0;
  // Rejection sampling over the largest multiple of `bound` below 2^64,
  // giving an exactly uniform result.
  const uint64_t limit = ~uint64_t{0} - (~uint64_t{0} % bound);
  uint64_t v;
  do {
    v = Next();
  } while (v >= limit);
  return v % bound;
}

const char* PrngKindToString(PrngKind kind) {
  switch (kind) {
    case PrngKind::kSplitMix64:
      return "splitmix64";
    case PrngKind::kXoshiro256:
      return "xoshiro256**";
    case PrngKind::kChaCha20:
      return "chacha20";
  }
  return "unknown";
}

std::unique_ptr<Prng> MakePrng(PrngKind kind, uint64_t seed) {
  switch (kind) {
    case PrngKind::kSplitMix64:
      return std::make_unique<SplitMix64Prng>(seed);
    case PrngKind::kXoshiro256:
      return std::make_unique<Xoshiro256Prng>(seed);
    case PrngKind::kChaCha20:
      return std::make_unique<ChaCha20Prng>(seed);
  }
  return nullptr;
}

std::unique_ptr<Prng> MakePrngFromKey(const std::string& key) {
  return std::make_unique<ChaCha20Prng>(key);
}

}  // namespace ppc

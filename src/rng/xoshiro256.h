#ifndef PPC_RNG_XOSHIRO256_H_
#define PPC_RNG_XOSHIRO256_H_

#include <array>

#include "rng/prng.h"

namespace ppc {

/// Blackman & Vigna's xoshiro256**: fast statistical generator with period
/// 2^256-1. State is expanded from the 64-bit seed via SplitMix64, as the
/// authors recommend. Not cryptographic.
class Xoshiro256Prng final : public Prng {
 public:
  explicit Xoshiro256Prng(uint64_t seed);

  uint64_t Next() override;
  void Reset() override { state_ = initial_state_; }
  std::string name() const override { return "xoshiro256**"; }

 private:
  std::array<uint64_t, 4> initial_state_;
  std::array<uint64_t, 4> state_;
};

}  // namespace ppc

#endif  // PPC_RNG_XOSHIRO256_H_

#include "rng/xoshiro256.h"

#include "rng/splitmix64.h"

namespace ppc {

namespace {
inline uint64_t Rotl(uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}
}  // namespace

Xoshiro256Prng::Xoshiro256Prng(uint64_t seed) {
  SplitMix64Prng expander(seed);
  for (auto& word : initial_state_) word = expander.Next();
  state_ = initial_state_;
}

uint64_t Xoshiro256Prng::Next() {
  const uint64_t result = Rotl(state_[1] * 5, 7) * 9;
  const uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = Rotl(state_[3], 45);
  return result;
}

}  // namespace ppc

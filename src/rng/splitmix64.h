#ifndef PPC_RNG_SPLITMIX64_H_
#define PPC_RNG_SPLITMIX64_H_

#include "rng/prng.h"

namespace ppc {

/// Steele, Lea & Flood's SplitMix64: a tiny, fast, full-period-2^64
/// statistical generator. Used for workload generation and as the seed
/// expander for other generators. Not cryptographic.
class SplitMix64Prng final : public Prng {
 public:
  explicit SplitMix64Prng(uint64_t seed) : seed_(seed), state_(seed) {}

  uint64_t Next() override;
  void Reset() override { state_ = seed_; }
  std::string name() const override { return "splitmix64"; }

  /// Stateless single-step mix, handy for seed derivation chains.
  static uint64_t Mix(uint64_t x);

 private:
  uint64_t seed_;
  uint64_t state_;
};

}  // namespace ppc

#endif  // PPC_RNG_SPLITMIX64_H_

#include "rng/chacha20.h"

#include <cstring>

#include "rng/splitmix64.h"

namespace ppc {

namespace {

inline uint32_t Rotl32(uint32_t x, int k) {
  return (x << k) | (x >> (32 - k));
}

inline void QuarterRound(uint32_t* a, uint32_t* b, uint32_t* c, uint32_t* d) {
  *a += *b;
  *d = Rotl32(*d ^ *a, 16);
  *c += *d;
  *b = Rotl32(*b ^ *c, 12);
  *a += *b;
  *d = Rotl32(*d ^ *a, 8);
  *c += *d;
  *b = Rotl32(*b ^ *c, 7);
}

std::array<uint32_t, 8> KeyWordsFromBytes(const std::string& key) {
  std::string expanded = key;
  if (expanded.size() < 32) {
    // Expand short keys deterministically (FNV-1a fold, SplitMix64 stretch).
    uint64_t acc = 0xcbf29ce484222325ull ^ expanded.size();
    for (unsigned char c : key) acc = (acc ^ c) * 0x100000001b3ull;
    SplitMix64Prng expander(acc);
    while (expanded.size() < 32) {
      uint64_t w = expander.Next();
      for (int i = 0; i < 8 && expanded.size() < 32; ++i) {
        expanded.push_back(static_cast<char>((w >> (8 * i)) & 0xff));
      }
    }
  }
  std::array<uint32_t, 8> words;
  for (int i = 0; i < 8; ++i) {
    uint32_t w = 0;
    for (int b = 0; b < 4; ++b) {
      w |= static_cast<uint32_t>(
               static_cast<uint8_t>(expanded[4 * i + b]))
           << (8 * b);
    }
    words[i] = w;
  }
  return words;
}

}  // namespace

void ChaCha20Block(const std::array<uint32_t, 8>& key, uint32_t counter,
                   const std::array<uint32_t, 3>& nonce,
                   std::array<uint32_t, 16>* out) {
  // "expand 32-byte k"
  static constexpr std::array<uint32_t, 4> kConstants = {
      0x61707865u, 0x3320646eu, 0x79622d32u, 0x6b206574u};
  std::array<uint32_t, 16> state;
  for (int i = 0; i < 4; ++i) state[i] = kConstants[i];
  for (int i = 0; i < 8; ++i) state[4 + i] = key[i];
  state[12] = counter;
  for (int i = 0; i < 3; ++i) state[13 + i] = nonce[i];

  std::array<uint32_t, 16> working = state;
  for (int round = 0; round < 10; ++round) {
    // Column rounds.
    QuarterRound(&working[0], &working[4], &working[8], &working[12]);
    QuarterRound(&working[1], &working[5], &working[9], &working[13]);
    QuarterRound(&working[2], &working[6], &working[10], &working[14]);
    QuarterRound(&working[3], &working[7], &working[11], &working[15]);
    // Diagonal rounds.
    QuarterRound(&working[0], &working[5], &working[10], &working[15]);
    QuarterRound(&working[1], &working[6], &working[11], &working[12]);
    QuarterRound(&working[2], &working[7], &working[8], &working[13]);
    QuarterRound(&working[3], &working[4], &working[9], &working[14]);
  }
  for (int i = 0; i < 16; ++i) (*out)[i] = working[i] + state[i];
}

ChaCha20Prng::ChaCha20Prng(const std::string& key)
    : key_(KeyWordsFromBytes(key)), nonce_{0, 0, 0} {}

ChaCha20Prng::ChaCha20Prng(uint64_t seed) : nonce_{0, 0, 0} {
  SplitMix64Prng expander(seed);
  for (int i = 0; i < 8; i += 2) {
    uint64_t w = expander.Next();
    key_[i] = static_cast<uint32_t>(w);
    key_[i + 1] = static_cast<uint32_t>(w >> 32);
  }
}

uint64_t ChaCha20Prng::Next() {
  if (next_word_ >= 15) {
    // Need two consecutive words; refill if fewer than two remain.
    if (next_word_ >= 16) {
      Refill();
    } else {
      // One word left: take it plus the first of the next block.
      uint64_t low = block_[next_word_];
      Refill();
      uint64_t high = block_[next_word_++];
      return low | (high << 32);
    }
  }
  uint64_t low = block_[next_word_];
  uint64_t high = block_[next_word_ + 1];
  next_word_ += 2;
  return low | (high << 32);
}

void ChaCha20Prng::Refill() {
  ChaCha20Block(key_, counter_, nonce_, &block_);
  ++counter_;
  next_word_ = 0;
}

void ChaCha20Prng::Reset() {
  counter_ = 0;
  next_word_ = 16;
}

}  // namespace ppc

#include "crypto/x25519.h"

namespace ppc {

namespace {

using u128 = unsigned __int128;

/// A field element of GF(2^255 - 19) as five 51-bit limbs, least
/// significant first. Limbs may run a few bits over 51 between
/// reductions; every operation below states the bounds it keeps.
struct Fe {
  uint64_t v[5];
};

constexpr uint64_t kMask51 = (uint64_t{1} << 51) - 1;

uint64_t Load64(const uint8_t* p) {
  uint64_t x = 0;
  for (int i = 7; i >= 0; --i) x = (x << 8) | p[i];
  return x;
}

void Store64(uint8_t* p, uint64_t x) {
  for (int i = 0; i < 8; ++i) p[i] = static_cast<uint8_t>(x >> (8 * i));
}

/// Unpacks 32 little-endian bytes, dropping bit 255 (RFC 7748 Sec. 5:
/// implementations mask the top bit of the u-coordinate).
Fe FromBytes(const uint8_t* s) {
  return Fe{{Load64(s) & kMask51, (Load64(s + 6) >> 3) & kMask51,
             (Load64(s + 12) >> 6) & kMask51, (Load64(s + 19) >> 1) & kMask51,
             (Load64(s + 24) >> 12) & kMask51}};
}

/// Carries every limb into [0, 2^51), folding the overflow of limb 4 back
/// into limb 0 times 19 (2^255 = 19 mod p).
void Carry(Fe& h) {
  for (int i = 0; i < 4; ++i) {
    h.v[i + 1] += h.v[i] >> 51;
    h.v[i] &= kMask51;
  }
  h.v[0] += 19 * (h.v[4] >> 51);
  h.v[4] &= kMask51;
}

/// Packs the canonical representative (fully reduced mod p).
void ToBytes(uint8_t* out, Fe h) {
  Carry(h);
  Carry(h);
  // Now h < 2^255 + small. h >= p iff h + 19 carries out of bit 255.
  uint64_t q = (h.v[0] + 19) >> 51;
  for (int i = 1; i < 5; ++i) q = (h.v[i] + q) >> 51;
  h.v[0] += 19 * q;
  for (int i = 0; i < 4; ++i) {
    h.v[i + 1] += h.v[i] >> 51;
    h.v[i] &= kMask51;
  }
  h.v[4] &= kMask51;  // Drops 2^255 when q = 1: subtracts p overall.
  Store64(out, h.v[0] | (h.v[1] << 51));
  Store64(out + 8, (h.v[1] >> 13) | (h.v[2] << 38));
  Store64(out + 16, (h.v[2] >> 26) | (h.v[3] << 25));
  Store64(out + 24, (h.v[3] >> 39) | (h.v[4] << 12));
}

Fe Add(const Fe& f, const Fe& g) {
  Fe h{};
  for (int i = 0; i < 5; ++i) h.v[i] = f.v[i] + g.v[i];
  return h;
}

/// f - g computed as f + 4p - g, so no limb underflows while g's limbs stay
/// below 2^53 (every subtrahend here is a reduced product or square).
Fe Sub(const Fe& f, const Fe& g) {
  constexpr uint64_t kFourP0 = 0x1FFFFFFFFFFFB4;  // 4 * (2^51 - 19)
  constexpr uint64_t kFourPi = 0x1FFFFFFFFFFFFC;  // 4 * (2^51 - 1)
  Fe h{};
  h.v[0] = f.v[0] + kFourP0 - g.v[0];
  for (int i = 1; i < 5; ++i) h.v[i] = f.v[i] + kFourPi - g.v[i];
  return h;
}

/// Carries five 128-bit column sums into a reduced element (limbs below
/// 2^51 except limb 1, below 2^51 + 2^13).
Fe Reduce(u128 r0, u128 r1, u128 r2, u128 r3, u128 r4) {
  Fe h{};
  r1 += static_cast<uint64_t>(r0 >> 51);
  h.v[0] = static_cast<uint64_t>(r0) & kMask51;
  r2 += static_cast<uint64_t>(r1 >> 51);
  h.v[1] = static_cast<uint64_t>(r1) & kMask51;
  r3 += static_cast<uint64_t>(r2 >> 51);
  h.v[2] = static_cast<uint64_t>(r2) & kMask51;
  r4 += static_cast<uint64_t>(r3 >> 51);
  h.v[3] = static_cast<uint64_t>(r3) & kMask51;
  const uint64_t carry = static_cast<uint64_t>(r4 >> 51);
  h.v[4] = static_cast<uint64_t>(r4) & kMask51;
  h.v[0] += carry * 19;
  h.v[1] += h.v[0] >> 51;
  h.v[0] &= kMask51;
  return h;
}

/// Schoolbook product; the columns past limb 4 fold back times 19. Inputs
/// with limbs below 2^54 keep every column below 2^115.
Fe Mul(const Fe& f, const Fe& g) {
  const uint64_t f0 = f.v[0], f1 = f.v[1], f2 = f.v[2], f3 = f.v[3],
                 f4 = f.v[4];
  const uint64_t g0 = g.v[0], g1 = g.v[1], g2 = g.v[2], g3 = g.v[3],
                 g4 = g.v[4];
  const uint64_t g1_19 = 19 * g1, g2_19 = 19 * g2, g3_19 = 19 * g3,
                 g4_19 = 19 * g4;
  const u128 r0 = u128{f0} * g0 + u128{f1} * g4_19 + u128{f2} * g3_19 +
                  u128{f3} * g2_19 + u128{f4} * g1_19;
  const u128 r1 = u128{f0} * g1 + u128{f1} * g0 + u128{f2} * g4_19 +
                  u128{f3} * g3_19 + u128{f4} * g2_19;
  const u128 r2 = u128{f0} * g2 + u128{f1} * g1 + u128{f2} * g0 +
                  u128{f3} * g4_19 + u128{f4} * g3_19;
  const u128 r3 = u128{f0} * g3 + u128{f1} * g2 + u128{f2} * g1 +
                  u128{f3} * g0 + u128{f4} * g4_19;
  const u128 r4 = u128{f0} * g4 + u128{f1} * g3 + u128{f2} * g2 +
                  u128{f3} * g1 + u128{f4} * g0;
  return Reduce(r0, r1, r2, r3, r4);
}

/// Mul(f, f) with the symmetric cross terms merged.
Fe Square(const Fe& f) {
  const uint64_t f0 = f.v[0], f1 = f.v[1], f2 = f.v[2], f3 = f.v[3],
                 f4 = f.v[4];
  const uint64_t f0_2 = 2 * f0, f1_2 = 2 * f1;
  const uint64_t f1_38 = 38 * f1, f2_38 = 38 * f2, f3_38 = 38 * f3;
  const uint64_t f3_19 = 19 * f3, f4_19 = 19 * f4;
  const u128 r0 = u128{f0} * f0 + u128{f1_38} * f4 + u128{f2_38} * f3;
  const u128 r1 = u128{f0_2} * f1 + u128{f2_38} * f4 + u128{f3_19} * f3;
  const u128 r2 = u128{f0_2} * f2 + u128{f1} * f1 + u128{f3_38} * f4;
  const u128 r3 = u128{f0_2} * f3 + u128{f1_2} * f2 + u128{f4_19} * f4;
  const u128 r4 = u128{f0_2} * f4 + u128{f1_2} * f3 + u128{f2} * f2;
  return Reduce(r0, r1, r2, r3, r4);
}

/// f^(2^n).
Fe SquareN(Fe f, int n) {
  for (int i = 0; i < n; ++i) f = Square(f);
  return f;
}

/// f * a24, with a24 = (486662 - 2) / 4 = 121665 (RFC 7748 Sec. 5).
Fe MulA24(const Fe& f) {
  constexpr uint64_t kA24 = 121665;
  return Reduce(u128{f.v[0]} * kA24, u128{f.v[1]} * kA24,
                u128{f.v[2]} * kA24, u128{f.v[3]} * kA24,
                u128{f.v[4]} * kA24);
}

/// z^(p - 2) = z^-1 by Fermat (and 0 for z = 0), through the usual
/// addition chain: 254 squarings and 11 multiplications.
Fe Invert(const Fe& z) {
  const Fe z2 = Square(z);
  const Fe z9 = Mul(SquareN(z2, 2), z);
  const Fe z11 = Mul(z9, z2);
  const Fe z_5_0 = Mul(Square(z11), z9);            // z^(2^5 - 1)
  const Fe z_10_0 = Mul(SquareN(z_5_0, 5), z_5_0);  // z^(2^10 - 1)
  const Fe z_20_0 = Mul(SquareN(z_10_0, 10), z_10_0);
  const Fe z_40_0 = Mul(SquareN(z_20_0, 20), z_20_0);
  const Fe z_50_0 = Mul(SquareN(z_40_0, 10), z_10_0);
  const Fe z_100_0 = Mul(SquareN(z_50_0, 50), z_50_0);
  const Fe z_200_0 = Mul(SquareN(z_100_0, 100), z_100_0);
  const Fe z_250_0 = Mul(SquareN(z_200_0, 50), z_50_0);
  return Mul(SquareN(z_250_0, 5), z11);  // z^(2^255 - 21)
}

/// Swaps f and g when `swap` is 1, leaves them when it is 0, without a
/// branch on `swap`.
void ConditionalSwap(Fe& f, Fe& g, uint64_t swap) {
  const uint64_t mask = 0 - swap;
  for (int i = 0; i < 5; ++i) {
    const uint64_t x = mask & (f.v[i] ^ g.v[i]);
    f.v[i] ^= x;
    g.v[i] ^= x;
  }
}

}  // namespace

X25519Key X25519(const X25519Key& scalar, const X25519Key& u) {
  X25519Key k = scalar;
  k[0] &= 248;
  k[31] &= 127;
  k[31] |= 64;

  // RFC 7748 Sec. 5 ladder: (x2:z2) tracks k_prefix * P and (x3:z3)
  // tracks (k_prefix + 1) * P.
  const Fe x1 = FromBytes(u.data());
  Fe x2{{1, 0, 0, 0, 0}};
  Fe z2{{0, 0, 0, 0, 0}};
  Fe x3 = x1;
  Fe z3{{1, 0, 0, 0, 0}};
  uint64_t swap = 0;
  for (int t = 254; t >= 0; --t) {
    const uint64_t bit = (k[t >> 3] >> (t & 7)) & 1;
    swap ^= bit;
    ConditionalSwap(x2, x3, swap);
    ConditionalSwap(z2, z3, swap);
    swap = bit;

    const Fe a = Add(x2, z2);
    const Fe aa = Square(a);
    const Fe b = Sub(x2, z2);
    const Fe bb = Square(b);
    const Fe e = Sub(aa, bb);
    const Fe c = Add(x3, z3);
    const Fe d = Sub(x3, z3);
    const Fe da = Mul(d, a);
    const Fe cb = Mul(c, b);
    x3 = Square(Add(da, cb));
    z3 = Mul(x1, Square(Sub(da, cb)));
    x2 = Mul(aa, bb);
    z2 = Mul(e, Add(aa, MulA24(e)));
  }
  ConditionalSwap(x2, x3, swap);
  ConditionalSwap(z2, z3, swap);

  X25519Key out{};
  ToBytes(out.data(), Mul(x2, Invert(z2)));
  return out;
}

X25519Key X25519Base(const X25519Key& scalar) {
  X25519Key base{};
  base[0] = 9;
  return X25519(scalar, base);
}

}  // namespace ppc

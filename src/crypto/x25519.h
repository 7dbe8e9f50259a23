#ifndef PPC_CRYPTO_X25519_H_
#define PPC_CRYPTO_X25519_H_

#include <array>
#include <cstddef>
#include <cstdint>

namespace ppc {

/// Length in bytes of an X25519 scalar, u-coordinate, and shared secret.
inline constexpr size_t kX25519KeyLength = 32;

/// A little-endian X25519 scalar or u-coordinate (RFC 7748 Sec. 5).
using X25519Key = std::array<uint8_t, kX25519KeyLength>;

/// The X25519 function of RFC 7748, implemented from scratch: the
/// Montgomery ladder over Curve25519 with radix-2^51 field arithmetic on
/// 128-bit products.
///
/// `scalar` is clamped (bits 0-2 and 255 cleared, bit 254 set) and the top
/// bit of `u` is masked, exactly as the RFC specifies, so every 32-byte
/// input is valid. The ladder runs a fixed 255 steps with branch-free
/// conditional swaps, and the final inversion is a fixed exponentiation, so
/// the running time does not depend on the scalar.
X25519Key X25519(const X25519Key& scalar, const X25519Key& u);

/// X25519 against the base point u = 9: the public key of `scalar`.
X25519Key X25519Base(const X25519Key& scalar);

}  // namespace ppc

#endif  // PPC_CRYPTO_X25519_H_

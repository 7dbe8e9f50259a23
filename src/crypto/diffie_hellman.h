#ifndef PPC_CRYPTO_DIFFIE_HELLMAN_H_
#define PPC_CRYPTO_DIFFIE_HELLMAN_H_

#include <string>

#include "common/result.h"
#include "crypto/x25519.h"
#include "rng/prng.h"

namespace ppc {

/// Elliptic-curve Diffie-Hellman key agreement with X25519 (RFC 7748).
///
/// The paper assumes each pair of parties "shares a secret number" used to
/// seed their common pseudo-random generator. In this implementation the
/// parties establish those secrets online: each sends a 32-byte X25519
/// public value over the simulated network, computes the 32-byte shared
/// secret, and derives the seed as SHA-256(shared secret ‖ context label).
/// The third party observes only public values, so the DHJ↔DHK seed stays
/// hidden from it — the property the protocol's sign-hiding relies on.
class DiffieHellman {
 public:
  /// A private scalar and its public value, both 32 bytes.
  struct KeyPair {
    X25519Key private_key;
    X25519Key public_key;
  };

  /// Samples a key pair; `prng` supplies the 256-bit private scalar, so a
  /// seeded generator gives a reproducible key.
  static KeyPair Generate(Prng* prng);

  /// The 32-byte shared secret X25519(private_key, peer_public).
  static X25519Key SharedElement(const X25519Key& private_key,
                                 const X25519Key& peer_public);

  /// Derives a 32-byte seed from the shared secret and a context label.
  /// Both sides must pass the same label.
  static std::string DeriveSeed(const X25519Key& shared_element,
                                const std::string& label);

  /// The receive side of one exchange: checks a peer's wire-format public
  /// value, computes the shared secret and derives the seed for `label`.
  /// Fails with kProtocolViolation when `peer_public` is not exactly 32
  /// bytes, or when the shared secret is all-zero (the peer sent a
  /// low-order point; RFC 7748 Sec. 6.1).
  static Result<std::string> AgreeSeed(const X25519Key& private_key,
                                       const std::string& peer_public,
                                       const std::string& label);
};

}  // namespace ppc

#endif  // PPC_CRYPTO_DIFFIE_HELLMAN_H_

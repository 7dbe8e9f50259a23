#include "crypto/diffie_hellman.h"

#include <cstring>

#include "crypto/sha256.h"

namespace ppc {

DiffieHellman::KeyPair DiffieHellman::Generate(Prng* prng) {
  KeyPair pair{};
  for (size_t word = 0; word < kX25519KeyLength / 8; ++word) {
    const uint64_t bits = prng->Next();
    for (size_t b = 0; b < 8; ++b) {
      pair.private_key[8 * word + b] = static_cast<uint8_t>(bits >> (8 * b));
    }
  }
  pair.public_key = X25519Base(pair.private_key);
  return pair;
}

X25519Key DiffieHellman::SharedElement(const X25519Key& private_key,
                                       const X25519Key& peer_public) {
  return X25519(private_key, peer_public);
}

std::string DiffieHellman::DeriveSeed(const X25519Key& shared_element,
                                      const std::string& label) {
  Sha256 hasher;
  hasher.Update("ppc-dh-seed:");
  hasher.Update(shared_element.data(), shared_element.size());
  hasher.Update(":");
  hasher.Update(label);
  return hasher.Finish();
}

Result<std::string> DiffieHellman::AgreeSeed(const X25519Key& private_key,
                                             const std::string& peer_public,
                                             const std::string& label) {
  if (peer_public.size() != kX25519KeyLength) {
    return Status::ProtocolViolation(
        "DH public value is " + std::to_string(peer_public.size()) +
        " bytes, expected " + std::to_string(kX25519KeyLength));
  }
  X25519Key peer{};
  std::memcpy(peer.data(), peer_public.data(), peer.size());
  const X25519Key shared = SharedElement(private_key, peer);
  uint8_t any = 0;
  for (uint8_t byte : shared) any |= byte;
  if (any == 0) {
    return Status::ProtocolViolation(
        "DH shared secret is all-zero (low-order public value)");
  }
  return DeriveSeed(shared, label);
}

}  // namespace ppc

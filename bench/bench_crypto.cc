// Experiment E16 — crypto substrate throughput: the primitives every
// protocol message rides on. Establishes that the masking protocols' costs
// are dominated by data volume, not cryptography (PRNG draws are
// nanoseconds; Paillier operations are milliseconds — the E13 gap).

#include <benchmark/benchmark.h>

#include "crypto/aes128.h"
#include "crypto/det_encrypt.h"
#include "crypto/diffie_hellman.h"
#include "crypto/hmac.h"
#include "crypto/paillier.h"
#include "crypto/sha256.h"
#include "net/secure_channel.h"
#include "rng/prng.h"

namespace ppc {
namespace {

// The transport hot path: Seal/Open against a cached per-channel context
// (what ChannelTransport does for every frame after the first on a
// channel).
void BM_SecureChannelSeal(benchmark::State& state) {
  const size_t size = static_cast<size_t>(state.range(0));
  const SecureChannel::Context context(
      SecureChannel::ChannelKey(SecureChannel::kMasterKey, "A", "B"));
  std::string payload(size, 'x');
  uint64_t nonce = 0;
  for (auto _ : state) {
    auto wire = context.Seal("bench.topic", nonce++, payload);
    benchmark::DoNotOptimize(wire);
  }
  state.SetBytesProcessed(state.iterations() * static_cast<int64_t>(size));
}
BENCHMARK(BM_SecureChannelSeal)->Arg(64)->Arg(1024)->Arg(4096)->Arg(65536);

void BM_SecureChannelOpen(benchmark::State& state) {
  const size_t size = static_cast<size_t>(state.range(0));
  const SecureChannel::Context context(
      SecureChannel::ChannelKey(SecureChannel::kMasterKey, "A", "B"));
  std::string payload(size, 'x');
  std::string wire = context.Seal("bench.topic", 7, payload).TakeValue();
  for (auto _ : state) {
    auto plain = context.Open("bench.topic", wire, "A->B");
    benchmark::DoNotOptimize(plain);
  }
  state.SetBytesProcessed(state.iterations() * static_cast<int64_t>(size));
}
BENCHMARK(BM_SecureChannelOpen)->Arg(64)->Arg(1024)->Arg(4096)->Arg(65536);

// The one-shot reference path re-derives subkeys, HMAC midstates, and the
// AES key schedule every call — the fixed cost the cached context
// removes. The gap between this and BM_SecureChannelSeal is the per-frame
// derivation tax.
void BM_SecureChannelSealOneShot(benchmark::State& state) {
  const size_t size = static_cast<size_t>(state.range(0));
  const std::string channel_key =
      SecureChannel::ChannelKey(SecureChannel::kMasterKey, "A", "B");
  std::string payload(size, 'x');
  uint64_t nonce = 0;
  for (auto _ : state) {
    auto wire =
        SecureChannel::Seal(channel_key, "bench.topic", nonce++, payload);
    benchmark::DoNotOptimize(wire);
  }
  state.SetBytesProcessed(state.iterations() * static_cast<int64_t>(size));
}
BENCHMARK(BM_SecureChannelSealOneShot)->Arg(64)->Arg(4096);

void BM_Sha256(benchmark::State& state) {
  const size_t size = static_cast<size_t>(state.range(0));
  std::string data(size, 'x');
  for (auto _ : state) {
    auto digest = Sha256::Hash(data);
    benchmark::DoNotOptimize(digest);
  }
  state.SetBytesProcessed(state.iterations() * static_cast<int64_t>(size));
}
BENCHMARK(BM_Sha256)->Arg(64)->Arg(1024)->Arg(65536);

void BM_HmacSha256(benchmark::State& state) {
  const size_t size = static_cast<size_t>(state.range(0));
  std::string data(size, 'x');
  for (auto _ : state) {
    auto mac = HmacSha256::Mac("key", data);
    benchmark::DoNotOptimize(mac);
  }
  state.SetBytesProcessed(state.iterations() * static_cast<int64_t>(size));
}
BENCHMARK(BM_HmacSha256)->Arg(64)->Arg(1024)->Arg(65536);

void BM_Aes128CtrCrypt(benchmark::State& state) {
  const size_t size = static_cast<size_t>(state.range(0));
  Aes128Ctr ctr = Aes128Ctr::Create(std::string(16, 'k')).TakeValue();
  std::string data(size, 'x');
  for (auto _ : state) {
    auto out = ctr.Crypt("nonce123", data);
    benchmark::DoNotOptimize(out);
  }
  state.SetBytesProcessed(state.iterations() * static_cast<int64_t>(size));
}
BENCHMARK(BM_Aes128CtrCrypt)->Arg(64)->Arg(1024)->Arg(65536);

// The in-place keystream kernel itself (no output allocation), per
// block-cipher kernel: 0 = scalar reference, 1 = T-table, 2 = AES-NI
// (skipped when unsupported).
void BM_Aes128Ctr(benchmark::State& state) {
  const size_t size = static_cast<size_t>(state.range(0));
  const auto kernel = static_cast<Aes128::Kernel>(state.range(1));
  Aes128Ctr ctr =
      Aes128Ctr::CreateWithKernel(std::string(16, 'k'), kernel).TakeValue();
  std::string data(size, 'x');
  for (auto _ : state) {
    auto status = ctr.CryptInPlace("nonce123", data.data(), data.size());
    benchmark::DoNotOptimize(status);
  }
  const char* labels[] = {"scalar", "ttable", "aesni"};
  state.SetLabel(labels[state.range(1)]);
  state.SetBytesProcessed(state.iterations() * static_cast<int64_t>(size));
}
// The AES-NI variant is registered only on hosts that have the
// instructions, so a full bench run never reports an error case and CI
// can treat any benchmark error as a real failure.
BENCHMARK(BM_Aes128Ctr)->Apply([](benchmark::internal::Benchmark* b) {
  const int max_kernel = Aes128::AesniSupported() ? 2 : 1;
  for (int size : {64, 1024, 65536}) {
    for (int kernel = 0; kernel <= max_kernel; ++kernel) {
      b->Args({size, kernel});
    }
  }
});

void BM_HmacSha256Stream(benchmark::State& state) {
  // The frame-MAC pattern: one precomputed key, per-message streams over
  // topic ":" nonce ciphertext — no concatenation buffer.
  const size_t size = static_cast<size_t>(state.range(0));
  HmacSha256::Key key("key");
  std::string nonce(8, 'n');
  std::string ciphertext(size, 'x');
  for (auto _ : state) {
    HmacSha256::Stream stream(key);
    stream.Update("bench.topic");
    stream.Update(":", 1);
    stream.Update(nonce);
    stream.Update(ciphertext);
    auto mac = stream.Finish();
    benchmark::DoNotOptimize(mac);
  }
  state.SetBytesProcessed(state.iterations() * static_cast<int64_t>(size));
}
BENCHMARK(BM_HmacSha256Stream)->Arg(64)->Arg(1024)->Arg(4096)->Arg(65536);

void BM_PrngDraw(benchmark::State& state) {
  const PrngKind kind = static_cast<PrngKind>(state.range(0));
  auto prng = MakePrng(kind, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(prng->Next());
  }
  state.SetLabel(PrngKindToString(kind));
  state.SetBytesProcessed(state.iterations() * 8);
}
BENCHMARK(BM_PrngDraw)->DenseRange(0, 2);

void BM_PrngReset(benchmark::State& state) {
  // Reset() is on the protocol's hot path (once per matrix row).
  const PrngKind kind = static_cast<PrngKind>(state.range(0));
  auto prng = MakePrng(kind, 1);
  for (auto _ : state) {
    prng->Reset();
    benchmark::DoNotOptimize(prng->Next());
  }
  state.SetLabel(PrngKindToString(kind));
}
BENCHMARK(BM_PrngReset)->DenseRange(0, 2);

void BM_DeterministicEncrypt(benchmark::State& state) {
  DeterministicEncryptor encryptor("key");
  for (auto _ : state) {
    auto token = encryptor.Encrypt("category-value-42");
    benchmark::DoNotOptimize(token);
  }
}
BENCHMARK(BM_DeterministicEncrypt);

// The per-session key path: every party generates one X25519 key pair
// (one fixed-base scalar multiplication) and runs one shared-secret leg
// (one scalar multiplication plus the SHA-256 seed derivation) per peer.
void BM_X25519KeyGen(benchmark::State& state) {
  auto rng = MakePrng(PrngKind::kChaCha20, 1);
  for (auto _ : state) {
    auto pair = DiffieHellman::Generate(rng.get());
    benchmark::DoNotOptimize(pair);
  }
}
BENCHMARK(BM_X25519KeyGen)->Unit(benchmark::kMicrosecond);

void BM_X25519SharedSecret(benchmark::State& state) {
  auto rng = MakePrng(PrngKind::kChaCha20, 1);
  auto alice = DiffieHellman::Generate(rng.get());
  auto bob = DiffieHellman::Generate(rng.get());
  const std::string bob_public(bob.public_key.begin(), bob.public_key.end());
  for (auto _ : state) {
    auto seed = DiffieHellman::AgreeSeed(alice.private_key, bob_public,
                                         "label");
    benchmark::DoNotOptimize(seed);
  }
}
BENCHMARK(BM_X25519SharedSecret)->Unit(benchmark::kMicrosecond);

void BM_PaillierKeyGen(benchmark::State& state) {
  const size_t bits = static_cast<size_t>(state.range(0));
  uint64_t seed = 1;
  for (auto _ : state) {
    auto rng = MakePrng(PrngKind::kChaCha20, seed++);
    auto keys = GeneratePaillierKeyPair(bits, rng.get());
    benchmark::DoNotOptimize(keys);
  }
  state.counters["bits"] = static_cast<double>(bits);
}
BENCHMARK(BM_PaillierKeyGen)->Arg(512)->Arg(1024)->Unit(benchmark::kMillisecond);

void BM_PaillierEncrypt(benchmark::State& state) {
  auto keygen = MakePrng(PrngKind::kChaCha20, 1);
  auto keys = GeneratePaillierKeyPair(1024, keygen.get()).TakeValue();
  auto blinding = MakePrng(PrngKind::kChaCha20, 2);
  for (auto _ : state) {
    auto c = keys.public_key.EncryptSigned(123456, blinding.get());
    benchmark::DoNotOptimize(c);
  }
}
BENCHMARK(BM_PaillierEncrypt)->Unit(benchmark::kMillisecond);

void BM_PaillierDecrypt(benchmark::State& state) {
  auto keygen = MakePrng(PrngKind::kChaCha20, 1);
  auto keys = GeneratePaillierKeyPair(1024, keygen.get()).TakeValue();
  auto blinding = MakePrng(PrngKind::kChaCha20, 2);
  auto c = keys.public_key.EncryptSigned(123456, blinding.get());
  for (auto _ : state) {
    auto m = keys.private_key.DecryptSigned(c);
    benchmark::DoNotOptimize(m);
  }
}
BENCHMARK(BM_PaillierDecrypt)->Unit(benchmark::kMillisecond);

void BM_PaillierHomomorphicAdd(benchmark::State& state) {
  auto keygen = MakePrng(PrngKind::kChaCha20, 1);
  auto keys = GeneratePaillierKeyPair(1024, keygen.get()).TakeValue();
  auto blinding = MakePrng(PrngKind::kChaCha20, 2);
  auto a = keys.public_key.EncryptSigned(1, blinding.get());
  auto b = keys.public_key.EncryptSigned(2, blinding.get());
  for (auto _ : state) {
    auto c = keys.public_key.Add(a, b);
    benchmark::DoNotOptimize(c);
  }
}
BENCHMARK(BM_PaillierHomomorphicAdd);

}  // namespace
}  // namespace ppc

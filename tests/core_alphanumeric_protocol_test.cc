// Tests for the alphanumeric comparison protocol of paper Sec. 4.2
// (Figs. 7-10): the exact worked example of Fig. 7, CCM equivalence with
// plaintext computation, edit-distance exactness over random strings, and
// masking/hiding properties.

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <vector>

#include "core/alphanumeric_protocol.h"
#include "data/alphabet.h"
#include "data/generators.h"
#include "distance/edit_distance.h"
#include "rng/prng.h"

namespace ppc {
namespace {

/// Replays a fixed script (cycling); pins the Fig. 7 example R = "013".
class ScriptedPrng final : public Prng {
 public:
  explicit ScriptedPrng(std::vector<uint64_t> script)
      : script_(std::move(script)) {}
  uint64_t Next() override {
    uint64_t v = script_[position_ % script_.size()];
    ++position_;
    return v;
  }
  void Reset() override { position_ = 0; }
  std::string name() const override { return "scripted"; }

 private:
  std::vector<uint64_t> script_;
  size_t position_ = 0;
};

std::vector<uint8_t> Encode(const Alphabet& alphabet, const std::string& s) {
  return alphabet.Encode(s).TakeValue();
}

/// Full three-site pipeline for string columns; returns row-major
/// |responder| x |initiator| edit distances.
std::vector<uint64_t> RunProtocol(const std::vector<std::string>& initiator,
                                  const std::vector<std::string>& responder,
                                  const Alphabet& alphabet, uint64_t seed_jt) {
  auto rng_jt_initiator = MakePrng(PrngKind::kChaCha20, seed_jt);
  auto rng_jt_tp = MakePrng(PrngKind::kChaCha20, seed_jt);

  std::vector<std::vector<uint8_t>> initiator_encoded, responder_encoded;
  for (const auto& s : initiator) {
    initiator_encoded.push_back(Encode(alphabet, s));
  }
  for (const auto& s : responder) {
    responder_encoded.push_back(Encode(alphabet, s));
  }

  auto masked = AlphanumericProtocol::MaskStrings(initiator_encoded, alphabet,
                                                  rng_jt_initiator.get())
                    .TakeValue();
  auto grids = AlphanumericProtocol::BuildMaskedGrids(responder_encoded,
                                                      masked, alphabet);
  return AlphanumericProtocol::RecoverDistances(
             grids, responder.size(), initiator.size(), alphabet,
             rng_jt_tp.get())
      .TakeValue();
}

// ------------------------------------------------- Fig. 7 worked example --

TEST(AlphanumericProtocolTest, Figure7WorkedExample) {
  // Paper Fig. 7: alphabet {a,b,c,d}, S = "abc" at DHJ, T = "bd" at DHK,
  // random vector R = "013".
  Alphabet alphabet = Alphabet::Create("abcd").TakeValue();
  ScriptedPrng rng_jt_j({0, 1, 3});
  ScriptedPrng rng_jt_tp({0, 1, 3});

  // DHJ masks: S' = "acb" (a+0, b+1, c+3 mod 4).
  auto masked = AlphanumericProtocol::MaskStrings(
                    {Encode(alphabet, "abc")}, alphabet, &rng_jt_j)
                    .TakeValue();
  ASSERT_EQ(masked.size(), 1u);
  EXPECT_EQ(alphabet.Decode(masked[0]).value(), "acb");

  // DHK builds M[q][p] = S'[p] - T[q] mod 4: rows "dba" (q=0, t='b') and
  // "bdc" (q=1, t='d').
  auto grids = AlphanumericProtocol::BuildMaskedGrids(
      {Encode(alphabet, "bd")}, masked, alphabet);
  ASSERT_EQ(grids.size(), 1u);
  ASSERT_EQ(grids[0].responder_length, 2u);
  ASSERT_EQ(grids[0].initiator_length, 3u);
  std::vector<uint8_t> row0(grids[0].cells.begin(), grids[0].cells.begin() + 3);
  std::vector<uint8_t> row1(grids[0].cells.begin() + 3, grids[0].cells.end());
  EXPECT_EQ(alphabet.Decode(row0).value(), "dba");
  EXPECT_EQ(alphabet.Decode(row1).value(), "bdc");

  // TP decodes the CCM. Paper: "CCM[0][1] = a = 0, which implies s[1] =
  // t[0], as is the case" (both are 'b').
  auto ccm =
      AlphanumericProtocol::DecodeCcm(grids[0], alphabet, &rng_jt_tp);
  EXPECT_EQ(ccm.at(0, 1), 0);
  // Every other cell differs.
  EXPECT_EQ(ccm.at(0, 0), 1);
  EXPECT_EQ(ccm.at(0, 2), 1);
  EXPECT_EQ(ccm.at(1, 0), 1);
  EXPECT_EQ(ccm.at(1, 1), 1);
  EXPECT_EQ(ccm.at(1, 2), 1);

  // The decoded CCM equals the plaintext CCM of (T, S), and edit distance
  // follows: d("abc", "bd") = 2.
  EXPECT_TRUE(ccm == CharComparisonMatrix::FromStrings("bd", "abc"));
  EXPECT_EQ(EditDistance::ComputeFromCcm(ccm), 2u);
}

// --------------------------------------------------------------- Equality --

TEST(AlphanumericProtocolTest, DecodedCcmEqualsPlaintextCcm) {
  Alphabet dna = Alphabet::Dna();
  auto prng = MakePrng(PrngKind::kXoshiro256, 1);
  for (int trial = 0; trial < 40; ++trial) {
    std::string s = Generators::RandomString(1 + prng->NextBounded(12), dna,
                                             prng.get());
    std::string t = Generators::RandomString(1 + prng->NextBounded(12), dna,
                                             prng.get());
    auto rng_jt_j = MakePrng(PrngKind::kChaCha20, 100 + trial);
    auto rng_jt_tp = MakePrng(PrngKind::kChaCha20, 100 + trial);
    auto masked = AlphanumericProtocol::MaskStrings({Encode(dna, s)}, dna,
                                                    rng_jt_j.get())
                      .TakeValue();
    auto grids =
        AlphanumericProtocol::BuildMaskedGrids({Encode(dna, t)}, masked, dna);
    auto ccm = AlphanumericProtocol::DecodeCcm(grids[0], dna, rng_jt_tp.get());
    EXPECT_TRUE(ccm == CharComparisonMatrix::FromStrings(t, s))
        << "s=" << s << " t=" << t;
  }
}

TEST(AlphanumericProtocolTest, DistancesMatchPlaintextEditDistance) {
  Alphabet dna = Alphabet::Dna();
  auto prng = MakePrng(PrngKind::kXoshiro256, 2);
  std::vector<std::string> initiator, responder;
  for (int i = 0; i < 6; ++i) {
    initiator.push_back(
        Generators::RandomString(3 + prng->NextBounded(10), dna, prng.get()));
  }
  for (int i = 0; i < 5; ++i) {
    responder.push_back(
        Generators::RandomString(3 + prng->NextBounded(10), dna, prng.get()));
  }
  auto distances = RunProtocol(initiator, responder, dna, 77);
  ASSERT_EQ(distances.size(), initiator.size() * responder.size());
  for (size_t m = 0; m < responder.size(); ++m) {
    for (size_t n = 0; n < initiator.size(); ++n) {
      EXPECT_EQ(distances[m * initiator.size() + n],
                EditDistance::Compute(initiator[n], responder[m]))
          << initiator[n] << " vs " << responder[m];
    }
  }
}

TEST(AlphanumericProtocolTest, WorksOverLargerAlphabets) {
  Alphabet lowercase = Alphabet::LowercaseAscii();
  auto distances =
      RunProtocol({"kitten", "flaw"}, {"sitting", "lawn"}, lowercase, 5);
  // Row-major responder x initiator.
  EXPECT_EQ(distances[0], 3u);  // sitting vs kitten.
  EXPECT_EQ(distances[1], 7u);  // sitting vs flaw.
  EXPECT_EQ(distances[2], 5u);  // lawn vs kitten.
  EXPECT_EQ(distances[3], 2u);  // lawn vs flaw.
}

TEST(AlphanumericProtocolTest, VaryingLengthsIncludingEmpty) {
  Alphabet dna = Alphabet::Dna();
  auto distances = RunProtocol({"", "ACGT"}, {"AC", ""}, dna, 6);
  EXPECT_EQ(distances[0], 2u);  // AC vs "".
  EXPECT_EQ(distances[1], 2u);  // AC vs ACGT.
  EXPECT_EQ(distances[2], 0u);  // "" vs "".
  EXPECT_EQ(distances[3], 4u);  // "" vs ACGT.
}

// ----------------------------------------------------------------- Hiding --

TEST(AlphanumericProtocolTest, MaskedStringDiffersFromPlaintext) {
  Alphabet dna = Alphabet::Dna();
  auto rng_jt = MakePrng(PrngKind::kChaCha20, 9);
  std::string s(64, 'A');
  auto masked = AlphanumericProtocol::MaskStrings({Encode(dna, s)}, dna,
                                                  rng_jt.get())
                    .TakeValue();
  // With 64 uniformly masked symbols, the chance all stay 'A' is 4^-64.
  EXPECT_NE(dna.Decode(masked[0]).TakeValue(), s);
}

TEST(AlphanumericProtocolTest, MaskedSymbolsCoverAlphabet) {
  // Masking a constant string yields symbols spread over the alphabet:
  // the receiving holder sees "practically a random vector".
  Alphabet dna = Alphabet::Dna();
  auto rng_jt = MakePrng(PrngKind::kChaCha20, 10);
  std::string s(512, 'C');
  auto masked = AlphanumericProtocol::MaskStrings({Encode(dna, s)}, dna,
                                                  rng_jt.get())
                    .TakeValue();
  std::vector<size_t> counts(4, 0);
  for (uint8_t symbol : masked[0]) counts[symbol] += 1;
  for (size_t count : counts) {
    EXPECT_GT(count, 80u);  // Expected 128 each; loose uniformity bound.
  }
}

TEST(AlphanumericProtocolTest, LengthIsTheOnlyLeak) {
  // The protocol intentionally reveals string lengths (grid dimensions);
  // the masked payload must carry exactly length-many symbols and nothing
  // correlated with content beyond that.
  Alphabet dna = Alphabet::Dna();
  auto rng_a = MakePrng(PrngKind::kChaCha20, 11);
  auto rng_b = MakePrng(PrngKind::kChaCha20, 11);
  auto masked_a = AlphanumericProtocol::MaskStrings({Encode(dna, "AAAA")},
                                                    dna, rng_a.get())
                      .TakeValue();
  auto masked_b = AlphanumericProtocol::MaskStrings({Encode(dna, "GTCA")},
                                                    dna, rng_b.get())
                      .TakeValue();
  EXPECT_EQ(masked_a[0].size(), 4u);
  EXPECT_EQ(masked_b[0].size(), 4u);
}

// ------------------------------------------------------- Stream alignment --

TEST(AlphanumericProtocolTest, EveryStringMaskedWithSamePrefix) {
  // Fig. 8 resets rng_jt per string: masking the same string twice in one
  // column yields the same masked bytes.
  Alphabet dna = Alphabet::Dna();
  auto rng_jt = MakePrng(PrngKind::kChaCha20, 12);
  auto masked = AlphanumericProtocol::MaskStrings(
                    {Encode(dna, "ACGT"), Encode(dna, "ACGT")}, dna,
                    rng_jt.get())
                    .TakeValue();
  EXPECT_EQ(masked[0], masked[1]);
}

TEST(AlphanumericProtocolTest, MultiStringColumnsStayAligned) {
  // Several strings of different lengths: decoding must stay correct for
  // every (pair), which exercises the per-row reset at the TP.
  Alphabet dna = Alphabet::Dna();
  std::vector<std::string> initiator{"A", "ACGTACGT", "GG"};
  std::vector<std::string> responder{"ACG", "T", "GATTACA", "CC"};
  auto distances = RunProtocol(initiator, responder, dna, 13);
  for (size_t m = 0; m < responder.size(); ++m) {
    for (size_t n = 0; n < initiator.size(); ++n) {
      EXPECT_EQ(distances[m * initiator.size() + n],
                EditDistance::Compute(initiator[n], responder[m]));
    }
  }
}

// ------------------------------------------------------------ Edge cases --

TEST(AlphanumericProtocolTest, RejectsOutOfAlphabetSymbols) {
  Alphabet dna = Alphabet::Dna();
  auto rng_jt = MakePrng(PrngKind::kChaCha20, 14);
  std::vector<std::vector<uint8_t>> bad{{0, 9}};
  EXPECT_FALSE(
      AlphanumericProtocol::MaskStrings(bad, dna, rng_jt.get()).ok());
}

TEST(AlphanumericProtocolTest, RecoverRejectsGridCountMismatch) {
  Alphabet dna = Alphabet::Dna();
  auto rng_jt = MakePrng(PrngKind::kChaCha20, 15);
  std::vector<AlphanumericProtocol::MaskedGrid> grids(2);
  EXPECT_EQ(AlphanumericProtocol::RecoverDistances(grids, 3, 3, dna,
                                                   rng_jt.get())
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace ppc

#include "core/data_holder.h"

#include <algorithm>

#include "common/serde.h"
#include "core/alphanumeric_protocol.h"
#include "core/categorical_protocol.h"
#include "core/numeric_protocol.h"
#include "core/taxonomy_protocol.h"
#include "core/topics.h"
#include "crypto/det_encrypt.h"
#include "crypto/hmac.h"
#include "distance/comparators.h"

namespace ppc {

namespace {

/// Symmetric pair label so both endpoints derive the same seed.
std::string PairLabel(const std::string& a, const std::string& b) {
  return a < b ? "pair:" + a + ":" + b : "pair:" + b + ":" + a;
}

std::string NumericLabel(size_t column, const std::string& initiator,
                         const std::string& responder) {
  return "num:" + std::to_string(column) + ":" + initiator + ":" + responder;
}

std::string AlnumLabel(size_t column, const std::string& initiator,
                       const std::string& responder) {
  return "alnum:" + std::to_string(column) + ":" + initiator + ":" +
         responder;
}

std::string BytesFromSymbols(const std::vector<uint8_t>& symbols) {
  return std::string(symbols.begin(), symbols.end());
}

std::vector<uint8_t> SymbolsFromBytes(const std::string& bytes) {
  return std::vector<uint8_t>(bytes.begin(), bytes.end());
}

// Stash slots for payloads staged between split protocol steps. A column
// has exactly one attribute type, so numeric and alphanumeric stages can
// share the inbound/outbound namespaces.
std::string LocalMatrixSlot(size_t column) {
  return "local-matrix:" + std::to_string(column);
}

std::string InboundSlot(size_t column, const std::string& initiator) {
  return "inbound:" + std::to_string(column) + ":" + initiator;
}

std::string OutboundSlot(size_t column, const std::string& initiator) {
  return "outbound:" + std::to_string(column) + ":" + initiator;
}

// Qualifies a stash slot or PRNG label with a tile's first row. Slots keep
// concurrent tile stages of one attribute apart; labels give each per-pair
// tile an independent mask stream (any consistent stream recovers the same
// distances, so tiling never changes the final matrices).
std::string TileSuffix(uint64_t row_begin) {
  return ":t" + std::to_string(row_begin);
}

}  // namespace

DataHolder::DataHolder(std::string name, Network* network,
                       ProtocolConfig config, uint64_t entropy_seed)
    : name_(std::move(name)),
      network_(network),
      config_(std::move(config)),
      real_codec_(
          FixedPointCodec::Create(config_.real_decimal_digits).TakeValue()),
      entropy_(MakePrng(PrngKind::kChaCha20, entropy_seed)) {
  // Row kernels read the thread count directly, so "auto" must already be
  // a count here (a party run by PartyRunner never passes through
  // ClusteringSession::Run).
  config_.num_threads = ResolveNumThreads(config_.num_threads);
  dh_keys_ = DiffieHellman::Generate(entropy_.get());
}

Status DataHolder::SetData(DataMatrix data) {
  data_ = std::move(data);
  return Status::OK();
}

Status DataHolder::SendHello(const std::string& third_party) {
  tp_name_ = third_party;
  ByteWriter writer;
  writer.WriteU64(data_.NumRows());
  return network_->Send(name_, third_party, topics::kHello,
                        writer.TakeBytes());
}

Status DataHolder::ReceiveRoster(const std::string& third_party) {
  PPC_ASSIGN_OR_RETURN(Message msg, Recv(third_party,
                                                      topics::kRoster));
  ByteReader reader(msg.payload);
  PPC_ASSIGN_OR_RETURN(uint32_t count, reader.ReadU32());
  roster_.clear();
  for (uint32_t i = 0; i < count; ++i) {
    PPC_ASSIGN_OR_RETURN(std::string party, reader.ReadBytes());
    PPC_ASSIGN_OR_RETURN(uint64_t objects, reader.ReadU64());
    roster_.emplace_back(std::move(party), objects);
  }
  return reader.ExpectEnd();
}

Result<uint64_t> DataHolder::RosterCount(const std::string& party) const {
  for (const auto& [name, count] : roster_) {
    if (name == party) return count;
  }
  return Status::NotFound("party '" + party + "' not in roster");
}

Status DataHolder::SendDhPublic(const std::string& peer) {
  ByteWriter writer;
  writer.WriteBytes(std::string(dh_keys_.public_key.begin(),
                                dh_keys_.public_key.end()));
  return network_->Send(name_, peer, topics::kDhPublic, writer.TakeBytes());
}

Status DataHolder::ReceiveDhPublicAndDerive(const std::string& peer) {
  PPC_ASSIGN_OR_RETURN(Message msg,
                       Recv(peer, topics::kDhPublic));
  ByteReader reader(msg.payload);
  PPC_ASSIGN_OR_RETURN(std::string public_bytes, reader.ReadBytes());
  PPC_RETURN_IF_ERROR(reader.ExpectEnd());
  Result<std::string> seed = DiffieHellman::AgreeSeed(
      dh_keys_.private_key, public_bytes, PairLabel(name_, peer));
  if (!seed.ok()) {
    return Status(seed.status().code(),
                  seed.status().message() +
                      ChannelContext(msg.session, msg.from, msg.to, msg.topic));
  }
  pair_seeds_[peer] = std::move(seed).TakeValue();
  return Status::OK();
}

Status DataHolder::DistributeCategoricalKey(
    const std::vector<std::string>& peers) {
  // 32 random bytes from local entropy.
  std::string key;
  for (int i = 0; i < 4; ++i) {
    uint64_t word = entropy_->Next();
    for (int b = 0; b < 8; ++b) {
      key.push_back(static_cast<char>((word >> (8 * b)) & 0xff));
    }
  }
  categorical_key_ = key;
  for (const std::string& peer : peers) {
    if (peer == name_) continue;
    ByteWriter writer;
    writer.WriteBytes(key);
    PPC_RETURN_IF_ERROR(network_->Send(name_, peer, topics::kCategoricalKey,
                                       writer.TakeBytes()));
  }
  return Status::OK();
}

Status DataHolder::ReceiveCategoricalKey(const std::string& from) {
  PPC_ASSIGN_OR_RETURN(
      Message msg, Recv(from, topics::kCategoricalKey));
  ByteReader reader(msg.payload);
  PPC_ASSIGN_OR_RETURN(categorical_key_, reader.ReadBytes());
  return reader.ExpectEnd();
}

Result<std::vector<int64_t>> DataHolder::EncodedNumericColumn(
    size_t column) const {
  const AttributeType type = data_.schema().attribute(column).type;
  if (type == AttributeType::kInteger) {
    return data_.IntegerColumn(column);
  }
  if (type == AttributeType::kReal) {
    PPC_ASSIGN_OR_RETURN(std::vector<double> raw, data_.RealColumn(column));
    std::vector<int64_t> encoded;
    encoded.reserve(raw.size());
    for (double v : raw) {
      PPC_ASSIGN_OR_RETURN(int64_t e, real_codec_.Encode(v));
      encoded.push_back(e);
    }
    return encoded;
  }
  return Status::InvalidArgument("attribute " + std::to_string(column) +
                                 " is not numeric");
}

Result<std::vector<std::vector<uint8_t>>> DataHolder::EncodedStringColumn(
    size_t column) const {
  if (data_.schema().attribute(column).type != AttributeType::kAlphanumeric) {
    return Status::InvalidArgument("attribute " + std::to_string(column) +
                                   " is not alphanumeric");
  }
  PPC_ASSIGN_OR_RETURN(std::vector<std::string> strings,
                       data_.StringColumn(column));
  std::vector<std::vector<uint8_t>> encoded;
  encoded.reserve(strings.size());
  for (const std::string& s : strings) {
    PPC_ASSIGN_OR_RETURN(std::vector<uint8_t> e, config_.alphabet.Encode(s));
    encoded.push_back(std::move(e));
  }
  return encoded;
}

Result<std::unique_ptr<Prng>> DataHolder::PairPrng(
    const std::string& peer, const std::string& label) const {
  auto it = pair_seeds_.find(peer);
  if (it == pair_seeds_.end()) {
    return Status::FailedPrecondition("no shared seed with '" + peer +
                                      "' (run key agreement first)");
  }
  std::string key = HmacSha256::DeriveKey(it->second, label);
  return MakePrngFromKey(key);
}

Result<std::string> DataHolder::TakePending(const std::string& slot) {
  MutexLock lock(pending_mutex_);
  auto it = pending_.find(slot);
  if (it == pending_.end()) {
    return Status::FailedPrecondition("no staged payload for '" + slot +
                                      "' (prior protocol stage missing)");
  }
  std::string payload = std::move(it->second);
  pending_.erase(it);
  return payload;
}

void DataHolder::StashPending(const std::string& slot, std::string payload) {
  MutexLock lock(pending_mutex_);
  pending_[slot] = std::move(payload);
}

void DataHolder::StashPendingShared(const std::string& slot,
                                    std::string payload, uint32_t uses) {
  MutexLock lock(pending_mutex_);
  pending_shared_[slot] = {std::move(payload), uses};
}

Result<std::string> DataHolder::ConsumePendingShared(const std::string& slot) {
  MutexLock lock(pending_mutex_);
  auto it = pending_shared_.find(slot);
  if (it == pending_shared_.end()) {
    return Status::FailedPrecondition("no shared staged payload for '" + slot +
                                      "' (prior protocol stage missing)");
  }
  if (it->second.second <= 1) {
    std::string payload = std::move(it->second.first);
    pending_shared_.erase(it);
    return payload;
  }
  --it->second.second;
  return it->second.first;
}

Status DataHolder::BuildLocalMatrix(size_t column) {
  if (column >= data_.NumColumns()) {
    return Status::InvalidArgument("attribute " + std::to_string(column) +
                                   " out of range");
  }
  if (data_.schema().attribute(column).type == AttributeType::kCategorical) {
    return Status::InvalidArgument(
        "categorical attributes have no local matrices");
  }
  PPC_ASSIGN_OR_RETURN(
      DissimilarityMatrix local,
      LocalDissimilarity::Build(data_, column, real_codec_,
                                config_.num_threads));
  ByteWriter writer;
  writer.Reserve(4 + 8 + 4 + 8 * local.packed_cells().size());
  writer.WriteU32(static_cast<uint32_t>(column));
  writer.WriteU64(local.num_objects());
  writer.WriteF64Vector(local.packed_cells());
  StashPending(LocalMatrixSlot(column), writer.TakeBytes());
  return Status::OK();
}

Status DataHolder::SendLocalMatrix(size_t column,
                                   const std::string& third_party) {
  PPC_ASSIGN_OR_RETURN(std::string payload,
                       TakePending(LocalMatrixSlot(column)));
  return network_->Send(name_, third_party, topics::kLocalMatrix,
                        std::move(payload));
}

Status DataHolder::SendLocalMatrices(const std::string& third_party) {
  for (size_t c = 0; c < data_.NumColumns(); ++c) {
    AttributeType type = data_.schema().attribute(c).type;
    if (type == AttributeType::kCategorical) continue;  // Sec. 4.3 path.
    PPC_RETURN_IF_ERROR(BuildLocalMatrix(c));
    PPC_RETURN_IF_ERROR(SendLocalMatrix(c, third_party));
  }
  return Status::OK();
}

Status DataHolder::RunNumericInitiator(size_t column,
                                       const std::string& responder) {
  PPC_ASSIGN_OR_RETURN(std::vector<int64_t> values,
                       EncodedNumericColumn(column));
  const std::string label = NumericLabel(column, name_, responder);
  PPC_ASSIGN_OR_RETURN(std::unique_ptr<Prng> rng_jk,
                       PairPrng(responder, label));
  PPC_ASSIGN_OR_RETURN(std::unique_ptr<Prng> rng_jt,
                       PairPrng(tp_name_, label));

  std::vector<uint64_t> masked;
  uint64_t declared_rows = 0;
  if (config_.masking_mode == MaskingMode::kBatch) {
    masked = NumericProtocol::MaskVector(values, rng_jt.get(), rng_jk.get());
  } else {
    PPC_ASSIGN_OR_RETURN(uint64_t responder_count, RosterCount(responder));
    declared_rows = responder_count;
    masked = NumericProtocol::MaskMatrixPerPair(values, responder_count,
                                                rng_jt.get(), rng_jk.get());
  }
  ByteWriter writer;
  writer.Reserve(4 + 1 + 8 + 4 + 8 * masked.size());
  writer.WriteU32(static_cast<uint32_t>(column));
  writer.WriteU8(static_cast<uint8_t>(config_.masking_mode));
  writer.WriteU64(declared_rows);
  writer.WriteU64Vector(masked);
  return network_->Send(name_, responder, topics::kNumericMasked,
                        writer.TakeBytes());
}

Status DataHolder::ReceiveNumericMasked(size_t column,
                                        const std::string& initiator) {
  PPC_ASSIGN_OR_RETURN(
      Message msg,
      Recv(initiator, topics::kNumericMasked));
  StashPending(InboundSlot(column, initiator), std::move(msg.payload));
  return Status::OK();
}

Status DataHolder::BuildNumericComparison(size_t column,
                                          const std::string& initiator) {
  PPC_ASSIGN_OR_RETURN(std::string inbound,
                       TakePending(InboundSlot(column, initiator)));
  ByteReader reader(inbound);
  PPC_ASSIGN_OR_RETURN(uint32_t attr, reader.ReadU32());
  if (attr != column) {
    return Status::ProtocolViolation("initiator sent attribute " +
                                     std::to_string(attr) + ", expected " +
                                     std::to_string(column));
  }
  PPC_ASSIGN_OR_RETURN(uint8_t mode_tag, reader.ReadU8());
  PPC_ASSIGN_OR_RETURN(uint64_t declared_rows, reader.ReadU64());
  PPC_ASSIGN_OR_RETURN(std::vector<uint64_t> masked, reader.ReadU64Vector());
  PPC_RETURN_IF_ERROR(reader.ExpectEnd());

  PPC_ASSIGN_OR_RETURN(std::vector<int64_t> own_values,
                       EncodedNumericColumn(column));
  const std::string label = NumericLabel(column, initiator, name_);
  PPC_ASSIGN_OR_RETURN(std::unique_ptr<Prng> rng_jk,
                       PairPrng(initiator, label));

  std::vector<uint64_t> comparison;
  uint64_t cols = 0;
  if (mode_tag == static_cast<uint8_t>(MaskingMode::kBatch)) {
    cols = masked.size();
    comparison = NumericProtocol::BuildComparisonMatrix(
        own_values, masked, rng_jk.get(), config_.num_threads);
  } else if (mode_tag == static_cast<uint8_t>(MaskingMode::kPerPair)) {
    if (declared_rows != own_values.size()) {
      return Status::ProtocolViolation(
          "per-pair mask matrix sized for " + std::to_string(declared_rows) +
          " responder objects, have " + std::to_string(own_values.size()));
    }
    if (own_values.empty() || masked.size() % own_values.size() != 0) {
      return Status::ProtocolViolation("per-pair mask matrix not rectangular");
    }
    cols = masked.size() / own_values.size();
    PPC_ASSIGN_OR_RETURN(comparison,
                         NumericProtocol::AddResponderPerPair(
                             own_values, cols, masked, rng_jk.get()));
  } else {
    return Status::ProtocolViolation("unknown masking mode tag");
  }

  ByteWriter writer;
  writer.Reserve(4 + 4 + initiator.size() + 1 + 8 + 8 + 4 +
                 8 * comparison.size());
  writer.WriteU32(static_cast<uint32_t>(column));
  writer.WriteBytes(initiator);
  writer.WriteU8(mode_tag);
  writer.WriteU64(own_values.size());
  writer.WriteU64(cols);
  writer.WriteU64Vector(comparison);
  StashPending(OutboundSlot(column, initiator), writer.TakeBytes());
  return Status::OK();
}

Status DataHolder::SendNumericComparison(size_t column,
                                         const std::string& initiator,
                                         const std::string& third_party) {
  PPC_ASSIGN_OR_RETURN(std::string payload,
                       TakePending(OutboundSlot(column, initiator)));
  return network_->Send(name_, third_party, topics::kNumericComparison,
                        std::move(payload));
}

Status DataHolder::RunNumericResponder(size_t column,
                                       const std::string& initiator,
                                       const std::string& third_party) {
  PPC_RETURN_IF_ERROR(ReceiveNumericMasked(column, initiator));
  PPC_RETURN_IF_ERROR(BuildNumericComparison(column, initiator));
  return SendNumericComparison(column, initiator, third_party);
}

Status DataHolder::RunAlphanumericInitiator(size_t column,
                                            const std::string& responder) {
  PPC_ASSIGN_OR_RETURN(std::vector<std::vector<uint8_t>> strings,
                       EncodedStringColumn(column));
  const std::string label = AlnumLabel(column, name_, responder);
  PPC_ASSIGN_OR_RETURN(std::unique_ptr<Prng> rng_jt,
                       PairPrng(tp_name_, label));
  PPC_ASSIGN_OR_RETURN(
      std::vector<std::vector<uint8_t>> masked,
      AlphanumericProtocol::MaskStrings(strings, config_.alphabet,
                                        rng_jt.get()));
  ByteWriter writer;
  writer.WriteU32(static_cast<uint32_t>(column));
  std::vector<std::string> as_bytes;
  as_bytes.reserve(masked.size());
  for (const auto& s : masked) as_bytes.push_back(BytesFromSymbols(s));
  writer.WriteBytesVector(as_bytes);
  return network_->Send(name_, responder, topics::kAlnumMasked,
                        writer.TakeBytes());
}

Status DataHolder::ReceiveAlphanumericMasked(size_t column,
                                             const std::string& initiator) {
  PPC_ASSIGN_OR_RETURN(
      Message msg, Recv(initiator, topics::kAlnumMasked));
  StashPending(InboundSlot(column, initiator), std::move(msg.payload));
  return Status::OK();
}

Status DataHolder::BuildAlphanumericGrids(size_t column,
                                          const std::string& initiator) {
  PPC_ASSIGN_OR_RETURN(std::string inbound,
                       TakePending(InboundSlot(column, initiator)));
  ByteReader reader(inbound);
  PPC_ASSIGN_OR_RETURN(uint32_t attr, reader.ReadU32());
  if (attr != column) {
    return Status::ProtocolViolation("initiator sent attribute " +
                                     std::to_string(attr) + ", expected " +
                                     std::to_string(column));
  }
  PPC_ASSIGN_OR_RETURN(std::vector<std::string> masked_bytes,
                       reader.ReadBytesVector());
  PPC_RETURN_IF_ERROR(reader.ExpectEnd());

  std::vector<std::vector<uint8_t>> masked;
  masked.reserve(masked_bytes.size());
  for (const std::string& bytes : masked_bytes) {
    masked.push_back(SymbolsFromBytes(bytes));
  }
  PPC_ASSIGN_OR_RETURN(std::vector<std::vector<uint8_t>> own,
                       EncodedStringColumn(column));

  std::vector<AlphanumericProtocol::MaskedGrid> grids =
      AlphanumericProtocol::BuildMaskedGrids(own, masked, config_.alphabet,
                                             config_.num_threads);

  size_t grid_bytes = 0;
  for (const auto& grid : grids) grid_bytes += 4 + 4 + 4 + grid.cells.size();
  ByteWriter writer;
  writer.Reserve(4 + 4 + initiator.size() + 8 + 8 + grid_bytes);
  writer.WriteU32(static_cast<uint32_t>(column));
  writer.WriteBytes(initiator);
  writer.WriteU64(own.size());
  writer.WriteU64(masked.size());
  for (const auto& grid : grids) {
    writer.WriteU32(static_cast<uint32_t>(grid.responder_length));
    writer.WriteU32(static_cast<uint32_t>(grid.initiator_length));
    writer.WriteBytes(grid.cells.data(), grid.cells.size());
  }
  StashPending(OutboundSlot(column, initiator), writer.TakeBytes());
  return Status::OK();
}

Status DataHolder::SendAlphanumericGrids(size_t column,
                                         const std::string& initiator,
                                         const std::string& third_party) {
  PPC_ASSIGN_OR_RETURN(std::string payload,
                       TakePending(OutboundSlot(column, initiator)));
  return network_->Send(name_, third_party, topics::kAlnumGrids,
                        std::move(payload));
}

Status DataHolder::RunAlphanumericResponder(size_t column,
                                            const std::string& initiator,
                                            const std::string& third_party) {
  PPC_RETURN_IF_ERROR(ReceiveAlphanumericMasked(column, initiator));
  PPC_RETURN_IF_ERROR(BuildAlphanumericGrids(column, initiator));
  return SendAlphanumericGrids(column, initiator, third_party);
}

// -- Tiled protocol steps ------------------------------------------------------

Status DataHolder::BuildLocalMatrixTile(size_t column, uint64_t row_begin,
                                        uint64_t row_end) {
  if (column >= data_.NumColumns()) {
    return Status::InvalidArgument("attribute " + std::to_string(column) +
                                   " out of range");
  }
  if (data_.schema().attribute(column).type == AttributeType::kCategorical) {
    return Status::InvalidArgument(
        "categorical attributes have no local matrices");
  }
  PPC_ASSIGN_OR_RETURN(
      std::vector<double> cells,
      LocalDissimilarity::BuildRows(data_, column, real_codec_, row_begin,
                                    row_end, config_.num_threads));
  ByteWriter writer;
  writer.Reserve(4 + 8 * 3 + 4 + 8 * cells.size());
  writer.WriteU32(static_cast<uint32_t>(column));
  writer.WriteU64(data_.NumRows());
  writer.WriteU64(row_begin);
  writer.WriteU64(row_end);
  writer.WriteF64Vector(cells);
  StashPending(LocalMatrixSlot(column) + TileSuffix(row_begin),
               writer.TakeBytes());
  return Status::OK();
}

Status DataHolder::SendLocalMatrixTile(size_t column, uint64_t row_begin,
                                       const std::string& third_party) {
  PPC_ASSIGN_OR_RETURN(
      std::string payload,
      TakePending(LocalMatrixSlot(column) + TileSuffix(row_begin)));
  return network_->Send(name_, third_party, topics::kLocalMatrix,
                        std::move(payload));
}

Status DataHolder::RunNumericInitiatorTile(size_t column,
                                           const std::string& responder,
                                           uint64_t row_begin,
                                           uint64_t row_end) {
  if (config_.masking_mode != MaskingMode::kPerPair) {
    return Status::FailedPrecondition(
        "tiled initiator steps exist only in per-pair masking mode");
  }
  if (row_begin > row_end) {
    return Status::InvalidArgument("inverted tile row range");
  }
  PPC_ASSIGN_OR_RETURN(std::vector<int64_t> values,
                       EncodedNumericColumn(column));
  const std::string label =
      NumericLabel(column, name_, responder) + TileSuffix(row_begin);
  PPC_ASSIGN_OR_RETURN(std::unique_ptr<Prng> rng_jk,
                       PairPrng(responder, label));
  PPC_ASSIGN_OR_RETURN(std::unique_ptr<Prng> rng_jt,
                       PairPrng(tp_name_, label));
  std::vector<uint64_t> masked = NumericProtocol::MaskMatrixPerPair(
      values, row_end - row_begin, rng_jt.get(), rng_jk.get());
  ByteWriter writer;
  writer.Reserve(4 + 1 + 8 + 8 + 4 + 8 * masked.size());
  writer.WriteU32(static_cast<uint32_t>(column));
  writer.WriteU8(static_cast<uint8_t>(config_.masking_mode));
  writer.WriteU64(row_begin);
  writer.WriteU64(row_end);
  writer.WriteU64Vector(masked);
  return network_->Send(name_, responder, topics::kNumericMasked,
                        writer.TakeBytes());
}

Status DataHolder::ReceiveNumericMaskedTile(size_t column,
                                            const std::string& initiator,
                                            uint64_t row_begin) {
  PPC_ASSIGN_OR_RETURN(
      Message msg,
      Recv(initiator, topics::kNumericMasked));
  StashPending(InboundSlot(column, initiator) + TileSuffix(row_begin),
               std::move(msg.payload));
  return Status::OK();
}

Status DataHolder::ReceiveNumericMaskedShared(size_t column,
                                              const std::string& initiator,
                                              uint32_t uses) {
  PPC_ASSIGN_OR_RETURN(
      Message msg,
      Recv(initiator, topics::kNumericMasked));
  StashPendingShared(InboundSlot(column, initiator), std::move(msg.payload),
                     uses);
  return Status::OK();
}

Status DataHolder::ReceiveAlphanumericMaskedShared(size_t column,
                                                   const std::string& initiator,
                                                   uint32_t uses) {
  PPC_ASSIGN_OR_RETURN(
      Message msg, Recv(initiator, topics::kAlnumMasked));
  StashPendingShared(InboundSlot(column, initiator), std::move(msg.payload),
                     uses);
  return Status::OK();
}

Status DataHolder::BuildNumericComparisonTile(size_t column,
                                              const std::string& initiator,
                                              uint64_t row_begin,
                                              uint64_t row_end) {
  PPC_ASSIGN_OR_RETURN(std::vector<int64_t> own_values,
                       EncodedNumericColumn(column));
  if (row_begin > row_end || row_end > own_values.size()) {
    return Status::InvalidArgument("tile row range [" +
                                   std::to_string(row_begin) + ", " +
                                   std::to_string(row_end) +
                                   ") out of range for " +
                                   std::to_string(own_values.size()) +
                                   " objects");
  }
  const std::vector<int64_t> own_slice(own_values.begin() + row_begin,
                                       own_values.begin() + row_end);
  const uint64_t rows = row_end - row_begin;

  std::vector<uint64_t> comparison;
  uint64_t cols = 0;
  if (config_.masking_mode == MaskingMode::kBatch) {
    // Every tile reads the same whole masked vector (the shared stash) and
    // a fresh generator — every comparison row consumes the identical sign
    // prefix, so a row slice is bit-identical to the same rows of the
    // whole-matrix build.
    PPC_ASSIGN_OR_RETURN(std::string inbound,
                         ConsumePendingShared(InboundSlot(column, initiator)));
    ByteReader reader(inbound);
    PPC_ASSIGN_OR_RETURN(uint32_t attr, reader.ReadU32());
    if (attr != column) {
      return Status::ProtocolViolation("initiator sent attribute " +
                                       std::to_string(attr) + ", expected " +
                                       std::to_string(column));
    }
    PPC_ASSIGN_OR_RETURN(uint8_t mode_tag, reader.ReadU8());
    PPC_ASSIGN_OR_RETURN(uint64_t declared_rows, reader.ReadU64());
    (void)declared_rows;
    PPC_ASSIGN_OR_RETURN(std::vector<uint64_t> masked, reader.ReadU64Vector());
    PPC_RETURN_IF_ERROR(reader.ExpectEnd());
    if (mode_tag != static_cast<uint8_t>(MaskingMode::kBatch)) {
      return Status::ProtocolViolation(
          "initiator masking mode disagrees with this site's configuration");
    }
    const std::string label = NumericLabel(column, initiator, name_);
    PPC_ASSIGN_OR_RETURN(std::unique_ptr<Prng> rng_jk,
                         PairPrng(initiator, label));
    cols = masked.size();
    comparison = NumericProtocol::BuildComparisonMatrix(
        own_slice, masked, rng_jk.get(), config_.num_threads);
  } else {
    // Per-pair masks are consumed linearly across rows, so each tile is a
    // self-contained round over a tile-fresh mask stream.
    PPC_ASSIGN_OR_RETURN(
        std::string inbound,
        TakePending(InboundSlot(column, initiator) + TileSuffix(row_begin)));
    ByteReader reader(inbound);
    PPC_ASSIGN_OR_RETURN(uint32_t attr, reader.ReadU32());
    if (attr != column) {
      return Status::ProtocolViolation("initiator sent attribute " +
                                       std::to_string(attr) + ", expected " +
                                       std::to_string(column));
    }
    PPC_ASSIGN_OR_RETURN(uint8_t mode_tag, reader.ReadU8());
    PPC_ASSIGN_OR_RETURN(uint64_t declared_begin, reader.ReadU64());
    PPC_ASSIGN_OR_RETURN(uint64_t declared_end, reader.ReadU64());
    PPC_ASSIGN_OR_RETURN(std::vector<uint64_t> masked, reader.ReadU64Vector());
    PPC_RETURN_IF_ERROR(reader.ExpectEnd());
    if (mode_tag != static_cast<uint8_t>(MaskingMode::kPerPair)) {
      return Status::ProtocolViolation(
          "initiator masking mode disagrees with this site's configuration");
    }
    if (declared_begin != row_begin || declared_end != row_end) {
      return Status::ProtocolViolation(
          "initiator tile covers rows [" + std::to_string(declared_begin) +
          ", " + std::to_string(declared_end) + "), the schedule expects [" +
          std::to_string(row_begin) + ", " + std::to_string(row_end) + ")");
    }
    if (rows == 0 || masked.size() % rows != 0) {
      return Status::ProtocolViolation("per-pair mask tile not rectangular");
    }
    cols = masked.size() / rows;
    const std::string label =
        NumericLabel(column, initiator, name_) + TileSuffix(row_begin);
    PPC_ASSIGN_OR_RETURN(std::unique_ptr<Prng> rng_jk,
                         PairPrng(initiator, label));
    PPC_ASSIGN_OR_RETURN(comparison,
                         NumericProtocol::AddResponderPerPair(
                             own_slice, cols, masked, rng_jk.get()));
  }

  ByteWriter writer;
  writer.Reserve(4 + 4 + initiator.size() + 1 + 8 * 3 + 4 +
                 8 * comparison.size());
  writer.WriteU32(static_cast<uint32_t>(column));
  writer.WriteBytes(initiator);
  writer.WriteU8(static_cast<uint8_t>(config_.masking_mode));
  writer.WriteU64(row_begin);
  writer.WriteU64(row_end);
  writer.WriteU64(cols);
  writer.WriteU64Vector(comparison);
  StashPending(OutboundSlot(column, initiator) + TileSuffix(row_begin),
               writer.TakeBytes());
  return Status::OK();
}

Status DataHolder::BuildAlphanumericGridsTile(size_t column,
                                              const std::string& initiator,
                                              uint64_t row_begin,
                                              uint64_t row_end) {
  PPC_ASSIGN_OR_RETURN(std::vector<std::vector<uint8_t>> own,
                       EncodedStringColumn(column));
  if (row_begin > row_end || row_end > own.size()) {
    return Status::InvalidArgument(
        "tile row range [" + std::to_string(row_begin) + ", " +
        std::to_string(row_end) + ") out of range for " +
        std::to_string(own.size()) + " objects");
  }
  PPC_ASSIGN_OR_RETURN(std::string inbound,
                       ConsumePendingShared(InboundSlot(column, initiator)));
  ByteReader reader(inbound);
  PPC_ASSIGN_OR_RETURN(uint32_t attr, reader.ReadU32());
  if (attr != column) {
    return Status::ProtocolViolation("initiator sent attribute " +
                                     std::to_string(attr) + ", expected " +
                                     std::to_string(column));
  }
  PPC_ASSIGN_OR_RETURN(std::vector<std::string> masked_bytes,
                       reader.ReadBytesVector());
  PPC_RETURN_IF_ERROR(reader.ExpectEnd());

  std::vector<std::vector<uint8_t>> masked;
  masked.reserve(masked_bytes.size());
  for (const std::string& bytes : masked_bytes) {
    masked.push_back(SymbolsFromBytes(bytes));
  }
  const std::vector<std::vector<uint8_t>> own_slice(own.begin() + row_begin,
                                                    own.begin() + row_end);
  std::vector<AlphanumericProtocol::MaskedGrid> grids =
      AlphanumericProtocol::BuildMaskedGrids(own_slice, masked,
                                             config_.alphabet,
                                             config_.num_threads);

  size_t grid_bytes = 0;
  for (const auto& grid : grids) grid_bytes += 4 + 4 + 4 + grid.cells.size();
  ByteWriter writer;
  writer.Reserve(4 + 4 + initiator.size() + 8 * 3 + grid_bytes);
  writer.WriteU32(static_cast<uint32_t>(column));
  writer.WriteBytes(initiator);
  writer.WriteU64(row_begin);
  writer.WriteU64(row_end);
  writer.WriteU64(masked.size());
  for (const auto& grid : grids) {
    writer.WriteU32(static_cast<uint32_t>(grid.responder_length));
    writer.WriteU32(static_cast<uint32_t>(grid.initiator_length));
    writer.WriteBytes(grid.cells.data(), grid.cells.size());
  }
  StashPending(OutboundSlot(column, initiator) + TileSuffix(row_begin),
               writer.TakeBytes());
  return Status::OK();
}

Status DataHolder::SendNumericComparisonTile(size_t column,
                                             const std::string& initiator,
                                             const std::string& third_party,
                                             uint64_t row_begin) {
  PPC_ASSIGN_OR_RETURN(
      std::string payload,
      TakePending(OutboundSlot(column, initiator) + TileSuffix(row_begin)));
  return network_->Send(name_, third_party, topics::kNumericComparison,
                        std::move(payload));
}

Status DataHolder::SendAlphanumericGridsTile(size_t column,
                                             const std::string& initiator,
                                             const std::string& third_party,
                                             uint64_t row_begin) {
  PPC_ASSIGN_OR_RETURN(
      std::string payload,
      TakePending(OutboundSlot(column, initiator) + TileSuffix(row_begin)));
  return network_->Send(name_, third_party, topics::kAlnumGrids,
                        std::move(payload));
}

Status DataHolder::SendCategoricalTokens(size_t column,
                                         const std::string& third_party) {
  if (categorical_key_.empty()) {
    return Status::FailedPrecondition(
        "categorical key not established among data holders");
  }
  const AttributeSpec& spec = data_.schema().attribute(column);
  if (spec.type != AttributeType::kCategorical) {
    return Status::InvalidArgument("attribute " + std::to_string(column) +
                                   " is not categorical");
  }
  PPC_ASSIGN_OR_RETURN(std::vector<std::string> values,
                       data_.StringColumn(column));
  DeterministicEncryptor encryptor(
      HmacSha256::DeriveKey(categorical_key_, "cat:" + std::to_string(column)));

  ByteWriter writer;
  writer.WriteU32(static_cast<uint32_t>(column));
  auto taxonomy_it = config_.taxonomies.find(spec.name);
  if (taxonomy_it == config_.taxonomies.end()) {
    // Flat categorical (paper Sec. 4.3): one token per object.
    writer.WriteU8(0);
    writer.WriteBytesVector(CategoricalProtocol::EncryptColumn(values,
                                                               encryptor));
  } else {
    // Hierarchical categorical (implemented future work): one encrypted
    // root-to-node path per object.
    writer.WriteU8(1);
    PPC_ASSIGN_OR_RETURN(
        std::vector<TaxonomyProtocol::TokenPath> paths,
        TaxonomyProtocol::EncryptColumn(values, taxonomy_it->second,
                                        encryptor));
    writer.WriteU32(static_cast<uint32_t>(paths.size()));
    for (const TaxonomyProtocol::TokenPath& path : paths) {
      writer.WriteBytesVector(path);
    }
  }
  return network_->Send(name_, third_party, topics::kCategoricalTokens,
                        writer.TakeBytes());
}

Status DataHolder::SendClusterRequest(const std::string& third_party,
                                      const ClusterRequest& request) {
  ByteWriter writer;
  request.Serialize(&writer);
  return network_->Send(name_, third_party, topics::kClusterRequest,
                        writer.TakeBytes());
}

Result<ClusteringOutcome> DataHolder::ReceiveClusterOutcome(
    const std::string& third_party) {
  PPC_ASSIGN_OR_RETURN(
      Message msg,
      Recv(third_party, topics::kClusterOutcome));
  ByteReader reader(msg.payload);
  PPC_ASSIGN_OR_RETURN(ClusteringOutcome outcome,
                       ClusteringOutcome::Deserialize(&reader));
  PPC_RETURN_IF_ERROR(reader.ExpectEnd());
  return outcome;
}

}  // namespace ppc

#include "core/third_party.h"

#include <algorithm>

#include "cluster/dbscan.h"
#include "cluster/kmedoids.h"
#include "cluster/quality.h"
#include "common/serde.h"
#include "common/thread_pool.h"
#include "core/alphanumeric_protocol.h"
#include "core/categorical_protocol.h"
#include "core/numeric_protocol.h"
#include "core/topics.h"
#include "crypto/hmac.h"
#include "distance/kernels.h"

namespace ppc {

namespace {

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

// Tile-qualified PRNG label — must mirror the data holders' derivation for
// per-pair tile streams.
std::string TileSuffix(uint64_t row_begin) {
  return ":t" + std::to_string(row_begin);
}

/// Packed strictly-lower-triangle cells strictly above row `r`.
size_t CellsBeforeRow(size_t r) { return r * (r - 1) / 2; }

}  // namespace

ThirdParty::ThirdParty(std::string name, Network* network,
                       ProtocolConfig config, Schema schema,
                       uint64_t entropy_seed)
    : name_(std::move(name)),
      network_(network),
      config_(std::move(config)),
      schema_(std::move(schema)),
      real_codec_(
          FixedPointCodec::Create(config_.real_decimal_digits).TakeValue()),
      entropy_(MakePrng(PrngKind::kChaCha20, entropy_seed)) {
  // Row kernels read the thread count directly, so "auto" must already be
  // a count here (a party run by PartyRunner never passes through
  // ClusteringSession::Run).
  config_.num_threads = ResolveNumThreads(config_.num_threads);
  dh_keys_ = DiffieHellman::Generate(entropy_.get());
}

Status ThirdParty::ReceiveHellos(const std::vector<std::string>& holders) {
  roster_.clear();
  total_objects_ = 0;
  for (const std::string& holder : holders) {
    PPC_ASSIGN_OR_RETURN(Message msg,
                         Recv(holder, topics::kHello));
    ByteReader reader(msg.payload);
    PPC_ASSIGN_OR_RETURN(uint64_t count, reader.ReadU64());
    PPC_RETURN_IF_ERROR(reader.ExpectEnd());
    RosterEntry entry;
    entry.holder = holder;
    entry.count = count;
    entry.offset = total_objects_;
    total_objects_ += count;
    roster_.push_back(std::move(entry));
  }
  // One zeroed matrix per attribute, each built in place: assigning copies
  // of a prototype would pay an n^2 copy per attribute while every holder
  // waits on the roster.
  attribute_matrices_.clear();
  attribute_matrices_.reserve(schema_.size());
  for (size_t column = 0; column < schema_.size(); ++column) {
    attribute_matrices_.emplace_back(total_objects_);
  }
  normalized_ = false;
  InvalidateMergedCache();
  return Status::OK();
}

Status ThirdParty::BroadcastRoster() {
  ByteWriter writer;
  writer.WriteU32(static_cast<uint32_t>(roster_.size()));
  for (const RosterEntry& entry : roster_) {
    writer.WriteBytes(entry.holder);
    writer.WriteU64(entry.count);
  }
  std::string payload = writer.TakeBytes();
  for (const RosterEntry& entry : roster_) {
    PPC_RETURN_IF_ERROR(
        network_->Send(name_, entry.holder, topics::kRoster, payload));
  }
  return Status::OK();
}

Status ThirdParty::SendDhPublic(const std::string& holder) {
  ByteWriter writer;
  writer.WriteBytes(std::string(dh_keys_.public_key.begin(),
                                dh_keys_.public_key.end()));
  return network_->Send(name_, holder, topics::kDhPublic, writer.TakeBytes());
}

Status ThirdParty::ReceiveDhPublicAndDerive(const std::string& holder) {
  PPC_ASSIGN_OR_RETURN(Message msg,
                       Recv(holder, topics::kDhPublic));
  ByteReader reader(msg.payload);
  PPC_ASSIGN_OR_RETURN(std::string public_bytes, reader.ReadBytes());
  PPC_RETURN_IF_ERROR(reader.ExpectEnd());
  Result<std::string> seed = DiffieHellman::AgreeSeed(
      dh_keys_.private_key, public_bytes, PairLabel(name_, holder));
  if (!seed.ok()) {
    return Status(seed.status().code(),
                  seed.status().message() +
                      ChannelContext(msg.session, msg.from, msg.to, msg.topic));
  }
  seeds_[holder] = std::move(seed).TakeValue();
  return Status::OK();
}

Result<const ThirdParty::RosterEntry*> ThirdParty::FindRosterEntry(
    const std::string& holder) const {
  for (const RosterEntry& entry : roster_) {
    if (entry.holder == holder) return &entry;
  }
  return Status::NotFound("holder '" + holder + "' not in roster");
}

Result<std::unique_ptr<Prng>> ThirdParty::HolderPrng(
    const std::string& holder, const std::string& label) const {
  auto it = seeds_.find(holder);
  if (it == seeds_.end()) {
    return Status::FailedPrecondition("no shared seed with '" + holder + "'");
  }
  return MakePrngFromKey(HmacSha256::DeriveKey(it->second, label));
}

Status ThirdParty::ReceiveLocalMatrix(const std::string& holder) {
  PPC_ASSIGN_OR_RETURN(const RosterEntry* entry, FindRosterEntry(holder));
  PPC_ASSIGN_OR_RETURN(Message msg, Recv(holder,
                                                      topics::kLocalMatrix));
  ByteReader reader(msg.payload);
  PPC_ASSIGN_OR_RETURN(uint32_t column, reader.ReadU32());
  PPC_ASSIGN_OR_RETURN(uint64_t n, reader.ReadU64());
  PPC_ASSIGN_OR_RETURN(std::vector<double> cells, reader.ReadF64Vector());
  PPC_RETURN_IF_ERROR(reader.ExpectEnd());

  if (column >= schema_.size()) {
    return Status::ProtocolViolation("local matrix for unknown attribute " +
                                     std::to_string(column));
  }
  if (schema_.attribute(column).type == AttributeType::kCategorical) {
    return Status::ProtocolViolation(
        "categorical attributes have no local matrices");
  }
  if (n != entry->count) {
    return Status::ProtocolViolation(
        "local matrix has " + std::to_string(n) + " objects, roster says " +
        std::to_string(entry->count));
  }
  PPC_ASSIGN_OR_RETURN(DissimilarityMatrix local,
                       DissimilarityMatrix::FromPacked(n, std::move(cells)));

  DissimilarityMatrix& global = attribute_matrices_[column];
  for (size_t i = 1; i < n; ++i) {
    for (size_t j = 0; j < i; ++j) {
      global.set(entry->offset + i, entry->offset + j, local.at(i, j));
    }
  }
  InvalidateMergedCache();
  return Status::OK();
}

Status ThirdParty::ReceiveNumericComparison(const std::string& responder) {
  PPC_ASSIGN_OR_RETURN(
      Message msg,
      Recv(responder, topics::kNumericComparison));
  return InstallNumericPayload(msg.payload, responder, Expected{});
}

Status ThirdParty::InstallNumericPayload(const std::string& payload,
                                         const std::string& responder,
                                         const Expected& expected) {
  PPC_ASSIGN_OR_RETURN(const RosterEntry* responder_entry,
                       FindRosterEntry(responder));
  ByteReader reader(payload);
  PPC_ASSIGN_OR_RETURN(uint32_t column, reader.ReadU32());
  PPC_ASSIGN_OR_RETURN(std::string initiator, reader.ReadBytes());
  if (expected.column != nullptr && column != *expected.column) {
    return Status::ProtocolViolation(
        "responder sent attribute " + std::to_string(column) +
        ", the schedule expects " + std::to_string(*expected.column));
  }
  if (expected.initiator != nullptr && initiator != *expected.initiator) {
    return Status::ProtocolViolation("responder echoed initiator '" +
                                     initiator + "', the schedule expects '" +
                                     *expected.initiator + "'");
  }
  PPC_ASSIGN_OR_RETURN(uint8_t mode_tag, reader.ReadU8());
  PPC_ASSIGN_OR_RETURN(uint64_t rows, reader.ReadU64());
  PPC_ASSIGN_OR_RETURN(uint64_t cols, reader.ReadU64());
  PPC_ASSIGN_OR_RETURN(std::vector<uint64_t> cells, reader.ReadU64Vector());
  PPC_RETURN_IF_ERROR(reader.ExpectEnd());

  PPC_ASSIGN_OR_RETURN(const RosterEntry* initiator_entry,
                       FindRosterEntry(initiator));
  if (column >= schema_.size() ||
      !IsNumericType(schema_.attribute(column).type)) {
    return Status::ProtocolViolation("comparison matrix for non-numeric "
                                     "attribute " + std::to_string(column));
  }
  if (rows != responder_entry->count || cols != initiator_entry->count) {
    return Status::ProtocolViolation("comparison matrix shape mismatch");
  }

  const std::string label = NumericLabel(column, initiator, responder);
  PPC_ASSIGN_OR_RETURN(std::unique_ptr<Prng> rng_jt,
                       HolderPrng(initiator, label));

  std::vector<uint64_t> distances;
  if (mode_tag == static_cast<uint8_t>(MaskingMode::kBatch)) {
    PPC_ASSIGN_OR_RETURN(distances,
                         NumericProtocol::RecoverDistances(
                             cells, rows, cols, rng_jt.get(),
                             config_.num_threads));
  } else if (mode_tag == static_cast<uint8_t>(MaskingMode::kPerPair)) {
    PPC_ASSIGN_OR_RETURN(distances, NumericProtocol::RecoverDistancesPerPair(
                                        cells, rows, cols, rng_jt.get()));
  } else {
    return Status::ProtocolViolation("unknown masking mode tag");
  }

  FillNumericBlock(column, responder_entry->offset, initiator_entry->offset,
                   distances, rows, cols);
  InvalidateMergedCache();
  return Status::OK();
}

void ThirdParty::FillNumericBlock(size_t column, size_t global_row_begin,
                                  size_t initiator_offset,
                                  const std::vector<uint64_t>& distances,
                                  size_t rows, size_t cols) {
  const bool is_real = schema_.attribute(column).type == AttributeType::kReal;
  // Decode is a single multiply by the codec's inverse scale; Decode(1)
  // recovers that factor exactly.
  const double inverse_scale = real_codec_.Decode(1);
  DissimilarityMatrix& global = attribute_matrices_[column];
  double* packed = global.MutablePackedCells();
  // When every cell of the block sits below the diagonal in (responder,
  // initiator) orientation, each distance row lands on a contiguous run of
  // the packed triangle and the u64 -> double row kernel writes it
  // directly. Otherwise (responder roster-ordered before the initiator) the
  // packed slots are a triangle *column*, so convert through a row buffer
  // and scatter. Each (m, n) writes a distinct cell either way, so the fill
  // splits cleanly across threads.
  const bool contiguous = global_row_begin >= initiator_offset + cols;
  ParallelFor(
      rows, config_.num_threads,
      [&](size_t row_begin, size_t row_end) {
        std::vector<double> buffer;
        if (!contiguous) buffer.resize(cols);
        for (size_t m = row_begin; m < row_end; ++m) {
          const uint64_t* src = distances.data() + m * cols;
          double* dst;
          if (contiguous) {
            const size_t r = global_row_begin + m;
            dst = packed + r * (r - 1) / 2 + initiator_offset;
          } else {
            dst = buffer.data();
          }
          if (is_real) {
            DistanceKernels::U64ToDoubleScaledRow(src, inverse_scale, dst,
                                                  cols);
          } else {
            DistanceKernels::U64ToDoubleRow(src, dst, cols);
          }
          if (!contiguous) {
            for (size_t n = 0; n < cols; ++n) {
              global.set(global_row_begin + m, initiator_offset + n,
                         buffer[n]);
            }
          }
        }
      },
      /*min_items=*/128);
}

Status ThirdParty::ReceiveAlphanumericGrids(const std::string& responder) {
  PPC_ASSIGN_OR_RETURN(Message msg, Recv(responder,
                                                      topics::kAlnumGrids));
  return InstallAlphanumericPayload(msg.payload, responder, Expected{});
}

Status ThirdParty::InstallAlphanumericPayload(const std::string& payload,
                                              const std::string& responder,
                                              const Expected& expected) {
  PPC_ASSIGN_OR_RETURN(const RosterEntry* responder_entry,
                       FindRosterEntry(responder));
  ByteReader reader(payload);
  PPC_ASSIGN_OR_RETURN(uint32_t column, reader.ReadU32());
  PPC_ASSIGN_OR_RETURN(std::string initiator, reader.ReadBytes());
  if (expected.column != nullptr && column != *expected.column) {
    return Status::ProtocolViolation(
        "responder sent attribute " + std::to_string(column) +
        ", the schedule expects " + std::to_string(*expected.column));
  }
  if (expected.initiator != nullptr && initiator != *expected.initiator) {
    return Status::ProtocolViolation("responder echoed initiator '" +
                                     initiator + "', the schedule expects '" +
                                     *expected.initiator + "'");
  }
  PPC_ASSIGN_OR_RETURN(uint64_t responder_count, reader.ReadU64());
  PPC_ASSIGN_OR_RETURN(uint64_t initiator_count, reader.ReadU64());

  PPC_ASSIGN_OR_RETURN(const RosterEntry* initiator_entry,
                       FindRosterEntry(initiator));
  if (column >= schema_.size() ||
      schema_.attribute(column).type != AttributeType::kAlphanumeric) {
    return Status::ProtocolViolation("grids for non-alphanumeric attribute " +
                                     std::to_string(column));
  }
  if (responder_count != responder_entry->count ||
      initiator_count != initiator_entry->count) {
    return Status::ProtocolViolation("grid block shape mismatch");
  }

  std::vector<AlphanumericProtocol::MaskedGrid> grids;
  grids.reserve(responder_count * initiator_count);
  for (uint64_t g = 0; g < responder_count * initiator_count; ++g) {
    AlphanumericProtocol::MaskedGrid grid;
    PPC_ASSIGN_OR_RETURN(uint32_t rlen, reader.ReadU32());
    PPC_ASSIGN_OR_RETURN(uint32_t ilen, reader.ReadU32());
    // View straight into the payload: the cells are copied exactly once,
    // into the grid itself.
    PPC_ASSIGN_OR_RETURN(std::string_view cells, reader.ReadBytesView());
    if (cells.size() != size_t{rlen} * ilen) {
      return Status::ProtocolViolation("grid cell count mismatch");
    }
    grid.responder_length = rlen;
    grid.initiator_length = ilen;
    grid.cells.assign(cells.begin(), cells.end());
    grids.push_back(std::move(grid));
  }
  PPC_RETURN_IF_ERROR(reader.ExpectEnd());

  const std::string label = AlnumLabel(column, initiator, responder);
  PPC_ASSIGN_OR_RETURN(std::unique_ptr<Prng> rng_jt,
                       HolderPrng(initiator, label));
  PPC_ASSIGN_OR_RETURN(
      std::vector<uint64_t> distances,
      AlphanumericProtocol::RecoverDistances(grids, responder_count,
                                             initiator_count, config_.alphabet,
                                             rng_jt.get(),
                                             config_.num_threads));

  DissimilarityMatrix& global = attribute_matrices_[column];
  for (uint64_t m = 0; m < responder_count; ++m) {
    for (uint64_t n = 0; n < initiator_count; ++n) {
      global.set(responder_entry->offset + m, initiator_entry->offset + n,
                 static_cast<double>(distances[m * initiator_count + n]));
    }
  }
  InvalidateMergedCache();
  return Status::OK();
}

Status ThirdParty::CollectComparison(size_t column,
                                     const std::string& initiator,
                                     const std::string& responder) {
  if (column >= schema_.size()) {
    return Status::InvalidArgument("attribute " + std::to_string(column) +
                                   " out of range");
  }
  const AttributeType type = schema_.attribute(column).type;
  if (type == AttributeType::kCategorical) {
    return Status::InvalidArgument(
        "categorical attributes have no comparison rounds");
  }
  const char* topic = IsNumericType(type) ? topics::kNumericComparison
                                          : topics::kAlnumGrids;
  PPC_ASSIGN_OR_RETURN(Message msg,
                       Recv(responder, topic));
  MutexLock lock(pending_mutex_);
  pending_comparisons_[{column, initiator, responder, 0}] =
      std::move(msg.payload);
  return Status::OK();
}

Status ThirdParty::InstallComparison(size_t column,
                                     const std::string& initiator,
                                     const std::string& responder) {
  std::string payload;
  {
    MutexLock lock(pending_mutex_);
    auto it = pending_comparisons_.find({column, initiator, responder, 0});
    if (it == pending_comparisons_.end()) {
      return Status::FailedPrecondition(
          "no collected comparison payload for attribute " +
          std::to_string(column) + ", pair " + initiator + "/" + responder);
    }
    payload = std::move(it->second);
    pending_comparisons_.erase(it);
  }
  Expected expected;
  expected.column = &column;
  expected.initiator = &initiator;
  return IsNumericType(schema_.attribute(column).type)
             ? InstallNumericPayload(payload, responder, expected)
             : InstallAlphanumericPayload(payload, responder, expected);
}

Result<uint64_t> ThirdParty::RosterCount(const std::string& holder) const {
  PPC_ASSIGN_OR_RETURN(const RosterEntry* entry, FindRosterEntry(holder));
  return entry->count;
}

Status ThirdParty::ReceiveLocalMatrixTile(const std::string& holder) {
  PPC_ASSIGN_OR_RETURN(const RosterEntry* entry, FindRosterEntry(holder));
  PPC_ASSIGN_OR_RETURN(Message msg, Recv(holder,
                                                      topics::kLocalMatrix));
  ByteReader reader(msg.payload);
  PPC_ASSIGN_OR_RETURN(uint32_t column, reader.ReadU32());
  PPC_ASSIGN_OR_RETURN(uint64_t n, reader.ReadU64());
  PPC_ASSIGN_OR_RETURN(uint64_t row_begin, reader.ReadU64());
  PPC_ASSIGN_OR_RETURN(uint64_t row_end, reader.ReadU64());
  PPC_ASSIGN_OR_RETURN(std::vector<double> cells, reader.ReadF64Vector());
  PPC_RETURN_IF_ERROR(reader.ExpectEnd());

  if (column >= schema_.size()) {
    return Status::ProtocolViolation("local matrix for unknown attribute " +
                                     std::to_string(column));
  }
  if (schema_.attribute(column).type == AttributeType::kCategorical) {
    return Status::ProtocolViolation(
        "categorical attributes have no local matrices");
  }
  if (n != entry->count) {
    return Status::ProtocolViolation(
        "local matrix has " + std::to_string(n) + " objects, roster says " +
        std::to_string(entry->count));
  }
  if (row_begin > row_end || row_end > n) {
    return Status::ProtocolViolation("local matrix tile row range [" +
                                     std::to_string(row_begin) + ", " +
                                     std::to_string(row_end) +
                                     ") out of range");
  }
  if (cells.size() != CellsBeforeRow(row_end) - CellsBeforeRow(row_begin)) {
    return Status::ProtocolViolation("local matrix tile cell count mismatch");
  }

  DissimilarityMatrix& global = attribute_matrices_[column];
  size_t c = 0;
  for (uint64_t i = row_begin; i < row_end; ++i) {
    for (uint64_t j = 0; j < i; ++j) {
      global.set(entry->offset + i, entry->offset + j, cells[c++]);
    }
  }
  InvalidateMergedCache();
  return Status::OK();
}

Status ThirdParty::CollectComparisonTile(size_t column,
                                         const std::string& initiator,
                                         const std::string& responder,
                                         uint64_t row_begin) {
  if (column >= schema_.size()) {
    return Status::InvalidArgument("attribute " + std::to_string(column) +
                                   " out of range");
  }
  const AttributeType type = schema_.attribute(column).type;
  if (type == AttributeType::kCategorical) {
    return Status::InvalidArgument(
        "categorical attributes have no comparison rounds");
  }
  const char* topic = IsNumericType(type) ? topics::kNumericComparison
                                          : topics::kAlnumGrids;
  PPC_ASSIGN_OR_RETURN(Message msg,
                       Recv(responder, topic));
  MutexLock lock(pending_mutex_);
  pending_comparisons_[{column, initiator, responder, row_begin}] =
      std::move(msg.payload);
  return Status::OK();
}

Status ThirdParty::InstallComparisonTile(size_t column,
                                         const std::string& initiator,
                                         const std::string& responder,
                                         uint64_t row_begin,
                                         uint64_t row_end) {
  std::string payload;
  {
    MutexLock lock(pending_mutex_);
    auto it =
        pending_comparisons_.find({column, initiator, responder, row_begin});
    if (it == pending_comparisons_.end()) {
      return Status::FailedPrecondition(
          "no collected comparison tile for attribute " +
          std::to_string(column) + ", pair " + initiator + "/" + responder +
          ", rows from " + std::to_string(row_begin));
    }
    payload = std::move(it->second);
    pending_comparisons_.erase(it);
  }
  return IsNumericType(schema_.attribute(column).type)
             ? InstallNumericTilePayload(payload, responder, column, initiator,
                                         row_begin, row_end)
             : InstallAlphanumericTilePayload(payload, responder, column,
                                              initiator, row_begin, row_end);
}

Status ThirdParty::InstallNumericTilePayload(const std::string& payload,
                                             const std::string& responder,
                                             size_t column,
                                             const std::string& initiator,
                                             uint64_t row_begin,
                                             uint64_t row_end) {
  PPC_ASSIGN_OR_RETURN(const RosterEntry* responder_entry,
                       FindRosterEntry(responder));
  ByteReader reader(payload);
  PPC_ASSIGN_OR_RETURN(uint32_t attr, reader.ReadU32());
  PPC_ASSIGN_OR_RETURN(std::string declared_initiator, reader.ReadBytes());
  PPC_ASSIGN_OR_RETURN(uint8_t mode_tag, reader.ReadU8());
  PPC_ASSIGN_OR_RETURN(uint64_t declared_begin, reader.ReadU64());
  PPC_ASSIGN_OR_RETURN(uint64_t declared_end, reader.ReadU64());
  PPC_ASSIGN_OR_RETURN(uint64_t cols, reader.ReadU64());
  PPC_ASSIGN_OR_RETURN(std::vector<uint64_t> cells, reader.ReadU64Vector());
  PPC_RETURN_IF_ERROR(reader.ExpectEnd());

  if (attr != column) {
    return Status::ProtocolViolation(
        "responder sent attribute " + std::to_string(attr) +
        ", the schedule expects " + std::to_string(column));
  }
  if (declared_initiator != initiator) {
    return Status::ProtocolViolation("responder echoed initiator '" +
                                     declared_initiator +
                                     "', the schedule expects '" + initiator +
                                     "'");
  }
  if (declared_begin != row_begin || declared_end != row_end) {
    return Status::ProtocolViolation(
        "comparison tile covers rows [" + std::to_string(declared_begin) +
        ", " + std::to_string(declared_end) + "), the schedule expects [" +
        std::to_string(row_begin) + ", " + std::to_string(row_end) + ")");
  }
  PPC_ASSIGN_OR_RETURN(const RosterEntry* initiator_entry,
                       FindRosterEntry(initiator));
  if (column >= schema_.size() ||
      !IsNumericType(schema_.attribute(column).type)) {
    return Status::ProtocolViolation("comparison matrix for non-numeric "
                                     "attribute " + std::to_string(column));
  }
  if (row_begin > row_end || row_end > responder_entry->count ||
      cols != initiator_entry->count) {
    return Status::ProtocolViolation("comparison tile shape mismatch");
  }
  const uint64_t rows = row_end - row_begin;
  if (cells.size() != rows * cols) {
    return Status::ProtocolViolation("comparison tile cell count mismatch");
  }

  std::vector<uint64_t> distances;
  if (mode_tag == static_cast<uint8_t>(MaskingMode::kBatch)) {
    // Batch tiles share the column's mask stream: every row strips the same
    // hoisted prefix, so a row slice recovers exactly like the whole matrix.
    const std::string label = NumericLabel(column, initiator, responder);
    PPC_ASSIGN_OR_RETURN(std::unique_ptr<Prng> rng_jt,
                         HolderPrng(initiator, label));
    PPC_ASSIGN_OR_RETURN(distances,
                         NumericProtocol::RecoverDistances(
                             cells, rows, cols, rng_jt.get(),
                             config_.num_threads));
  } else if (mode_tag == static_cast<uint8_t>(MaskingMode::kPerPair)) {
    // Per-pair tiles each carry an independent, tile-labelled mask stream.
    const std::string label =
        NumericLabel(column, initiator, responder) + TileSuffix(row_begin);
    PPC_ASSIGN_OR_RETURN(std::unique_ptr<Prng> rng_jt,
                         HolderPrng(initiator, label));
    PPC_ASSIGN_OR_RETURN(distances, NumericProtocol::RecoverDistancesPerPair(
                                        cells, rows, cols, rng_jt.get()));
  } else {
    return Status::ProtocolViolation("unknown masking mode tag");
  }

  FillNumericBlock(column, responder_entry->offset + row_begin,
                   initiator_entry->offset, distances, rows, cols);
  InvalidateMergedCache();
  return Status::OK();
}

Status ThirdParty::InstallAlphanumericTilePayload(const std::string& payload,
                                                  const std::string& responder,
                                                  size_t column,
                                                  const std::string& initiator,
                                                  uint64_t row_begin,
                                                  uint64_t row_end) {
  PPC_ASSIGN_OR_RETURN(const RosterEntry* responder_entry,
                       FindRosterEntry(responder));
  ByteReader reader(payload);
  PPC_ASSIGN_OR_RETURN(uint32_t attr, reader.ReadU32());
  PPC_ASSIGN_OR_RETURN(std::string declared_initiator, reader.ReadBytes());
  PPC_ASSIGN_OR_RETURN(uint64_t declared_begin, reader.ReadU64());
  PPC_ASSIGN_OR_RETURN(uint64_t declared_end, reader.ReadU64());
  PPC_ASSIGN_OR_RETURN(uint64_t initiator_count, reader.ReadU64());

  if (attr != column) {
    return Status::ProtocolViolation(
        "responder sent attribute " + std::to_string(attr) +
        ", the schedule expects " + std::to_string(column));
  }
  if (declared_initiator != initiator) {
    return Status::ProtocolViolation("responder echoed initiator '" +
                                     declared_initiator +
                                     "', the schedule expects '" + initiator +
                                     "'");
  }
  if (declared_begin != row_begin || declared_end != row_end) {
    return Status::ProtocolViolation(
        "grid tile covers rows [" + std::to_string(declared_begin) + ", " +
        std::to_string(declared_end) + "), the schedule expects [" +
        std::to_string(row_begin) + ", " + std::to_string(row_end) + ")");
  }
  PPC_ASSIGN_OR_RETURN(const RosterEntry* initiator_entry,
                       FindRosterEntry(initiator));
  if (column >= schema_.size() ||
      schema_.attribute(column).type != AttributeType::kAlphanumeric) {
    return Status::ProtocolViolation("grids for non-alphanumeric attribute " +
                                     std::to_string(column));
  }
  if (row_begin > row_end || row_end > responder_entry->count ||
      initiator_count != initiator_entry->count) {
    return Status::ProtocolViolation("grid tile shape mismatch");
  }
  const uint64_t rows = row_end - row_begin;

  std::vector<AlphanumericProtocol::MaskedGrid> grids;
  grids.reserve(rows * initiator_count);
  for (uint64_t g = 0; g < rows * initiator_count; ++g) {
    AlphanumericProtocol::MaskedGrid grid;
    PPC_ASSIGN_OR_RETURN(uint32_t rlen, reader.ReadU32());
    PPC_ASSIGN_OR_RETURN(uint32_t ilen, reader.ReadU32());
    PPC_ASSIGN_OR_RETURN(std::string_view cells, reader.ReadBytesView());
    if (cells.size() != size_t{rlen} * ilen) {
      return Status::ProtocolViolation("grid cell count mismatch");
    }
    grid.responder_length = rlen;
    grid.initiator_length = ilen;
    grid.cells.assign(cells.begin(), cells.end());
    grids.push_back(std::move(grid));
  }
  PPC_RETURN_IF_ERROR(reader.ExpectEnd());

  // The decode prefix is per-row (Fig. 10), so every tile shares the
  // column's mask stream — same label as the whole-matrix round.
  const std::string label = AlnumLabel(column, initiator, responder);
  PPC_ASSIGN_OR_RETURN(std::unique_ptr<Prng> rng_jt,
                       HolderPrng(initiator, label));
  PPC_ASSIGN_OR_RETURN(
      std::vector<uint64_t> distances,
      AlphanumericProtocol::RecoverDistances(grids, rows, initiator_count,
                                             config_.alphabet, rng_jt.get(),
                                             config_.num_threads));

  DissimilarityMatrix& global = attribute_matrices_[column];
  for (uint64_t m = 0; m < rows; ++m) {
    for (uint64_t n = 0; n < initiator_count; ++n) {
      global.set(responder_entry->offset + row_begin + m,
                 initiator_entry->offset + n,
                 static_cast<double>(distances[m * initiator_count + n]));
    }
  }
  InvalidateMergedCache();
  return Status::OK();
}

Status ThirdParty::ReceiveCategoricalTokens(const std::string& holder) {
  PPC_ASSIGN_OR_RETURN(const RosterEntry* entry, FindRosterEntry(holder));
  PPC_ASSIGN_OR_RETURN(
      Message msg,
      Recv(holder, topics::kCategoricalTokens));
  ByteReader reader(msg.payload);
  PPC_ASSIGN_OR_RETURN(uint32_t column, reader.ReadU32());
  PPC_ASSIGN_OR_RETURN(uint8_t kind, reader.ReadU8());

  if (column >= schema_.size() ||
      schema_.attribute(column).type != AttributeType::kCategorical) {
    return Status::ProtocolViolation("tokens for non-categorical attribute " +
                                     std::to_string(column));
  }
  const bool hierarchical =
      config_.taxonomies.find(schema_.attribute(column).name) !=
      config_.taxonomies.end();
  if ((kind == 1) != hierarchical) {
    return Status::ProtocolViolation(
        "token kind disagrees with the agreed taxonomy configuration for "
        "attribute " + std::to_string(column));
  }
  size_t position = static_cast<size_t>(entry - roster_.data());

  if (kind == 0) {
    PPC_ASSIGN_OR_RETURN(std::vector<std::string> tokens,
                         reader.ReadBytesVector());
    PPC_RETURN_IF_ERROR(reader.ExpectEnd());
    if (tokens.size() != entry->count) {
      return Status::ProtocolViolation("token column size mismatch");
    }
    auto [it, inserted] = categorical_tokens_.try_emplace(
        column,
        std::vector<std::optional<std::vector<std::string>>>(roster_.size()));
    (void)inserted;
    it->second[position] = std::move(tokens);
    return Status::OK();
  }

  PPC_ASSIGN_OR_RETURN(uint32_t count, reader.ReadU32());
  if (count != entry->count) {
    return Status::ProtocolViolation("token path column size mismatch");
  }
  std::vector<TaxonomyProtocol::TokenPath> paths;
  paths.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    PPC_ASSIGN_OR_RETURN(TaxonomyProtocol::TokenPath path,
                         reader.ReadBytesVector());
    paths.push_back(std::move(path));
  }
  PPC_RETURN_IF_ERROR(reader.ExpectEnd());
  auto [it, inserted] = taxonomy_tokens_.try_emplace(
      column, std::vector<std::optional<std::vector<TaxonomyProtocol::TokenPath>>>(
                  roster_.size()));
  (void)inserted;
  it->second[position] = std::move(paths);
  return Status::OK();
}

Status ThirdParty::FinalizeCategorical(size_t column) {
  auto hierarchical_it = taxonomy_tokens_.find(column);
  if (hierarchical_it != taxonomy_tokens_.end()) {
    std::vector<std::vector<TaxonomyProtocol::TokenPath>> columns;
    columns.reserve(roster_.size());
    for (size_t p = 0; p < roster_.size(); ++p) {
      if (!hierarchical_it->second[p].has_value()) {
        return Status::FailedPrecondition(
            "holder '" + roster_[p].holder + "' has not sent token paths "
            "for attribute " + std::to_string(column));
      }
      columns.push_back(*hierarchical_it->second[p]);
    }
    auto taxonomy_it =
        config_.taxonomies.find(schema_.attribute(column).name);
    if (taxonomy_it == config_.taxonomies.end()) {
      return Status::Internal("taxonomy disappeared from config");
    }
    PPC_ASSIGN_OR_RETURN(
        DissimilarityMatrix matrix,
        TaxonomyProtocol::BuildGlobalMatrix(columns,
                                            taxonomy_it->second.height()));
    attribute_matrices_[column] = std::move(matrix);
    InvalidateMergedCache();
    return Status::OK();
  }

  auto it = categorical_tokens_.find(column);
  if (it == categorical_tokens_.end()) {
    return Status::FailedPrecondition("no tokens received for attribute " +
                                      std::to_string(column));
  }
  std::vector<std::vector<std::string>> columns;
  columns.reserve(roster_.size());
  for (size_t p = 0; p < roster_.size(); ++p) {
    if (!it->second[p].has_value()) {
      return Status::FailedPrecondition(
          "holder '" + roster_[p].holder + "' has not sent tokens for "
          "attribute " + std::to_string(column));
    }
    columns.push_back(*it->second[p]);
  }
  PPC_ASSIGN_OR_RETURN(DissimilarityMatrix matrix,
                       CategoricalProtocol::BuildGlobalMatrix(columns));
  attribute_matrices_[column] = std::move(matrix);
  InvalidateMergedCache();
  return Status::OK();
}

Status ThirdParty::NormalizeMatrices() {
  if (attribute_matrices_.empty()) {
    return Status::FailedPrecondition("no matrices collected");
  }
  for (DissimilarityMatrix& matrix : attribute_matrices_) {
    matrix.Normalize();
  }
  normalized_ = true;
  InvalidateMergedCache();
  return Status::OK();
}

Result<const DissimilarityMatrix*> ThirdParty::AttributeMatrixForTesting(
    size_t column) const {
  if (column >= attribute_matrices_.size()) {
    return Status::OutOfRange("attribute out of range");
  }
  return &attribute_matrices_[column];
}

Result<const DissimilarityMatrix*> ThirdParty::MergedMatrixRef(
    std::vector<double> weights) const {
  if (weights.empty()) weights.assign(schema_.size(), 1.0);
  MutexLock lock(merged_cache_mutex_);
  auto it = merged_cache_.find(weights);
  if (it != merged_cache_.end()) return &it->second;
  std::vector<const DissimilarityMatrix*> pointers;
  pointers.reserve(attribute_matrices_.size());
  for (const DissimilarityMatrix& m : attribute_matrices_) {
    pointers.push_back(&m);
  }
  PPC_ASSIGN_OR_RETURN(DissimilarityMatrix merged,
                       DissimilarityMatrix::WeightedMerge(pointers, weights));
  auto [inserted, unused] =
      merged_cache_.try_emplace(std::move(weights), std::move(merged));
  (void)unused;
  return &inserted->second;
}

void ThirdParty::InvalidateMergedCache() {
  MutexLock lock(merged_cache_mutex_);
  merged_cache_.clear();
}

Result<DissimilarityMatrix> ThirdParty::MergedMatrix(
    std::vector<double> weights) const {
  PPC_ASSIGN_OR_RETURN(const DissimilarityMatrix* merged,
                       MergedMatrixRef(std::move(weights)));
  return *merged;
}

ObjectRef ThirdParty::RefForGlobalIndex(size_t global_index) const {
  ObjectRef ref;
  ref.global_index = global_index;
  for (const RosterEntry& entry : roster_) {
    if (global_index >= entry.offset &&
        global_index < entry.offset + entry.count) {
      ref.party = entry.holder;
      ref.local_index = global_index - entry.offset;
      return ref;
    }
  }
  ref.party = "?";
  return ref;
}

Result<ClusteringOutcome> ThirdParty::RunClustering(
    const ClusterRequest& request) {
  if (!normalized_) {
    return Status::FailedPrecondition("matrices not normalized yet");
  }
  if (!request.weights.empty() && request.weights.size() != schema_.size()) {
    return Status::InvalidArgument("weight vector must have one entry per "
                                   "attribute");
  }
  PPC_ASSIGN_OR_RETURN(const DissimilarityMatrix* merged,
                       MergedMatrixRef(request.weights));

  std::vector<int> labels;
  switch (request.algorithm) {
    case ClusterAlgorithm::kHierarchical: {
      PPC_ASSIGN_OR_RETURN(Dendrogram dendrogram,
                           Agglomerative::Run(*merged, request.linkage));
      PPC_ASSIGN_OR_RETURN(labels,
                           dendrogram.CutToClusters(request.num_clusters));
      break;
    }
    case ClusterAlgorithm::kKMedoids: {
      KMedoids::Options options;
      options.k = request.num_clusters;
      PPC_ASSIGN_OR_RETURN(KMedoids::Assignment assignment,
                           KMedoids::Run(*merged, options));
      labels = std::move(assignment.labels);
      break;
    }
    case ClusterAlgorithm::kDbscan: {
      Dbscan::Options options;
      options.eps = request.dbscan_eps;
      options.min_points = request.dbscan_min_points;
      PPC_ASSIGN_OR_RETURN(labels, Dbscan::Run(*merged, options));
      break;
    }
  }

  ClusteringOutcome outcome;
  int max_label = -1;
  for (int label : labels) max_label = std::max(max_label, label);
  outcome.clusters.resize(static_cast<size_t>(max_label + 1));
  bool has_noise = false;
  for (size_t i = 0; i < labels.size(); ++i) {
    ObjectRef ref = RefForGlobalIndex(i);
    if (labels[i] < 0) {
      has_noise = true;
      outcome.noise.push_back(std::move(ref));
    } else {
      outcome.clusters[labels[i]].push_back(std::move(ref));
    }
  }

  // Paper Sec. 5: publish per-cluster average of squared member distances.
  // The quality helper orders entries by ascending label, which puts the
  // noise pseudo-cluster (-1) first when DBSCAN produced one — drop it so
  // the vector aligns with `outcome.clusters`.
  PPC_ASSIGN_OR_RETURN(
      outcome.within_cluster_mean_squared,
      Quality::WithinClusterMeanSquaredDistance(*merged, labels));
  if (has_noise && !outcome.within_cluster_mean_squared.empty()) {
    outcome.within_cluster_mean_squared.erase(
        outcome.within_cluster_mean_squared.begin());
  }

  if (outcome.clusters.size() >= 2 && outcome.noise.empty()) {
    // A failure here is a real error (inconsistent labels), not a zero
    // score — propagate it instead of publishing 0.0.
    PPC_ASSIGN_OR_RETURN(double silhouette,
                         Quality::Silhouette(*merged, labels));
    outcome.silhouette = silhouette;
  }
  return outcome;
}

Status ThirdParty::ServeClusterRequest(const std::string& holder) {
  PPC_ASSIGN_OR_RETURN(
      Message msg,
      Recv(holder, topics::kClusterRequest));
  ByteReader reader(msg.payload);
  PPC_ASSIGN_OR_RETURN(ClusterRequest request,
                       ClusterRequest::Deserialize(&reader));
  PPC_RETURN_IF_ERROR(reader.ExpectEnd());

  PPC_ASSIGN_OR_RETURN(ClusteringOutcome outcome, RunClustering(request));
  ByteWriter writer;
  outcome.Serialize(&writer);
  return network_->Send(name_, holder, topics::kClusterOutcome,
                        writer.TakeBytes());
}

}  // namespace ppc

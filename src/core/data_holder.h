#ifndef PPC_CORE_DATA_HOLDER_H_
#define PPC_CORE_DATA_HOLDER_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/cancellation.h"
#include "common/fixed_point.h"
#include "common/result.h"
#include "common/thread_annotations.h"
#include "core/config.h"
#include "core/outcome.h"
#include "crypto/diffie_hellman.h"
#include "data/data_matrix.h"
#include "net/network.h"
#include "rng/prng.h"

namespace ppc {

/// One data-holder site (a "DHJ"/"DHK" of the paper): owns a horizontal
/// partition of the data matrix and participates in the comparison
/// protocols. All communication goes through the abstract `Network`
/// transport — the in-process simulator and the TCP backend are
/// interchangeable — so its traffic is accounted and tappable like a real
/// deployment's.
///
/// A schedule driver (`ClusteringSession` in-process, `PartyRunner` when
/// each party is its own OS process) sequences the method calls; the
/// holder itself never inspects another party's state in-process.
class DataHolder {
 public:
  /// `entropy_seed` seeds the holder's local randomness (DH private keys,
  /// categorical key generation). Deployments would use OS entropy; a seed
  /// keeps experiments reproducible.
  DataHolder(std::string name, Network* network, ProtocolConfig config,
             uint64_t entropy_seed);

  /// Installs this holder's horizontal partition. All rows must match the
  /// session schema (validated again by the session).
  Status SetData(DataMatrix data);

  const std::string& name() const { return name_; }
  size_t NumObjects() const { return data_.NumRows(); }
  const DataMatrix& data() const { return data_; }

  /// Binds the session's cancellation/deadline token: every later
  /// blocking receive polls it, so a cancelled or deadline-expired
  /// session surfaces a typed error instead of sleeping out the
  /// transport timeout. Null (the default) means "never cancelled".
  /// The token must outlive the protocol run.
  void BindCancelToken(const CancelToken* cancel) { cancel_ = cancel; }
  const CancelToken* cancel_token() const { return cancel_; }

  // -- Session setup steps --------------------------------------------------

  /// Announces this site's object count to the third party.
  Status SendHello(const std::string& third_party);

  /// Receives the third party's roster (party order and object counts).
  Status ReceiveRoster(const std::string& third_party);

  /// Sends this holder's DH public value to `peer`.
  Status SendDhPublic(const std::string& peer);

  /// Receives `peer`'s DH public value and derives the shared seed. Data
  /// holders derive the rJK seed of the paper; with the third party the
  /// rJT seed. The derivation label is symmetric, so both sides agree.
  Status ReceiveDhPublicAndDerive(const std::string& peer);

  /// First-roster-holder only: generates the categorical encryption key and
  /// distributes it to the other data holders (never to the TP). Channels
  /// must be secured for this step, as the paper requires for all
  /// holder-to-holder traffic.
  Status DistributeCategoricalKey(const std::vector<std::string>& peers);

  /// Receives the categorical key from the distributing holder.
  Status ReceiveCategoricalKey(const std::string& from);

  // -- Protocol steps (per attribute) ---------------------------------------
  //
  // The heavy steps are split receive/build/send so the schedule graph
  // (core/schedule.h) can keep per-channel FIFO order while running a
  // responder's per-attribute computations concurrently: a receive stashes
  // the raw inbound payload (cheap, FIFO-critical), a build consumes the
  // stash and produces the outbound payload (expensive, order-free), a
  // send ships it (cheap, FIFO-critical). The Run* compositions perform
  // all stages inline — handy for unit tests and single-step drivers; the
  // executors never use them.

  /// Fig. 12 for one attribute: builds the local dissimilarity matrix of
  /// `column` and stashes the serialized message.
  Status BuildLocalMatrix(size_t column);

  /// Ships the stashed local matrix of `column` to the third party.
  Status SendLocalMatrix(size_t column, const std::string& third_party);

  /// Fig. 12 + ship for every numeric and alphanumeric attribute
  /// (BuildLocalMatrix + SendLocalMatrix in column order).
  Status SendLocalMatrices(const std::string& third_party);

  /// Fig. 4 (or the per-pair variant): masks this site's column `column`
  /// and sends it to `responder`.
  Status RunNumericInitiator(size_t column, const std::string& responder);

  /// Receives the initiator's masked vector for `column` and stashes it.
  Status ReceiveNumericMasked(size_t column, const std::string& initiator);

  /// Fig. 5 arithmetic: builds the pair-wise comparison matrix from the
  /// stashed masked vector; stashes the result message.
  Status BuildNumericComparison(size_t column, const std::string& initiator);

  /// Ships the stashed comparison matrix for (`column`, `initiator`) to
  /// the third party.
  Status SendNumericComparison(size_t column, const std::string& initiator,
                               const std::string& third_party);

  /// Fig. 5 composition: ReceiveNumericMasked + BuildNumericComparison +
  /// SendNumericComparison.
  Status RunNumericResponder(size_t column, const std::string& initiator,
                             const std::string& third_party);

  /// Fig. 8: masks this site's strings and sends them to `responder`.
  Status RunAlphanumericInitiator(size_t column, const std::string& responder);

  /// Receives the initiator's masked strings for `column` and stashes them.
  Status ReceiveAlphanumericMasked(size_t column, const std::string& initiator);

  /// Fig. 9 arithmetic: builds the intermediary CCM grids from the stashed
  /// masked strings; stashes the result message.
  Status BuildAlphanumericGrids(size_t column, const std::string& initiator);

  /// Ships the stashed grids for (`column`, `initiator`) to the third
  /// party.
  Status SendAlphanumericGrids(size_t column, const std::string& initiator,
                               const std::string& third_party);

  /// Fig. 9 composition: ReceiveAlphanumericMasked + BuildAlphanumericGrids
  /// + SendAlphanumericGrids.
  Status RunAlphanumericResponder(size_t column, const std::string& initiator,
                                  const std::string& third_party);

  /// Sec. 4.3: deterministically encrypts the categorical column and sends
  /// the tokens to the third party.
  Status SendCategoricalTokens(size_t column, const std::string& third_party);

  // -- Tiled protocol steps (tile_size > 0 schedules) ------------------------
  //
  // Row-range variants of the quadratic steps above: each handles triangle
  // or block rows [row_begin, row_end) of one attribute's payload, so no
  // step ever materializes more than one tile of a local or comparison
  // matrix and the third party pipelines installs against later builds.
  // Final matrices are bit-identical to the whole-matrix steps at any
  // tiling; only the wire framing differs (per-tile headers, and fresh
  // per-tile mask streams in per-pair mode — any consistent mask stream
  // recovers the same distances).

  /// Fig. 12, rows [row_begin, row_end) only: builds that slice of the
  /// local dissimilarity matrix of `column` and stashes the tile message.
  Status BuildLocalMatrixTile(size_t column, uint64_t row_begin,
                              uint64_t row_end);

  /// Ships the stashed local-matrix tile of (`column`, `row_begin`).
  Status SendLocalMatrixTile(size_t column, uint64_t row_begin,
                             const std::string& third_party);

  /// Per-pair masking only: masks this site's column against responder rows
  /// [row_begin, row_end) with a tile-fresh mask stream and sends the tile.
  /// (Batch and alphanumeric initiators are not tiled — every tile build
  /// reads the same whole masked message.)
  Status RunNumericInitiatorTile(size_t column, const std::string& responder,
                                 uint64_t row_begin, uint64_t row_end);

  /// Receives the initiator's per-pair masked tile for (`column`,
  /// `row_begin`) and stashes it.
  Status ReceiveNumericMaskedTile(size_t column, const std::string& initiator,
                                  uint64_t row_begin);

  /// Receives the initiator's whole masked vector for `column` and stashes
  /// it for `uses` tile builds (refcounted — the stash lives until the last
  /// build consumes it).
  Status ReceiveNumericMaskedShared(size_t column, const std::string& initiator,
                                    uint32_t uses);

  /// Alphanumeric analog of ReceiveNumericMaskedShared.
  Status ReceiveAlphanumericMaskedShared(size_t column,
                                         const std::string& initiator,
                                         uint32_t uses);

  /// Fig. 5 arithmetic for own rows [row_begin, row_end): builds that slice
  /// of the comparison matrix (batch mode reads the shared masked vector;
  /// per-pair mode its own masked tile) and stashes the tile message.
  Status BuildNumericComparisonTile(size_t column, const std::string& initiator,
                                    uint64_t row_begin, uint64_t row_end);

  /// Fig. 9 arithmetic for own strings [row_begin, row_end): builds those
  /// rows of CCM grids from the shared masked strings; stashes the tile.
  Status BuildAlphanumericGridsTile(size_t column, const std::string& initiator,
                                    uint64_t row_begin, uint64_t row_end);

  /// Ships the stashed comparison tile for (`column`, `initiator`,
  /// `row_begin`) to the third party.
  Status SendNumericComparisonTile(size_t column, const std::string& initiator,
                                   const std::string& third_party,
                                   uint64_t row_begin);

  /// Ships the stashed grid tile for (`column`, `initiator`, `row_begin`).
  Status SendAlphanumericGridsTile(size_t column, const std::string& initiator,
                                   const std::string& third_party,
                                   uint64_t row_begin);

  // -- Results ---------------------------------------------------------------

  /// Sends a clustering order (weights + algorithm choice) to the third
  /// party.
  Status SendClusterRequest(const std::string& third_party,
                            const ClusterRequest& request);

  /// Receives the published outcome for a previously sent order.
  Result<ClusteringOutcome> ReceiveClusterOutcome(
      const std::string& third_party);

  /// Object count of `party` from the roster (available after
  /// ReceiveRoster).
  Result<uint64_t> RosterCount(const std::string& party) const;

  /// The protocol configuration this holder runs with, `num_threads`
  /// resolved (schedule drivers consult it to build matching tiled
  /// graphs).
  const ProtocolConfig& config() const { return config_; }

 private:
  /// The column as protocol integers: raw int64 for integer attributes,
  /// fixed-point encoded for reals.
  Result<std::vector<int64_t>> EncodedNumericColumn(size_t column) const;

  /// The column as alphabet index vectors.
  Result<std::vector<std::vector<uint8_t>>> EncodedStringColumn(
      size_t column) const;

  /// Derives a mask generator from the seed shared with `peer`, bound to a
  /// protocol context label. Distinct labels (attribute, pair, role) yield
  /// independent mask streams, so no mask is ever reused across contexts.
  Result<std::unique_ptr<Prng>> PairPrng(const std::string& peer,
                                         const std::string& label) const;

  /// Moves `slot` out of the pending-stage map under the stash lock;
  /// kFailedPrecondition if the prior stage has not stashed it.
  Result<std::string> TakePending(const std::string& slot);
  void StashPending(const std::string& slot, std::string payload);

  /// The one blocking receive of this party: `Receive` bound to the
  /// session's cancel token (see `BindCancelToken`).
  Result<Message> Recv(const std::string& from, const std::string& topic) {
    return network_->Receive(name_, from, topic, cancel_);
  }

  /// Refcounted variant for payloads shared by several tile builds: the
  /// stash records `uses`, each consume copies the payload and decrements
  /// (the last consumer moves it out and erases the slot).
  void StashPendingShared(const std::string& slot, std::string payload,
                          uint32_t uses);
  Result<std::string> ConsumePendingShared(const std::string& slot);

  std::string name_;
  Network* network_;
  const CancelToken* cancel_ = nullptr;
  ProtocolConfig config_;
  FixedPointCodec real_codec_;
  DataMatrix data_;
  std::unique_ptr<Prng> entropy_;
  DiffieHellman::KeyPair dh_keys_;
  std::map<std::string, std::string> pair_seeds_;  // peer -> 32-byte seed.
  std::vector<std::pair<std::string, uint64_t>> roster_;
  std::string tp_name_;  // Recorded at SendHello; used to pick the rJT seed.
  std::string categorical_key_;

  /// Payloads staged between split protocol steps (inbound masked data
  /// waiting for its build; built messages waiting for their send), keyed
  /// by a stage+attribute+peer label. Concurrent builds of different
  /// attributes touch the map at once, hence the mutex; the staged bytes
  /// themselves are owned by exactly one in-flight step.
  mutable Mutex pending_mutex_;
  std::map<std::string, std::string> pending_ GUARDED_BY(pending_mutex_);
  std::map<std::string, std::pair<std::string, uint32_t>> pending_shared_
      GUARDED_BY(pending_mutex_);
};

}  // namespace ppc

#endif  // PPC_CORE_DATA_HOLDER_H_

#ifndef PPC_CORE_SCHEDULE_H_
#define PPC_CORE_SCHEDULE_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/config.h"
#include "data/schema.h"

namespace ppc {

class DataHolder;
class ThirdParty;

/// The shared session plan every driver of a protocol run starts from: the
/// roster order and the third party's name. Together with the (also shared)
/// `ProtocolConfig` and `Schema`, it makes the whole protocol schedule —
/// the `Schedule` graph below — fully determined, so independently launched
/// processes build the identical graph with no control plane beyond the
/// messages themselves.
struct SessionPlan {
  /// Data-holder names in roster order. The first holder distributes the
  /// categorical key and issues the clustering request.
  std::vector<std::string> holder_order;
  std::string third_party = "TP";
};

/// What one schedule step does. The paper's Fig. 11/12 message dance is
/// decomposed so that every network touch (one directed channel, one
/// message) and every heavy computation is its own node — which is what
/// lets the executor run a responder's per-attribute rounds concurrently:
/// a round's compute step depends only on its own inbound message, never
/// on the responder's other rounds.
enum class StepKind : uint8_t {
  // Phase 1 — hello / roster.
  kHello,                   // holder -> TP object count
  kReceiveHellos,           // TP receives every hello, builds the roster
  kBroadcastRoster,         // TP -> every holder
  kReceiveRoster,           // holder <- TP
  // Phase 2 — Diffie-Hellman seed agreement.
  kDhSend,                  // actor -> peer public value
  kDhReceive,               // actor <- peer, derives the shared seed
  // Phase 3 — categorical key among data holders (TP excluded).
  kCategoricalKeySend,      // first roster holder -> every other holder
  kCategoricalKeyReceive,   // holder <- first roster holder
  // Phase 4 — local dissimilarity matrices (Fig. 12 at every site).
  kLocalMatrixBuild,        // holder computes one attribute's local matrix
  kLocalMatrixSend,         // holder -> TP, one attribute
  kLocalMatrixReceive,      // TP <- holder, installs the diagonal block
  // Phase 5 — pairwise comparison protocols (Sec. 4.1/4.2).
  kComparisonInit,          // initiator masks its column, -> responder
  kComparisonReceive,       // responder <- initiator (cheap, keeps FIFO)
  kComparisonBuild,         // responder computes the comparison payload
  kComparisonSend,          // responder -> TP
  kComparisonCollect,       // TP <- responder (cheap, keeps FIFO)
  kComparisonInstall,       // TP strips masks, fills the off-diagonal block
  // Phase 5 — categorical tokens (Sec. 4.3).
  kCategoricalTokensSend,   // holder -> TP deterministic tokens
  kCategoricalTokensReceive,// TP <- holder
  kCategoricalFinalize,     // TP builds the global categorical matrix
  // Phase 6 — normalization (Fig. 11 step 4).
  kNormalize,
};

/// Canonical name of `kind` (for logs and tests).
const char* StepKindToString(StepKind kind);

inline constexpr size_t kNoColumn = static_cast<size_t>(-1);

/// Highest paper phase a schedule step can carry (1 = hello .. 6 =
/// normalize). Phase-bounded executors use it as the open upper bound.
inline constexpr int kLastPhase = 6;

/// One node of the protocol schedule graph.
struct ScheduleStep {
  StepKind kind;
  /// Paper phase 1..6; the comm-model breakdown and the progress grouping
  /// key off this.
  int phase = 0;
  /// The party that performs this step.
  std::string actor;
  /// Channel counterpart: the receiver of this step's send, or the sender
  /// of its receive. Empty for multi-channel steps (`kReceiveHellos`,
  /// `kBroadcastRoster`, `kCategoricalKeySend`) and pure compute steps
  /// without a single counterpart.
  std::string peer;
  /// For `kComparisonSend`/`kComparisonCollect`/`kComparisonInstall`: the
  /// pair's initiator (`peer` is then the responder resp. the TP).
  std::string initiator;
  /// Attribute index, or kNoColumn for setup/normalize steps.
  size_t column = kNoColumn;
  /// topics.h tag of the message this step sends or receives ("" for pure
  /// compute steps). The comm model maps topics to phases through these
  /// tags.
  std::string topic;
  /// True if the step sends (actor -> peer) resp. receives (peer -> actor)
  /// its primary message. Multi-channel steps set neither; their channel
  /// uses are still edge-tracked by the builder.
  bool sends = false;
  bool receives = false;
  /// Node ids this step depends on — data dependencies (the send a receive
  /// consumes), per-directed-channel FIFO chains, and party-state ordering.
  /// Always strictly smaller than the step's own id, so index order is a
  /// topological order.
  std::vector<uint32_t> deps;
  /// Tiled quadratic phases (Options::tile_size > 0): true when this step
  /// covers only the actor-row range [row_begin, row_end) of its phase-4
  /// local matrix or phase-5 comparison payload, instead of the whole
  /// matrix. Tile steps use the tile entry points of the parties.
  bool tiled = false;
  uint64_t row_begin = 0;
  uint64_t row_end = 0;
  /// For the one shared `kComparisonReceive` of a tiled batch/alphanumeric
  /// round: how many downstream tile builds consume the stashed inbound
  /// masked payload (they run in any order, so the stash is refcounted).
  /// 0 on every other step.
  uint32_t shared_uses = 0;
};

/// The dependency-tracked protocol schedule: one graph, run two ways.
///
/// `Build` lays out the phases 1-6 steps in the *canonical order* — the
/// exact action order of the original sequential driver — and records every
/// dependency:
///
///   * data edges: the send each receive consumes,
///   * channel edges: consecutive sends (and consecutive receives) on the
///     same directed channel, which pins per-channel wire order — and hence
///     nonces, stats, taps, and strict topic checking — to the sequential
///     reference no matter how steps are scheduled,
///   * state edges: party-internal ordering that is not visible in the
///     messages (setup phases run as one chain; the TP's categorical token
///     bookkeeping is serialized).
///
/// `ScheduleExecutor::Run` drives the whole graph in one process: with one
/// worker it executes the steps in index order, which *is* the sequential
/// reference schedule (bit-identical by construction); with n workers it
/// executes the ready set concurrently. `ScheduleExecutor::RunParty`
/// filters one actor's steps in index order — that party's side of a
/// distributed run.
class Schedule {
 public:
  struct Options {
    /// Row-tile height for phases 4-5 (ProtocolConfig::tile_size). 0 keeps
    /// the whole-matrix steps. A positive value splits every local-matrix
    /// and comparison round into per-tile build/send/collect/install steps
    /// over row ranges of at most `tile_size` rows, so the third party
    /// unmasks early tiles while later ones are still in flight. Requires
    /// `holder_objects`.
    size_t tile_size = 0;
    /// Masking mode of the run (ProtocolConfig::masking_mode). Only
    /// consulted when tiling: the per-pair protocol's initiator payload is
    /// itself row-tiled (one masked tile per fresh tile generator), while
    /// the batch initiator ships one whole masked vector that every tile
    /// build shares.
    MaskingMode masking = MaskingMode::kBatch;
    /// Object count of each holder, parallel to `plan.holder_order`.
    /// Required when tile_size > 0 (tile boundaries are part of the graph);
    /// ignored otherwise. Every process of a distributed run learns these
    /// counts from the phase-1 roster, so all build the identical graph.
    std::vector<uint64_t> holder_objects;
  };

  /// Builds the schedule graph for `plan` over `schema`. Fails if the plan
  /// names fewer than two holders or no third party.
  static Result<Schedule> Build(const SessionPlan& plan, const Schema& schema,
                                const Options& options);
  /// Same, with default options (untiled).
  static Result<Schedule> Build(const SessionPlan& plan, const Schema& schema);

  const std::vector<ScheduleStep>& steps() const { return steps_; }
  const SessionPlan& plan() const { return plan_; }
  const Schema& schema() const { return schema_; }

  /// True if `column` is compared with the numeric protocol (Fig. 4-6).
  bool IsNumericColumn(size_t column) const;

  /// Directed channels ({from, to} pairs) the schedule sends on, in first-
  /// use order. The traffic audit taps exactly these.
  std::vector<std::pair<std::string, std::string>> Channels() const;

  /// Topic -> phase map derived from the steps' tags (every topic is used
  /// by exactly one phase).
  std::map<std::string, int> TopicPhases() const;

  /// Ready-set widths of the graph restricted to `phase`: simulates Kahn
  /// waves (complete every ready step, repeat) and reports how many steps
  /// of `phase` were ready in each wave. The maximum over waves is the
  /// parallelism the ready-set executor can exploit in that phase: a
  /// responder's per-attribute rounds depend only on their own inbound
  /// messages, so phase 5 is wider than 1 even for k = 2.
  std::vector<size_t> ReadySetWidths(int phase) const;
  size_t MaxReadyWidth(int phase) const;

 private:
  Schedule(SessionPlan plan, Schema schema);

  SessionPlan plan_;
  Schema schema_;
  std::vector<ScheduleStep> steps_;
};

/// Runs one schedule over in-process party objects. The parties' method
/// calls are identical for every worker count and for the per-party
/// projection, and per-channel message order is pinned by the graph, so
/// all of them produce bit-identical third-party matrices.
class ScheduleExecutor {
 public:
  /// Binds every party of `schedule.plan()`. All pointers must outlive the
  /// executor; `holders` must be in roster order.
  ScheduleExecutor(const Schedule* schedule, ThirdParty* third_party,
                   std::vector<DataHolder*> holders);

  /// Runs every step. With `num_threads <= 1`: canonical index order on
  /// the caller's thread — the deterministic sequential reference (the
  /// paper's Fig. 11 loop). With more: ready-set execution on
  /// `num_threads` workers, where every step whose dependencies completed
  /// is eligible, so independent protocol rounds — a responder's
  /// per-attribute computes included — run concurrently.
  Status Run(size_t num_threads);

  /// One party's projection of the schedule: its own steps in canonical
  /// order, synchronized with the other processes by blocking receives
  /// alone (the transport needs a nonzero receive timeout). Because every
  /// process runs the same canonical order, a receive can only wait on a
  /// send that is globally earlier — no wait cycle is possible.
  static Status RunParty(const Schedule& schedule, DataHolder* holder);
  static Status RunParty(const Schedule& schedule, ThirdParty* third_party);

  /// Same, restricted to steps whose phase lies in [phase_begin, phase_end].
  /// Tiled distributed runs use this split: phases 1-3 are identical in
  /// tiled and untiled graphs (tiling only reshapes phases 4-5), so a
  /// process runs setup from the untiled graph, learns every holder's
  /// object count from the roster, builds the tiled graph those counts
  /// determine, and resumes from phase 4 there. Canonical order lists the
  /// phases in ascending order, so the two half-runs concatenate into
  /// exactly the tiled graph's per-party projection.
  static Status RunParty(const Schedule& schedule, DataHolder* holder,
                         int phase_begin, int phase_end);
  static Status RunParty(const Schedule& schedule, ThirdParty* third_party,
                         int phase_begin, int phase_end);

 private:
  Status ExecuteStep(const ScheduleStep& step) const;

  const Schedule* schedule_;
  ThirdParty* third_party_;
  std::map<std::string, DataHolder*> holders_;
};

/// Dispatches one step to the party that performs it. Exactly one of
/// `holder` / `third_party` is consulted (by `step.actor`); passing null
/// for the acting party is an internal error. Shared by all executors —
/// there is exactly one binding from graph nodes to party methods.
Status ExecuteScheduleStep(const Schedule& schedule, const ScheduleStep& step,
                           DataHolder* holder, ThirdParty* third_party);

}  // namespace ppc

#endif  // PPC_CORE_SCHEDULE_H_

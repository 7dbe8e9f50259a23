#include "core/schedule.h"

#include <algorithm>
#include <deque>

#include "common/thread_pool.h"
#include "core/data_holder.h"
#include "core/third_party.h"
#include "core/topics.h"

namespace ppc {

const char* StepKindToString(StepKind kind) {
  switch (kind) {
    case StepKind::kHello: return "hello";
    case StepKind::kReceiveHellos: return "receive-hellos";
    case StepKind::kBroadcastRoster: return "broadcast-roster";
    case StepKind::kReceiveRoster: return "receive-roster";
    case StepKind::kDhSend: return "dh-send";
    case StepKind::kDhReceive: return "dh-receive";
    case StepKind::kCategoricalKeySend: return "categorical-key-send";
    case StepKind::kCategoricalKeyReceive: return "categorical-key-receive";
    case StepKind::kLocalMatrixBuild: return "local-matrix-build";
    case StepKind::kLocalMatrixSend: return "local-matrix-send";
    case StepKind::kLocalMatrixReceive: return "local-matrix-receive";
    case StepKind::kComparisonInit: return "comparison-init";
    case StepKind::kComparisonReceive: return "comparison-receive";
    case StepKind::kComparisonBuild: return "comparison-build";
    case StepKind::kComparisonSend: return "comparison-send";
    case StepKind::kComparisonCollect: return "comparison-collect";
    case StepKind::kComparisonInstall: return "comparison-install";
    case StepKind::kCategoricalTokensSend: return "categorical-tokens-send";
    case StepKind::kCategoricalTokensReceive:
      return "categorical-tokens-receive";
    case StepKind::kCategoricalFinalize: return "categorical-finalize";
    case StepKind::kNormalize: return "normalize";
  }
  return "?";
}

const char* MaskingModeToString(MaskingMode mode) {
  return mode == MaskingMode::kPerPair ? "per-pair" : "batch";
}

namespace {

/// Incremental graph construction in canonical (sequential-reference)
/// order. Steps are appended exactly in the order the original one-thread
/// driver performed them, so edges always point backward and index order is
/// a topological order that reproduces the reference wire order on every
/// channel.
class GraphBuilder {
 public:
  using Channel = std::pair<std::string, std::string>;

  uint32_t Add(ScheduleStep step) {
    uint32_t id = static_cast<uint32_t>(steps_.size());
    steps_.push_back(std::move(step));
    return id;
  }

  void AddDep(uint32_t id, uint32_t dep) {
    std::vector<uint32_t>& deps = steps_[id].deps;
    if (std::find(deps.begin(), deps.end(), dep) == deps.end()) {
      deps.push_back(dep);
    }
  }

  /// Records that `id` sends one message on `from` -> `to`: chains it after
  /// the channel's previous send (FIFO order / nonce sequence is part of
  /// the wire format) and queues it for the matching receive's data edge.
  void NoteSend(uint32_t id, const std::string& from, const std::string& to) {
    Channel channel{from, to};
    auto last = last_send_.find(channel);
    if (last != last_send_.end()) AddDep(id, last->second);
    last_send_[channel] = id;
    unconsumed_[channel].push_back(id);
  }

  /// Records that `id` consumes the oldest unconsumed send on `from` ->
  /// `to` (a data edge), and chains it after the channel's previous
  /// receive so queue heads are popped in the reference order.
  void NoteReceive(uint32_t id, const std::string& from,
                   const std::string& to) {
    Channel channel{from, to};
    auto last = last_recv_.find(channel);
    if (last != last_recv_.end()) AddDep(id, last->second);
    last_recv_[channel] = id;
    std::deque<uint32_t>& pending = unconsumed_[channel];
    // The canonical order is a valid execution, so the matching send is
    // always already queued.
    if (!pending.empty()) {
      AddDep(id, pending.front());
      pending.pop_front();
    }
  }

  std::vector<ScheduleStep> TakeSteps() { return std::move(steps_); }

 private:
  std::vector<ScheduleStep> steps_;
  std::map<Channel, uint32_t> last_send_, last_recv_;
  std::map<Channel, std::deque<uint32_t>> unconsumed_;
};

ScheduleStep MakeStep(StepKind kind, int phase, std::string actor) {
  ScheduleStep step;
  step.kind = kind;
  step.phase = phase;
  step.actor = std::move(actor);
  return step;
}

struct RowRange {
  uint64_t begin = 0;
  uint64_t end = 0;
};

/// Row tiles of a party with `n` objects: [0,T), [T,2T), ..., last one
/// clipped to n. tile >= n degenerates to the single tile [0, n); n == 0
/// still yields one (empty) tile so the round's messages flow and the
/// third party can validate the roster count.
std::vector<RowRange> TileRanges(uint64_t n, size_t tile) {
  std::vector<RowRange> ranges;
  const uint64_t step = static_cast<uint64_t>(tile);
  if (n == 0) {
    ranges.push_back({0, 0});
    return ranges;
  }
  for (uint64_t begin = 0; begin < n; begin += step) {
    ranges.push_back({begin, std::min<uint64_t>(n, begin + step)});
  }
  return ranges;
}

}  // namespace

Schedule::Schedule(SessionPlan plan, Schema schema)
    : plan_(std::move(plan)), schema_(std::move(schema)) {}

bool Schedule::IsNumericColumn(size_t column) const {
  return IsNumericType(schema_.attribute(column).type);
}

Result<Schedule> Schedule::Build(const SessionPlan& plan,
                                 const Schema& schema) {
  return Build(plan, schema, Options());
}

Result<Schedule> Schedule::Build(const SessionPlan& plan, const Schema& schema,
                                 const Options& options) {
  if (plan.holder_order.size() < 2) {
    return Status::FailedPrecondition(
        "the protocol requires at least two data holders (k >= 2)");
  }
  if (plan.third_party.empty()) {
    return Status::InvalidArgument("plan names no third party");
  }
  for (size_t i = 0; i < plan.holder_order.size(); ++i) {
    if (plan.holder_order[i].empty()) {
      return Status::InvalidArgument("plan lists an empty holder name");
    }
    if (plan.holder_order[i] == plan.third_party) {
      return Status::InvalidArgument("holder '" + plan.holder_order[i] +
                                     "' is also named as the third party");
    }
    for (size_t j = i + 1; j < plan.holder_order.size(); ++j) {
      if (plan.holder_order[i] == plan.holder_order[j]) {
        return Status::InvalidArgument("plan lists holder '" +
                                       plan.holder_order[i] + "' twice");
      }
    }
  }

  const bool tiled = options.tile_size > 0;
  if (tiled &&
      options.holder_objects.size() != plan.holder_order.size()) {
    return Status::InvalidArgument(
        "tiled schedule (tile_size > 0) needs one holder_objects entry per "
        "holder — tile boundaries are part of the graph");
  }

  const std::vector<std::string>& holders = plan.holder_order;
  const std::string& tp = plan.third_party;
  const size_t k = holders.size();
  // Holder -> object count; only consulted when tiling.
  auto holder_rows = [&](size_t holder_index) -> uint64_t {
    return tiled ? options.holder_objects[holder_index] : 0;
  };
  GraphBuilder b;

  // -- Phases 1-3: setup, one chain in canonical order. ----------------------
  // Setup is a vanishing fraction of the run, and chaining it whole keeps
  // every party-internal precondition (roster before seeds, seeds before
  // masks) trivially satisfied. `prev` threads the chain.
  uint32_t prev = 0;
  bool have_prev = false;
  auto chain = [&](uint32_t id) {
    if (have_prev) b.AddDep(id, prev);
    prev = id;
    have_prev = true;
  };

  // Phase 1: hello / roster.
  for (const std::string& h : holders) {
    ScheduleStep s = MakeStep(StepKind::kHello, 1, h);
    s.peer = tp;
    s.topic = topics::kHello;
    s.sends = true;
    uint32_t id = b.Add(std::move(s));
    chain(id);
    b.NoteSend(id, h, tp);
  }
  {
    uint32_t id = b.Add(MakeStep(StepKind::kReceiveHellos, 1, tp));
    chain(id);
    for (const std::string& h : holders) b.NoteReceive(id, h, tp);
  }
  {
    uint32_t id = b.Add(MakeStep(StepKind::kBroadcastRoster, 1, tp));
    chain(id);
    for (const std::string& h : holders) b.NoteSend(id, tp, h);
  }
  for (const std::string& h : holders) {
    ScheduleStep s = MakeStep(StepKind::kReceiveRoster, 1, h);
    s.peer = tp;
    s.topic = topics::kRoster;
    s.receives = true;
    uint32_t id = b.Add(std::move(s));
    chain(id);
    b.NoteReceive(id, tp, h);
  }

  // Phase 2: Diffie-Hellman seed agreement — holder pairs, then each holder
  // with the third party, in the reference interleaving.
  auto dh_send = [&](const std::string& from, const std::string& to) {
    ScheduleStep s = MakeStep(StepKind::kDhSend, 2, from);
    s.peer = to;
    s.topic = topics::kDhPublic;
    s.sends = true;
    uint32_t id = b.Add(std::move(s));
    chain(id);
    b.NoteSend(id, from, to);
  };
  auto dh_recv = [&](const std::string& at, const std::string& from) {
    ScheduleStep s = MakeStep(StepKind::kDhReceive, 2, at);
    s.peer = from;
    s.topic = topics::kDhPublic;
    s.receives = true;
    uint32_t id = b.Add(std::move(s));
    chain(id);
    b.NoteReceive(id, from, at);
  };
  for (size_t i = 0; i < k; ++i) {
    for (size_t j = i + 1; j < k; ++j) {
      dh_send(holders[i], holders[j]);
      dh_send(holders[j], holders[i]);
      dh_recv(holders[i], holders[j]);
      dh_recv(holders[j], holders[i]);
    }
  }
  for (const std::string& h : holders) {
    dh_send(h, tp);
    dh_send(tp, h);
    dh_recv(h, tp);
    dh_recv(tp, h);
  }

  // Phase 3: categorical key among data holders, only when the schema
  // needs it.
  bool has_categorical = false;
  for (const AttributeSpec& spec : schema.attributes()) {
    if (spec.type == AttributeType::kCategorical) has_categorical = true;
  }
  if (has_categorical) {
    uint32_t id = b.Add(MakeStep(StepKind::kCategoricalKeySend, 3,
                                 holders[0]));
    chain(id);
    for (size_t i = 1; i < k; ++i) b.NoteSend(id, holders[0], holders[i]);
    for (size_t i = 1; i < k; ++i) {
      ScheduleStep s = MakeStep(StepKind::kCategoricalKeyReceive, 3,
                                holders[i]);
      s.peer = holders[0];
      s.topic = topics::kCategoricalKey;
      s.receives = true;
      uint32_t rid = b.Add(std::move(s));
      chain(rid);
      b.NoteReceive(rid, holders[0], holders[i]);
    }
  }
  const uint32_t setup_end = prev;

  // -- Phase 4: local dissimilarity matrices. --------------------------------
  // Tiled runs split each per-attribute matrix into row-range tiles, each
  // with its own build/send/receive steps: the third party installs early
  // tiles while the holder is still computing later ones, and nothing ever
  // materializes more than one tile's worth of payload per message.
  std::vector<uint32_t> tp_terminal;  // Everything kNormalize waits on.
  for (size_t hi = 0; hi < k; ++hi) {
    const std::string& h = holders[hi];
    const std::vector<RowRange> tiles =
        tiled ? TileRanges(holder_rows(hi), options.tile_size)
              : std::vector<RowRange>{RowRange{}};
    for (size_t c = 0; c < schema.size(); ++c) {
      if (schema.attribute(c).type == AttributeType::kCategorical) continue;
      for (const RowRange& r : tiles) {
        ScheduleStep build = MakeStep(StepKind::kLocalMatrixBuild, 4, h);
        build.column = c;
        build.tiled = tiled;
        build.row_begin = r.begin;
        build.row_end = r.end;
        uint32_t bid = b.Add(std::move(build));
        b.AddDep(bid, setup_end);

        ScheduleStep send = MakeStep(StepKind::kLocalMatrixSend, 4, h);
        send.peer = tp;
        send.column = c;
        send.topic = topics::kLocalMatrix;
        send.sends = true;
        send.tiled = tiled;
        send.row_begin = r.begin;
        send.row_end = r.end;
        uint32_t sid = b.Add(std::move(send));
        b.AddDep(sid, bid);
        b.NoteSend(sid, h, tp);
      }
    }
    for (size_t c = 0; c < schema.size(); ++c) {
      if (schema.attribute(c).type == AttributeType::kCategorical) continue;
      for (const RowRange& r : tiles) {
        ScheduleStep recv = MakeStep(StepKind::kLocalMatrixReceive, 4, tp);
        recv.peer = h;
        recv.column = c;
        recv.topic = topics::kLocalMatrix;
        recv.receives = true;
        recv.tiled = tiled;
        recv.row_begin = r.begin;
        recv.row_end = r.end;
        uint32_t rid = b.Add(std::move(recv));
        b.AddDep(rid, setup_end);
        b.NoteReceive(rid, h, tp);
        tp_terminal.push_back(rid);
      }
    }
  }

  // -- Phase 5: per-attribute comparison / categorical rounds. ---------------
  // TP categorical bookkeeping (token maps) is shared state; serialize
  // those steps among themselves with `cat_chain`.
  uint32_t cat_chain = 0;
  bool have_cat_chain = false;

  for (size_t c = 0; c < schema.size(); ++c) {
    if (schema.attribute(c).type == AttributeType::kCategorical) {
      for (const std::string& h : holders) {
        ScheduleStep send = MakeStep(StepKind::kCategoricalTokensSend, 5, h);
        send.peer = tp;
        send.column = c;
        send.topic = topics::kCategoricalTokens;
        send.sends = true;
        uint32_t sid = b.Add(std::move(send));
        b.AddDep(sid, setup_end);
        b.NoteSend(sid, h, tp);

        ScheduleStep recv =
            MakeStep(StepKind::kCategoricalTokensReceive, 5, tp);
        recv.peer = h;
        recv.column = c;
        recv.topic = topics::kCategoricalTokens;
        recv.receives = true;
        uint32_t rid = b.Add(std::move(recv));
        b.AddDep(rid, setup_end);
        b.NoteReceive(rid, h, tp);
        if (have_cat_chain) b.AddDep(rid, cat_chain);
        cat_chain = rid;
        have_cat_chain = true;
      }
      ScheduleStep fin = MakeStep(StepKind::kCategoricalFinalize, 5, tp);
      fin.column = c;
      uint32_t fid = b.Add(std::move(fin));
      b.AddDep(fid, cat_chain);
      cat_chain = fid;
      tp_terminal.push_back(fid);
      continue;
    }

    const char* masked_topic = IsNumericType(schema.attribute(c).type)
                                   ? topics::kNumericMasked
                                   : topics::kAlnumMasked;
    const char* result_topic = IsNumericType(schema.attribute(c).type)
                                   ? topics::kNumericComparison
                                   : topics::kAlnumGrids;
    const bool numeric = IsNumericType(schema.attribute(c).type);
    for (size_t i = 0; i < k; ++i) {
      for (size_t j = i + 1; j < k; ++j) {
        const std::string& initiator = holders[i];
        const std::string& responder = holders[j];
        // Tiles split the responder's rows of the comparison payload. The
        // batch and alphanumeric initiators still ship one whole masked
        // message (every tile build reads it — the receive records how
        // many, for the refcounted stash); the per-pair numeric initiator
        // draws a fresh mask stream per tile, so its sends tile too.
        const std::vector<RowRange> tiles =
            tiled ? TileRanges(holder_rows(j), options.tile_size)
                  : std::vector<RowRange>{RowRange{}};
        const bool tiled_init =
            tiled && numeric && options.masking == MaskingMode::kPerPair;

        uint32_t shared_recv_id = 0;
        if (!tiled_init) {
          ScheduleStep init = MakeStep(StepKind::kComparisonInit, 5,
                                       initiator);
          init.peer = responder;
          init.column = c;
          init.topic = masked_topic;
          init.sends = true;
          uint32_t init_id = b.Add(std::move(init));
          b.AddDep(init_id, setup_end);
          b.NoteSend(init_id, initiator, responder);

          ScheduleStep recv = MakeStep(StepKind::kComparisonReceive, 5,
                                       responder);
          recv.peer = initiator;
          recv.column = c;
          recv.topic = masked_topic;
          recv.receives = true;
          if (tiled) {
            recv.shared_uses = static_cast<uint32_t>(tiles.size());
          }
          shared_recv_id = b.Add(std::move(recv));
          b.NoteReceive(shared_recv_id, initiator, responder);
        }

        for (const RowRange& r : tiles) {
          uint32_t build_dep = shared_recv_id;
          if (tiled_init) {
            ScheduleStep init = MakeStep(StepKind::kComparisonInit, 5,
                                         initiator);
            init.peer = responder;
            init.column = c;
            init.topic = masked_topic;
            init.sends = true;
            init.tiled = true;
            init.row_begin = r.begin;
            init.row_end = r.end;
            uint32_t init_id = b.Add(std::move(init));
            b.AddDep(init_id, setup_end);
            b.NoteSend(init_id, initiator, responder);

            ScheduleStep recv = MakeStep(StepKind::kComparisonReceive, 5,
                                         responder);
            recv.peer = initiator;
            recv.column = c;
            recv.topic = masked_topic;
            recv.receives = true;
            recv.tiled = true;
            recv.row_begin = r.begin;
            recv.row_end = r.end;
            build_dep = b.Add(std::move(recv));
            b.NoteReceive(build_dep, initiator, responder);
          }

          ScheduleStep build = MakeStep(StepKind::kComparisonBuild, 5,
                                        responder);
          build.peer = initiator;
          build.column = c;
          build.tiled = tiled;
          build.row_begin = r.begin;
          build.row_end = r.end;
          uint32_t build_id = b.Add(std::move(build));
          b.AddDep(build_id, build_dep);

          ScheduleStep send = MakeStep(StepKind::kComparisonSend, 5,
                                       responder);
          send.peer = tp;
          send.initiator = initiator;
          send.column = c;
          send.topic = result_topic;
          send.sends = true;
          send.tiled = tiled;
          send.row_begin = r.begin;
          send.row_end = r.end;
          uint32_t send_id = b.Add(std::move(send));
          b.AddDep(send_id, build_id);
          b.NoteSend(send_id, responder, tp);

          ScheduleStep collect = MakeStep(StepKind::kComparisonCollect, 5,
                                          tp);
          collect.peer = responder;
          collect.initiator = initiator;
          collect.column = c;
          collect.topic = result_topic;
          collect.receives = true;
          collect.tiled = tiled;
          collect.row_begin = r.begin;
          collect.row_end = r.end;
          uint32_t collect_id = b.Add(std::move(collect));
          b.NoteReceive(collect_id, responder, tp);

          ScheduleStep install = MakeStep(StepKind::kComparisonInstall, 5,
                                          tp);
          install.peer = responder;
          install.initiator = initiator;
          install.column = c;
          install.tiled = tiled;
          install.row_begin = r.begin;
          install.row_end = r.end;
          uint32_t install_id = b.Add(std::move(install));
          b.AddDep(install_id, collect_id);
          tp_terminal.push_back(install_id);
        }
      }
    }
  }

  // -- Phase 6: normalization. -----------------------------------------------
  {
    uint32_t id = b.Add(MakeStep(StepKind::kNormalize, 6, tp));
    for (uint32_t dep : tp_terminal) b.AddDep(id, dep);
    if (tp_terminal.empty()) b.AddDep(id, setup_end);
  }

  Schedule schedule(plan, schema);
  schedule.steps_ = b.TakeSteps();
  return schedule;
}

std::vector<std::pair<std::string, std::string>> Schedule::Channels() const {
  std::vector<std::pair<std::string, std::string>> channels;
  auto note = [&](const std::string& from, const std::string& to) {
    std::pair<std::string, std::string> channel{from, to};
    if (std::find(channels.begin(), channels.end(), channel) ==
        channels.end()) {
      channels.push_back(channel);
    }
  };
  for (const ScheduleStep& step : steps_) {
    if (step.sends) note(step.actor, step.peer);
    if (step.receives) note(step.peer, step.actor);
    if (step.kind == StepKind::kBroadcastRoster) {
      for (const std::string& h : plan_.holder_order) note(step.actor, h);
    }
    if (step.kind == StepKind::kReceiveHellos) {
      for (const std::string& h : plan_.holder_order) note(h, step.actor);
    }
    if (step.kind == StepKind::kCategoricalKeySend) {
      for (const std::string& h : plan_.holder_order) {
        if (h != step.actor) note(step.actor, h);
      }
    }
  }
  return channels;
}

std::map<std::string, int> Schedule::TopicPhases() const {
  std::map<std::string, int> phases;
  for (const ScheduleStep& step : steps_) {
    if (!step.topic.empty()) phases.emplace(step.topic, step.phase);
  }
  // Multi-channel setup steps carry topics the per-channel tags may miss.
  phases.emplace(topics::kHello, 1);
  phases.emplace(topics::kRoster, 1);
  if (std::any_of(steps_.begin(), steps_.end(), [](const ScheduleStep& s) {
        return s.kind == StepKind::kCategoricalKeySend;
      })) {
    phases.emplace(topics::kCategoricalKey, 3);
  }
  return phases;
}

std::vector<size_t> Schedule::ReadySetWidths(int phase) const {
  std::vector<size_t> indegree(steps_.size(), 0);
  std::vector<std::vector<uint32_t>> children(steps_.size());
  for (size_t i = 0; i < steps_.size(); ++i) {
    indegree[i] = steps_[i].deps.size();
    for (uint32_t dep : steps_[i].deps) {
      children[dep].push_back(static_cast<uint32_t>(i));
    }
  }
  std::vector<uint32_t> ready;
  for (size_t i = 0; i < steps_.size(); ++i) {
    if (indegree[i] == 0) ready.push_back(static_cast<uint32_t>(i));
  }
  std::vector<size_t> widths;
  while (!ready.empty()) {
    size_t in_phase = 0;
    for (uint32_t id : ready) {
      if (steps_[id].phase == phase) ++in_phase;
    }
    widths.push_back(in_phase);
    std::vector<uint32_t> next;
    for (uint32_t id : ready) {
      for (uint32_t child : children[id]) {
        if (--indegree[child] == 0) next.push_back(child);
      }
    }
    ready = std::move(next);
  }
  return widths;
}

size_t Schedule::MaxReadyWidth(int phase) const {
  size_t max_width = 0;
  for (size_t width : ReadySetWidths(phase)) {
    max_width = std::max(max_width, width);
  }
  return max_width;
}

// -- Executors ---------------------------------------------------------------

Status ExecuteScheduleStep(const Schedule& schedule, const ScheduleStep& step,
                           DataHolder* holder, ThirdParty* third_party) {
  const SessionPlan& plan = schedule.plan();
  const bool is_tp = step.actor == plan.third_party;
  if (is_tp ? third_party == nullptr : holder == nullptr) {
    return Status::Internal(std::string("schedule step '") +
                            StepKindToString(step.kind) + "' needs party '" +
                            step.actor + "', which is not bound");
  }
  // Cancellation/deadline gate shared by every executor: a tripped
  // token stops the session at the next step boundary, with the step's
  // phase and actor in the message so logs say *where* the run died.
  if (const CancelToken* cancel = is_tp ? third_party->cancel_token()
                                        : holder->cancel_token();
      cancel != nullptr) {
    Status live = cancel->Check();
    if (!live.ok()) {
      return Status(live.code(), live.message() + " (before step '" +
                                     StepKindToString(step.kind) +
                                     "', phase " + std::to_string(step.phase) +
                                     ", actor '" + step.actor + "')");
    }
  }
  switch (step.kind) {
    case StepKind::kHello:
      return holder->SendHello(plan.third_party);
    case StepKind::kReceiveHellos:
      return third_party->ReceiveHellos(plan.holder_order);
    case StepKind::kBroadcastRoster:
      return third_party->BroadcastRoster();
    case StepKind::kReceiveRoster:
      return holder->ReceiveRoster(plan.third_party);
    case StepKind::kDhSend:
      return is_tp ? third_party->SendDhPublic(step.peer)
                   : holder->SendDhPublic(step.peer);
    case StepKind::kDhReceive:
      return is_tp ? third_party->ReceiveDhPublicAndDerive(step.peer)
                   : holder->ReceiveDhPublicAndDerive(step.peer);
    case StepKind::kCategoricalKeySend:
      return holder->DistributeCategoricalKey(plan.holder_order);
    case StepKind::kCategoricalKeyReceive:
      return holder->ReceiveCategoricalKey(step.peer);
    case StepKind::kLocalMatrixBuild:
      return step.tiled ? holder->BuildLocalMatrixTile(
                              step.column, step.row_begin, step.row_end)
                        : holder->BuildLocalMatrix(step.column);
    case StepKind::kLocalMatrixSend:
      return step.tiled
                 ? holder->SendLocalMatrixTile(step.column, step.row_begin,
                                               plan.third_party)
                 : holder->SendLocalMatrix(step.column, plan.third_party);
    case StepKind::kLocalMatrixReceive:
      return step.tiled ? third_party->ReceiveLocalMatrixTile(step.peer)
                        : third_party->ReceiveLocalMatrix(step.peer);
    case StepKind::kComparisonInit:
      if (step.tiled) {
        // Only the per-pair numeric initiator tiles its sends.
        return holder->RunNumericInitiatorTile(step.column, step.peer,
                                               step.row_begin, step.row_end);
      }
      return schedule.IsNumericColumn(step.column)
                 ? holder->RunNumericInitiator(step.column, step.peer)
                 : holder->RunAlphanumericInitiator(step.column, step.peer);
    case StepKind::kComparisonReceive:
      if (step.tiled) {
        return holder->ReceiveNumericMaskedTile(step.column, step.peer,
                                                step.row_begin);
      }
      if (step.shared_uses > 0) {
        return schedule.IsNumericColumn(step.column)
                   ? holder->ReceiveNumericMaskedShared(step.column, step.peer,
                                                        step.shared_uses)
                   : holder->ReceiveAlphanumericMaskedShared(
                         step.column, step.peer, step.shared_uses);
      }
      return schedule.IsNumericColumn(step.column)
                 ? holder->ReceiveNumericMasked(step.column, step.peer)
                 : holder->ReceiveAlphanumericMasked(step.column, step.peer);
    case StepKind::kComparisonBuild:
      if (step.tiled) {
        return schedule.IsNumericColumn(step.column)
                   ? holder->BuildNumericComparisonTile(
                         step.column, step.peer, step.row_begin, step.row_end)
                   : holder->BuildAlphanumericGridsTile(
                         step.column, step.peer, step.row_begin, step.row_end);
      }
      return schedule.IsNumericColumn(step.column)
                 ? holder->BuildNumericComparison(step.column, step.peer)
                 : holder->BuildAlphanumericGrids(step.column, step.peer);
    case StepKind::kComparisonSend:
      if (step.tiled) {
        return schedule.IsNumericColumn(step.column)
                   ? holder->SendNumericComparisonTile(
                         step.column, step.initiator, plan.third_party,
                         step.row_begin)
                   : holder->SendAlphanumericGridsTile(
                         step.column, step.initiator, plan.third_party,
                         step.row_begin);
      }
      return schedule.IsNumericColumn(step.column)
                 ? holder->SendNumericComparison(step.column, step.initiator,
                                                 plan.third_party)
                 : holder->SendAlphanumericGrids(step.column, step.initiator,
                                                 plan.third_party);
    case StepKind::kComparisonCollect:
      return step.tiled
                 ? third_party->CollectComparisonTile(step.column,
                                                      step.initiator,
                                                      step.peer,
                                                      step.row_begin)
                 : third_party->CollectComparison(step.column, step.initiator,
                                                  step.peer);
    case StepKind::kComparisonInstall:
      return step.tiled
                 ? third_party->InstallComparisonTile(
                       step.column, step.initiator, step.peer, step.row_begin,
                       step.row_end)
                 : third_party->InstallComparison(step.column, step.initiator,
                                                  step.peer);
    case StepKind::kCategoricalTokensSend:
      return holder->SendCategoricalTokens(step.column, plan.third_party);
    case StepKind::kCategoricalTokensReceive:
      return third_party->ReceiveCategoricalTokens(step.peer);
    case StepKind::kCategoricalFinalize:
      return third_party->FinalizeCategorical(step.column);
    case StepKind::kNormalize:
      return third_party->NormalizeMatrices();
  }
  return Status::Internal("unknown schedule step kind");
}

ScheduleExecutor::ScheduleExecutor(const Schedule* schedule,
                                   ThirdParty* third_party,
                                   std::vector<DataHolder*> holders)
    : schedule_(schedule), third_party_(third_party) {
  for (DataHolder* holder : holders) holders_[holder->name()] = holder;
}

Status ScheduleExecutor::ExecuteStep(const ScheduleStep& step) const {
  DataHolder* holder = nullptr;
  if (step.actor != schedule_->plan().third_party) {
    auto it = holders_.find(step.actor);
    if (it == holders_.end()) {
      return Status::Internal("no bound data holder named '" + step.actor +
                              "'");
    }
    holder = it->second;
  }
  return ExecuteScheduleStep(*schedule_, step, holder, third_party_);
}

Status ScheduleExecutor::Run(size_t num_threads) {
  const std::vector<ScheduleStep>& steps = schedule_->steps();
  std::vector<std::function<Status()>> tasks;
  std::vector<std::vector<uint32_t>> deps;
  tasks.reserve(steps.size());
  deps.reserve(steps.size());
  for (const ScheduleStep& step : steps) {
    tasks.push_back([this, &step] { return ExecuteStep(step); });
    deps.push_back(step.deps);
  }
  return RunDagTasks(std::move(tasks), deps, num_threads);
}

Status ScheduleExecutor::RunParty(const Schedule& schedule,
                                  DataHolder* holder) {
  return RunParty(schedule, holder, 1, kLastPhase);
}

Status ScheduleExecutor::RunParty(const Schedule& schedule,
                                  ThirdParty* third_party) {
  return RunParty(schedule, third_party, 1, kLastPhase);
}

Status ScheduleExecutor::RunParty(const Schedule& schedule, DataHolder* holder,
                                  int phase_begin, int phase_end) {
  for (const ScheduleStep& step : schedule.steps()) {
    if (step.actor != holder->name()) continue;
    if (step.phase < phase_begin || step.phase > phase_end) continue;
    PPC_RETURN_IF_ERROR(ExecuteScheduleStep(schedule, step, holder, nullptr));
  }
  return Status::OK();
}

Status ScheduleExecutor::RunParty(const Schedule& schedule,
                                  ThirdParty* third_party, int phase_begin,
                                  int phase_end) {
  for (const ScheduleStep& step : schedule.steps()) {
    if (step.actor != third_party->name()) continue;
    if (step.phase < phase_begin || step.phase > phase_end) continue;
    PPC_RETURN_IF_ERROR(
        ExecuteScheduleStep(schedule, step, nullptr, third_party));
  }
  return Status::OK();
}

}  // namespace ppc

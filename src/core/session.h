#ifndef PPC_CORE_SESSION_H_
#define PPC_CORE_SESSION_H_

#include <string>
#include <vector>

#include "common/cancellation.h"
#include "common/result.h"
#include "core/config.h"
#include "core/data_holder.h"
#include "core/outcome.h"
#include "core/schedule.h"
#include "core/third_party.h"
#include "data/schema.h"
#include "net/network.h"

namespace ppc {

/// Drives the full protocol of paper Fig. 11 across the registered parties.
///
/// Every party runs in-process, but *all* inter-party state flows through
/// the abstract `Network` transport — the session only sequences whose turn
/// it is, the way a real deployment's control plane (or simply the arrival
/// of messages) would. The sequencing itself lives in the dependency-
/// tracked `Schedule` graph (core/schedule.h): this class builds the graph
/// for its roster and hands it to a `ScheduleExecutor`, on one worker for
/// the deterministic reference run or on several for the ready-set
/// engine. Any backend works: the in-memory simulator
/// gives zero-latency deterministic runs, and a `TcpNetwork` (with a
/// nonzero receive timeout) carries the very same schedule over real
/// sockets. For one-party-per-process deployments use `PartyRunner`, the
/// per-party projection of the same graph.
///
/// Usage — `net` is any `ppc::Network` backend (the in-memory simulator
/// from net/in_memory_network.h for experiments; the TCP backend works
/// unchanged, given a nonzero receive timeout):
/// ```
///   ThirdParty tp("TP", &net, config, schema, /*entropy_seed=*/1);
///   DataHolder a("A", &net, config, 2), b("B", &net, config, 3);
///   a.SetData(part_a); b.SetData(part_b);
///   ClusteringSession session(&net, config, schema);
///   session.SetThirdParty(&tp);
///   session.AddDataHolder(&a);
///   session.AddDataHolder(&b);
///   PPC_CHECK(session.Run());                       // build matrices
///   auto outcome = session.RequestClustering("A", request);
/// ```
class ClusteringSession {
 public:
  ClusteringSession(Network* network, ProtocolConfig config,
                    Schema schema);

  /// Registers the third party on the network. Must be called exactly once,
  /// before Run().
  Status SetThirdParty(ThirdParty* third_party);

  /// Registers a data holder (k >= 2 required by the paper's setting).
  /// Order of addition defines the global party order.
  Status AddDataHolder(DataHolder* holder);

  /// Runs the whole pipeline: hello/roster, Diffie-Hellman seed agreement,
  /// categorical key distribution, local matrices (Fig. 12), the pairwise
  /// comparison protocols for every attribute (Sec. 4), global assembly and
  /// normalization (Fig. 11). After this the third party can serve
  /// clustering requests.
  ///
  /// Thread count follows the single `ProtocolConfig::num_threads` rule
  /// (see config.h): 1 (the default) runs the schedule in its canonical
  /// order — the deterministic sequential reference; 0 resolves to the
  /// hardware concurrency; any resolved count n > 1 runs the ready set on
  /// exactly n workers. Then every schedule step whose dependencies
  /// completed is eligible, so the paper's independent site work —
  /// per-(attribute x holder-pair) comparison rounds included — executes
  /// in parallel, with per-directed-channel wire order pinned by the
  /// graph's channel edges. Every mask stream is derived from a
  /// per-(attribute, initiator, responder) label, so the third party's
  /// matrices are bit-identical at every thread count.
  Status Run();

  /// Full request round-trip for `holder_name`: send order, let the third
  /// party serve it, receive the published outcome.
  Result<ClusteringOutcome> RequestClustering(const std::string& holder_name,
                                              const ClusterRequest& request);

  /// The attribute schema all parties agreed on.
  const Schema& schema() const { return schema_; }

  /// The session's cancellation/deadline token. `Run` arms it
  /// from `ProtocolConfig::deadline_ms` and binds it to every party that
  /// has no externally bound token; trip it (from any thread) to stop
  /// the run at the next receive or step boundary.
  CancelToken* cancel_token() { return &cancel_; }

 private:
  Status ValidateSetup() const;

  Result<DataHolder*> FindHolder(const std::string& name) const;

  Network* network_;
  ProtocolConfig config_;
  Schema schema_;
  ThirdParty* third_party_ = nullptr;
  std::vector<DataHolder*> holders_;
  CancelToken cancel_;
  bool ran_ = false;
};

}  // namespace ppc

#endif  // PPC_CORE_SESSION_H_

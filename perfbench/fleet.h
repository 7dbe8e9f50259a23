#ifndef PERFBENCH_FLEET_H_
#define PERFBENCH_FLEET_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/session_registry.h"
#include "net/tcp_network.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {

struct JobState;

/// What one job produced, as seen by the submitting side.
struct JobResult {
  /// OK, the first failing party's status, or kDataLoss when the outcome
  /// differs from the reference.
  ppc::Status status;
  /// First StartSession to verified outcome.
  double latency_ms = 0;
  /// Sent-side channel counters of the session, summed over every party.
  ppc::ChannelStats sent;
  /// Traced jobs only: the tap totals, and `GrandTotalOn(session)` summed
  /// over the endpoints (the latter only for jobs whose spans are kept).
  JobTaps taps;
  ppc::ChannelStats grand_total;
  bool has_grand_total = false;
};

/// A resident fleet as `ppclust_cli serve` runs it: one loopback
/// `TcpNetwork` endpoint per party (the third party, then the holders in
/// roster order), each with one `SessionRegistry` for the fleet's whole
/// life. A job is one session started on every endpoint, with the per-job
/// bodies `serve` runs.
class Fleet {
 public:
  /// Endpoints up, parties registered, every party's first-contact
  /// handshake with every peer done, and each holder's partition
  /// validated by `SetData`. `inputs` must outlive the fleet.
  static ppc::Result<std::unique_ptr<Fleet>> Create(
      const WorkloadInputs* inputs);

  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  /// Runs one job to its verified outcome. With a tracer, each party runs
  /// its schedule projection through the benchmark's own copy of the
  /// party loop and records spans, layer totals and tap counts.
  JobResult RunJob(Tracer* tracer);

  /// Installs one tap per directed channel, on the sending endpoint,
  /// feeding `tracer`. Taps cannot be removed: install them only when
  /// every later job is traced.
  void InstallTaps(Tracer* tracer);

  /// Mean microseconds per `SessionRegistry::ActiveCount()` call, over
  /// `calls` calls on each endpoint's registry; `active` receives the sum
  /// of the counts returned.
  double ActiveCountMicros(int calls, size_t* active) const;

  /// Party names, third party first (the span `party` index).
  std::vector<std::string> PartyNames() const;

 private:
  explicit Fleet(const WorkloadInputs* inputs) : inputs_(inputs) {}

  ppc::SessionRegistry::SessionBody Body(size_t party, JobState* job,
                                         Tracer* tracer) const;

  const WorkloadInputs* inputs_;
  std::atomic<uint64_t> next_session_{0};
  // Registries are declared after the endpoints so they are destroyed
  // (joining their session threads) while the transports still exist.
  std::vector<std::unique_ptr<ppc::TcpNetwork>> endpoints_;
  std::vector<std::unique_ptr<ppc::SessionRegistry>> registries_;
};

}  // namespace perfbench

#endif  // PERFBENCH_FLEET_H_

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/config.h"
#include "core/outcome.h"
#include "core/schedule.h"
#include "data/data_matrix.h"
#include "data/schema.h"

namespace perfbench {

/// The fixed shape of one benchmark workload. Everything here is a
/// constant of the benchmark; only the data values come from the seed.
struct WorkloadSpec {
  std::string name;
  /// "gaussian": 2-D three-centre Gaussian mixture (the `ppclust_cli
  /// generate --kind=gaussian` shape); "mixed": Generators::MixedClusters
  /// (real, categorical, DNA strings of length 12).
  std::string data_kind;
  size_t objects = 0;
  size_t holders = 0;
  ppc::MaskingMode masking = ppc::MaskingMode::kBatch;
  uint64_t clusters = 3;
  /// Closed-loop clients: jobs in flight at once.
  size_t in_flight = 1;
  /// Confine the whole process to the first `cpus` of the CPUs it may run
  /// on (0: all of them). A fleet of small jobs is bound by thread
  /// hand-offs, and on a shared host a hand-off to an idle vCPU waits until
  /// the host runs that vCPU again; on fewer, busier CPUs that wait is rare,
  /// and the figures move far less with the host's load.
  size_t cpus = 0;
  /// The timed phase runs round(jobs_per_second * --seconds) jobs: a fixed
  /// count, sized to take about --seconds on a 4-vCPU 2.1 GHz Xeon, so that
  /// a run's work, its memory and its tail percentile do not follow
  /// throughput.
  double jobs_per_second = 0;
  /// Untimed jobs before the timed phase.
  size_t warmup_jobs = 0;
};

/// The named workloads, or null for an unknown name.
const WorkloadSpec* FindWorkload(const std::string& name);
std::vector<std::string> WorkloadNames();

/// One workload's generated inputs: each holder's partition, the agreed
/// protocol parameters, and the reference outcome every job must match.
struct WorkloadInputs {
  ppc::Schema schema;
  std::vector<ppc::DataMatrix> partitions;  // Roster order.
  ppc::ProtocolConfig config;
  ppc::SessionPlan plan;
  ppc::ClusterRequest request;
  /// Serialized `ClusteringOutcome` of the sequential in-process run.
  std::string reference_outcome;
};

/// Holder name of roster position `index` ("A", "B", ...).
std::string HolderName(size_t index);

/// Fixed per-party entropy seeds, as the `serve` daemon defaults them
/// (third party 1, holder p 100 + p): a fleet publishes the identical
/// outcome for identical partitions, job after job.
inline constexpr uint64_t kThirdPartyEntropy = 1;
inline uint64_t HolderEntropy(size_t index) { return 100 + index; }

/// Generates the workload's partitions from `seed`.
ppc::Result<WorkloadInputs> MakeInputs(const WorkloadSpec& spec, uint64_t seed);

/// Runs the sequential in-process reference (`ClusteringSession::Run` over
/// `InMemoryNetwork`) and stores its serialized outcome in `inputs`.
ppc::Status ComputeReference(WorkloadInputs* inputs);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_

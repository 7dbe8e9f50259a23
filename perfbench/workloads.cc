#include "workloads.h"

#include <memory>

#include "core/data_holder.h"
#include "core/session.h"
#include "core/third_party.h"
#include "data/alphabet.h"
#include "data/generators.h"
#include "data/partition.h"
#include "net/in_memory_network.h"
#include "rng/prng.h"

namespace perfbench {

namespace {

// Why each workload exists is recorded in README.md and BENCHMARK.json.
const WorkloadSpec kWorkloads[] = {
    {.name = "job_stream",
     .data_kind = "gaussian",
     .objects = 32,
     .holders = 2,
     .masking = ppc::MaskingMode::kBatch,
     .clusters = 3,
     .in_flight = 4,
     .cpus = 2,
     .jobs_per_second = 200,
     .warmup_jobs = 16},
    {.name = "large_job",
     .data_kind = "gaussian",
     .objects = 4096,
     .holders = 3,
     .masking = ppc::MaskingMode::kBatch,
     .clusters = 3,
     .in_flight = 1,
     .jobs_per_second = 0.4,
     .warmup_jobs = 1},
    {.name = "mixed_hardened",
     .data_kind = "mixed",
     .objects = 512,
     .holders = 3,
     .masking = ppc::MaskingMode::kPerPair,
     .clusters = 3,
     .in_flight = 1,
     .jobs_per_second = 5,
     .warmup_jobs = 2},
};

}  // namespace

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : kWorkloads) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

std::vector<std::string> WorkloadNames() {
  std::vector<std::string> names;
  for (const WorkloadSpec& spec : kWorkloads) names.push_back(spec.name);
  return names;
}

std::string HolderName(size_t index) {
  return std::string(1, static_cast<char>('A' + index));
}

ppc::Result<WorkloadInputs> MakeInputs(const WorkloadSpec& spec,
                                       uint64_t seed) {
  auto prng = ppc::MakePrng(ppc::PrngKind::kXoshiro256, seed);
  ppc::Result<ppc::LabeledDataset> data =
      ppc::Status::InvalidArgument("unknown data kind '" + spec.data_kind +
                                   "'");
  if (spec.data_kind == "gaussian") {
    data = ppc::Generators::GaussianMixture(spec.objects,
                                            {{{0.0, 0.0}, 1.0, 1.0},
                                             {{8.0, 8.0}, 1.0, 1.0},
                                             {{-8.0, 8.0}, 1.0, 1.0}},
                                            prng.get());
  } else if (spec.data_kind == "mixed") {
    data = ppc::Generators::MixedClusters(spec.objects, {},
                                          ppc::Alphabet::Dna(), prng.get());
  }
  if (!data.ok()) return data.status();
  PPC_ASSIGN_OR_RETURN(std::vector<ppc::LabeledDataset> parts,
                       ppc::Partitioner::RoundRobin(*data, spec.holders));

  WorkloadInputs inputs;
  inputs.schema = data->data.schema();
  for (ppc::LabeledDataset& part : parts) {
    inputs.partitions.push_back(std::move(part.data));
  }
  inputs.config.masking_mode = spec.masking;
  for (size_t i = 0; i < spec.holders; ++i) {
    inputs.plan.holder_order.push_back(HolderName(i));
  }
  inputs.request.num_clusters = spec.clusters;
  return inputs;
}

ppc::Status ComputeReference(WorkloadInputs* inputs) {
  ppc::InMemoryNetwork network;
  ppc::ThirdParty third_party(inputs->plan.third_party, &network,
                              inputs->config, inputs->schema,
                              kThirdPartyEntropy);
  ppc::ClusteringSession session(&network, inputs->config, inputs->schema);
  PPC_RETURN_IF_ERROR(session.SetThirdParty(&third_party));
  std::vector<std::unique_ptr<ppc::DataHolder>> holders;
  for (size_t i = 0; i < inputs->partitions.size(); ++i) {
    holders.push_back(std::make_unique<ppc::DataHolder>(
        HolderName(i), &network, inputs->config, HolderEntropy(i)));
    PPC_RETURN_IF_ERROR(holders.back()->SetData(inputs->partitions[i]));
    PPC_RETURN_IF_ERROR(session.AddDataHolder(holders.back().get()));
  }
  PPC_RETURN_IF_ERROR(session.Run());
  PPC_ASSIGN_OR_RETURN(
      ppc::ClusteringOutcome outcome,
      session.RequestClustering(inputs->plan.holder_order[0],
                                inputs->request));
  ppc::ByteWriter writer;
  outcome.Serialize(&writer);
  inputs->reference_outcome = writer.TakeBytes();
  return ppc::Status::OK();
}

}  // namespace perfbench

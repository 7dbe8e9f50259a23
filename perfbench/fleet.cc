#include "fleet.h"

#include <chrono>
#include <optional>
#include <utility>

#include "common/serde.h"
#include "core/data_holder.h"
#include "core/party_runner.h"
#include "core/schedule.h"
#include "core/third_party.h"

namespace perfbench {

/// State one job's party bodies share with the submitting side. Each body
/// writes only its own `sent`/`grand` slot; the submitter reads them after
/// `WaitSession` (the join orders the accesses).
struct JobState {
  std::string session;
  uint32_t trace_job = 0;
  /// Traced jobs whose spans are kept and whose taps are reconciled
  /// against `GrandTotalOn`.
  bool keep = false;
  std::string outcome;  // Serialized; written by roster holder 0's body.
  std::vector<ppc::ChannelStats> sent;
  std::vector<ppc::ChannelStats> grand;
};

namespace {

// The daemon's default --net-timeout-ms; a job that outlives the deadline
// fails typed instead of hanging the benchmark.
constexpr auto kReceiveTimeout = std::chrono::seconds(30);
constexpr uint64_t kJobDeadlineMs = 120000;
constexpr char kSetupSession[] = "perfbench.setup";
constexpr char kSetupTopic[] = "perfbench.hello";

double MicrosBetween(Clock::time_point begin, Clock::time_point end) {
  return std::chrono::duration<double, std::micro>(end - begin).count();
}

void AddStats(ppc::ChannelStats* total, const ppc::ChannelStats& stats) {
  total->messages += stats.messages;
  total->payload_bytes += stats.payload_bytes;
  total->wire_bytes += stats.wire_bytes;
}

/// What `party` has sent on the session `net` is bound to. Each endpoint
/// hosts one party and accounts only its sends, so this equals the
/// endpoint's `GrandTotalOn(session)`, by direct channel lookups instead of
/// a scan of every channel the endpoint ever opened.
ppc::ChannelStats SentBy(ppc::Network* net, const std::string& party,
                         const std::vector<std::string>& names) {
  ppc::ChannelStats total;
  for (const std::string& peer : names) {
    if (peer != party) AddStats(&total, net->StatsFor(party, peer));
  }
  return total;
}

/// A copy of the party loop `PartyRunner` runs when `tile_size == 0`
/// (`ScheduleExecutor::RunParty`): build the shared graph, then execute
/// this party's own steps in canonical order — with a span around each
/// step. A traced job whose outcome or wire bytes differ from an untraced
/// job's shows that this copy has diverged from `PartyRunner`. Receive
/// steps are classified ready/waiting only when `spans` are kept.
ppc::Status RunPartyTraced(const WorkloadInputs& in, const std::string& name,
                           ppc::DataHolder* holder,
                           ppc::ThirdParty* third_party, ppc::Network* net,
                           uint32_t job, uint32_t party, LayerTotals* totals,
                           std::vector<Span>* spans) {
  if (in.config.tile_size != 0) {
    return ppc::Status::FailedPrecondition(
        "the traced party loop copies PartyRunner's untiled path only");
  }
  PPC_ASSIGN_OR_RETURN(ppc::Schedule schedule,
                       ppc::Schedule::Build(in.plan, in.schema));
  for (const ppc::ScheduleStep& step : schedule.steps()) {
    if (step.actor != name) continue;
    std::optional<bool> ready;
    if (spans != nullptr && IsReceiveStep(step.kind)) {
      ready = net->PendingCount(name) > 0;
    }
    const Clock::time_point begin = Clock::now();
    ppc::Status status =
        ppc::ExecuteScheduleStep(schedule, step, holder, third_party);
    const Clock::time_point end = Clock::now();
    totals->AddStep(schedule, step, ready, MillisBetween(begin, end));
    if (spans != nullptr) {
      spans->push_back({job, party, ppc::StepKindToString(step.kind),
                        step.phase, step.column, ready.value_or(false), begin,
                        end});
    }
    PPC_RETURN_IF_ERROR(status);
  }
  return ppc::Status::OK();
}

}  // namespace

ppc::Result<std::unique_ptr<Fleet>> Fleet::Create(
    const WorkloadInputs* inputs) {
  std::unique_ptr<Fleet> fleet(new Fleet(inputs));
  const std::vector<std::string> names = fleet->PartyNames();
  for (const std::string& name : names) {
    PPC_ASSIGN_OR_RETURN(std::unique_ptr<ppc::TcpNetwork> endpoint,
                         ppc::TcpNetwork::Create({}));
    endpoint->set_receive_timeout(kReceiveTimeout);
    PPC_RETURN_IF_ERROR(endpoint->RegisterParty(name));
    fleet->endpoints_.push_back(std::move(endpoint));
  }
  for (size_t i = 0; i < names.size(); ++i) {
    for (size_t j = 0; j < names.size(); ++j) {
      if (i == j) continue;
      PPC_RETURN_IF_ERROR(fleet->endpoints_[i]->AddRemoteParty(
          names[j], "127.0.0.1", fleet->endpoints_[j]->listen_port()));
    }
  }
  // First contact: one frame from every party to every peer dials and
  // authenticates each connection before the first job, as a resident
  // fleet has done long before a job arrives.
  for (size_t i = 0; i < names.size(); ++i) {
    for (size_t j = 0; j < names.size(); ++j) {
      if (i == j) continue;
      PPC_RETURN_IF_ERROR(fleet->endpoints_[i]->SendOn(
          kSetupSession, names[i], names[j], kSetupTopic, names[i]));
    }
  }
  for (size_t i = 0; i < names.size(); ++i) {
    for (size_t j = 0; j < names.size(); ++j) {
      if (i == j) continue;
      PPC_ASSIGN_OR_RETURN(ppc::Message hello,
                           fleet->endpoints_[j]->ReceiveOn(
                               kSetupSession, names[j], names[i],
                               kSetupTopic));
      if (hello.payload != names[i]) {
        return ppc::Status::DataLoss("setup frame from '" + names[i] +
                                     "' arrived altered");
      }
    }
  }
  // Each holder validates its partition at startup, as `serve` loads its
  // CSV before taking jobs.
  for (size_t h = 0; h < inputs->partitions.size(); ++h) {
    ppc::DataHolder holder(names[h + 1], fleet->endpoints_[h + 1].get(),
                           inputs->config, HolderEntropy(h));
    PPC_RETURN_IF_ERROR(holder.SetData(inputs->partitions[h]));
  }
  for (const auto& endpoint : fleet->endpoints_) {
    fleet->registries_.push_back(
        std::make_unique<ppc::SessionRegistry>(endpoint.get()));
  }
  return fleet;
}

std::vector<std::string> Fleet::PartyNames() const {
  std::vector<std::string> names = {inputs_->plan.third_party};
  names.insert(names.end(), inputs_->plan.holder_order.begin(),
               inputs_->plan.holder_order.end());
  return names;
}

ppc::SessionRegistry::SessionBody Fleet::Body(size_t party, JobState* job,
                                              Tracer* tracer) const {
  const WorkloadInputs* in = inputs_;
  return [in, party, job, tracer, names = PartyNames()](
             ppc::Network* net, ppc::CancelToken* cancel) {
    cancel->ArmDeadline(kJobDeadlineMs);
    const std::string& name = names[party];
    const uint32_t job_index = job->trace_job;
    const uint32_t party_index = static_cast<uint32_t>(party);
    LayerTotals totals;
    std::vector<Span> spans;
    std::vector<Span>* kept = tracer != nullptr && job->keep ? &spans : nullptr;
    auto timed = [&](const char* what, double* ms, auto&& call) {
      const Clock::time_point begin = Clock::now();
      auto result = call();
      const Clock::time_point end = Clock::now();
      *ms += MillisBetween(begin, end);
      if (kept != nullptr) {
        kept->push_back({job_index, party_index, what, 0, ppc::kNoColumn,
                         false, begin, end});
      }
      return result;
    };
    ppc::Status status = [&]() -> ppc::Status {
      if (party == 0) {
        ppc::ThirdParty third_party(name, net, in->config, in->schema,
                                    kThirdPartyEntropy);
        third_party.BindCancelToken(cancel);
        PPC_RETURN_IF_ERROR(
            tracer != nullptr
                ? RunPartyTraced(*in, name, nullptr, &third_party, net,
                                 job_index, party_index, &totals, kept)
                : ppc::PartyRunner::RunThirdParty(&third_party, in->plan,
                                                  in->schema));
        return timed("ServeClusterRequest", &totals.serve_ms, [&] {
          return third_party.ServeClusterRequest(in->plan.holder_order[0]);
        });
      }
      const size_t h = party - 1;
      ppc::DataHolder holder(name, net, in->config, HolderEntropy(h));
      holder.BindCancelToken(cancel);
      PPC_RETURN_IF_ERROR(holder.SetData(in->partitions[h]));
      PPC_RETURN_IF_ERROR(
          tracer != nullptr
              ? RunPartyTraced(*in, name, &holder, nullptr, net, job_index,
                               party_index, &totals, kept)
              : ppc::PartyRunner::RunHolder(&holder, in->plan, in->schema));
      if (h != 0) return ppc::Status::OK();
      ppc::Result<ppc::ClusteringOutcome> outcome =
          timed("RequestClustering", &totals.request_ms, [&] {
            return ppc::PartyRunner::RequestClustering(&holder, in->plan,
                                                       in->request);
          });
      if (!outcome.ok()) return outcome.status();
      ppc::ByteWriter writer;
      outcome->Serialize(&writer);
      job->outcome = writer.TakeBytes();
      return ppc::Status::OK();
    }();
    // This party's sends are complete and accounted once its body is done.
    job->sent[party] = SentBy(net, name, names);
    if (tracer != nullptr) {
      if (job->keep) job->grand[party] = net->GrandTotal();
      tracer->AddTotals(totals);
      tracer->AddSpans(std::move(spans));
    }
    return status;
  };
}

JobResult Fleet::RunJob(Tracer* tracer) {
  const size_t parties = endpoints_.size();
  JobState job;
  job.session = "job-" + std::to_string(next_session_.fetch_add(1));
  job.sent.resize(parties);
  job.grand.resize(parties);
  if (tracer != nullptr) {
    job.trace_job = tracer->BeginJob(job.session);
    job.keep = job.trace_job < Tracer::kKeptJobs;
  }
  LayerTotals calls;
  calls.classified_jobs = job.keep ? 1 : 0;
  std::vector<Span> spans;
  auto record = [&](const char* what, size_t party, Clock::time_point begin,
                    Clock::time_point end) {
    if (tracer != nullptr && job.keep) {
      spans.push_back({job.trace_job, static_cast<uint32_t>(party), what, 0,
                       ppc::kNoColumn, false, begin, end});
    }
  };

  JobResult result;
  const Clock::time_point job_begin = Clock::now();
  size_t started = 0;
  for (; started < parties; ++started) {
    const Clock::time_point begin = Clock::now();
    ppc::Status status = registries_[started]->StartSession(
        job.session, Body(started, &job, tracer));
    const Clock::time_point end = Clock::now();
    calls.start_us += MicrosBetween(begin, end);
    ++calls.starts;
    record("StartSession", started, begin, end);
    if (!status.ok()) {
      result.status = status;
      for (size_t p = 0; p < started; ++p) {
        (void)registries_[p]->CancelSession(job.session, status);
      }
      break;
    }
  }
  for (size_t p = 0; p < started; ++p) {
    const Clock::time_point begin = Clock::now();
    ppc::Status status = registries_[p]->WaitSession(job.session);
    record("WaitSession", p, begin, Clock::now());
    if (!status.ok() && result.status.ok()) {
      result.status = status;
      // Unwedge the job's other parties now instead of at their timeout.
      for (size_t q = p + 1; q < started; ++q) {
        (void)registries_[q]->CancelSession(job.session, status);
      }
    }
  }
  if (result.status.ok() && job.outcome != inputs_->reference_outcome) {
    result.status = ppc::Status::DataLoss(
        "session '" + job.session +
        "' published an outcome that differs from the reference");
  }
  result.latency_ms = MillisBetween(job_begin, Clock::now());

  for (size_t p = 0; p < parties; ++p) {
    AddStats(&result.sent, job.sent[p]);
    AddStats(&result.grand_total, job.grand[p]);
  }
  if (tracer != nullptr) {
    result.taps = tracer->EndJob(job.session);
    result.has_grand_total = job.keep;
    tracer->AddTotals(calls);
    tracer->AddSpans(std::move(spans));
  }
  return result;
}

void Fleet::InstallTaps(Tracer* tracer) {
  const std::vector<std::string> names = PartyNames();
  for (size_t i = 0; i < names.size(); ++i) {
    for (size_t j = 0; j < names.size(); ++j) {
      if (i == j) continue;
      endpoints_[i]->AddTap(names[i], names[j],
                            [tracer](const ppc::WireFrame& frame) {
                              tracer->OnFrame(frame);
                            });
    }
  }
}

double Fleet::ActiveCountMicros(int calls, size_t* active) const {
  *active = 0;
  const Clock::time_point begin = Clock::now();
  for (const auto& registry : registries_) {
    for (int c = 0; c < calls; ++c) *active += registry->ActiveCount();
  }
  const Clock::time_point end = Clock::now();
  return MicrosBetween(begin, end) /
         static_cast<double>(calls * registries_.size());
}

}  // namespace perfbench

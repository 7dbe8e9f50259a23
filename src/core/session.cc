#include "core/session.h"

namespace ppc {

ClusteringSession::ClusteringSession(Network* network,
                                     ProtocolConfig config, Schema schema)
    : network_(network),
      config_(std::move(config)),
      schema_(std::move(schema)) {}

Status ClusteringSession::SetThirdParty(ThirdParty* third_party) {
  if (third_party_ != nullptr) {
    return Status::FailedPrecondition("third party already set");
  }
  PPC_RETURN_IF_ERROR(network_->RegisterParty(third_party->name()));
  third_party_ = third_party;
  return Status::OK();
}

Status ClusteringSession::AddDataHolder(DataHolder* holder) {
  for (const DataHolder* existing : holders_) {
    if (existing->name() == holder->name()) {
      return Status::AlreadyExists("holder '" + holder->name() +
                                   "' already added");
    }
  }
  PPC_RETURN_IF_ERROR(network_->RegisterParty(holder->name()));
  holders_.push_back(holder);
  return Status::OK();
}

Status ClusteringSession::ValidateSetup() const {
  if (third_party_ == nullptr) {
    return Status::FailedPrecondition("no third party set");
  }
  if (holders_.size() < 2) {
    return Status::FailedPrecondition(
        "the protocol requires at least two data holders (k >= 2)");
  }
  for (const DataHolder* holder : holders_) {
    if (!(holder->data().schema() == schema_)) {
      return Status::InvalidArgument("holder '" + holder->name() +
                                     "' data does not match session schema");
    }
  }
  return Status::OK();
}

Status ClusteringSession::Run() {
  if (ran_) return Status::FailedPrecondition("session already ran");
  PPC_RETURN_IF_ERROR(ValidateSetup());

  // Arm the end-to-end deadline and hand every party the same token, so
  // a wedged peer surfaces as a typed kDeadlineExceeded at the next
  // blocking receive or step boundary of *any* party. An externally
  // bound token (SessionRegistry's per-session token) takes precedence —
  // the registry owns cancellation for multiplexed sessions.
  cancel_.ArmDeadline(config_.deadline_ms);
  if (third_party_->cancel_token() == nullptr) {
    third_party_->BindCancelToken(&cancel_);
  }
  for (DataHolder* holder : holders_) {
    if (holder->cancel_token() == nullptr) {
      holder->BindCancelToken(&cancel_);
    }
  }

  SessionPlan plan;
  plan.holder_order.reserve(holders_.size());
  for (DataHolder* holder : holders_) {
    plan.holder_order.push_back(holder->name());
  }
  plan.third_party = third_party_->name();

  Schedule::Options options;
  options.tile_size = config_.tile_size;
  options.masking = config_.masking_mode;
  if (config_.tile_size > 0) {
    // Tile boundaries are part of the graph; in-process the object counts
    // are simply the holders' own (what phase 1 would announce).
    options.holder_objects.reserve(holders_.size());
    for (DataHolder* holder : holders_) {
      options.holder_objects.push_back(holder->NumObjects());
    }
  }
  PPC_ASSIGN_OR_RETURN(Schedule schedule,
                       Schedule::Build(plan, schema_, options));

  ScheduleExecutor executor(&schedule, third_party_, holders_);
  PPC_RETURN_IF_ERROR(
      executor.Run(ResolveNumThreads(config_.num_threads)));
  ran_ = true;
  return Status::OK();
}

Result<DataHolder*> ClusteringSession::FindHolder(
    const std::string& name) const {
  for (DataHolder* holder : holders_) {
    if (holder->name() == name) return holder;
  }
  return Status::NotFound("no data holder named '" + name + "'");
}

Result<ClusteringOutcome> ClusteringSession::RequestClustering(
    const std::string& holder_name, const ClusterRequest& request) {
  if (!ran_) {
    return Status::FailedPrecondition("session has not run yet");
  }
  PPC_ASSIGN_OR_RETURN(DataHolder * holder, FindHolder(holder_name));
  PPC_RETURN_IF_ERROR(
      holder->SendClusterRequest(third_party_->name(), request));
  PPC_RETURN_IF_ERROR(third_party_->ServeClusterRequest(holder_name));
  return holder->ReceiveClusterOutcome(third_party_->name());
}

}  // namespace ppc

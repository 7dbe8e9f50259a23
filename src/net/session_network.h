#ifndef PPC_NET_SESSION_NETWORK_H_
#define PPC_NET_SESSION_NETWORK_H_

#include <string>
#include <utility>

#include "common/status.h"
#include "net/network.h"

namespace ppc {

/// A `Network` view that binds one session id over a shared transport:
/// its plain spellings (`Send`, `Receive`, `PendingCount`, ...) act on the
/// bound session (see `Network`'s binding). The protocol stack — parties,
/// schedule executors, `PartyRunner` — takes a `Network*` and knows
/// nothing about sessions; handing it one of these runs an entire
/// clustering session multiplexed over whatever transport (and, on TCP,
/// whatever pooled connections) the base provides. `SessionRegistry`
/// creates one view per concurrent session.
///
/// The core forwards to the base unchanged, so the explicit `...On`
/// spellings and the transport-global calls (`ResetStats`, the receive
/// timeout) behave exactly as on the base. The one difference:
/// `RegisterParty` tolerates kAlreadyExists, because parties belong to the
/// transport, not the session, and N concurrent sessions share them.
///
/// The view holds no state beyond the id; it is as thread-safe as the
/// base and must not outlive it.
class SessionNetwork : public ForwardingNetwork {
 public:
  SessionNetwork(Network* base, std::string session)
      : ForwardingNetwork(base, std::move(session)) {}

  Status RegisterParty(const std::string& name) override {
    Status status = base_->RegisterParty(name);
    if (status.code() == StatusCode::kAlreadyExists) return Status::OK();
    return status;
  }
};

}  // namespace ppc

#endif  // PPC_NET_SESSION_NETWORK_H_

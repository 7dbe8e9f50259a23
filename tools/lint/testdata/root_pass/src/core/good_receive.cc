// Pass fixture for the cancel-guarded-receive rule: the sanctioned
// spellings outside src/net/ — every receive names its cancel token (a
// real one or an explicit null one). The bare "Receive(to, from)" in this
// comment is commentary, not code, and must not fire.
#include "core/topics.h"

namespace ppc {

void AwaitPeer(Network* network, const CancelToken* cancel) {
  (void)network->Receive("tp", "dh1", topics::kDhPublic, cancel);
  (void)network->ReceiveOn(Join("s", "1"), "tp", "dh1", topics::kDhPublic,
                           /*cancel=*/nullptr);
}

}  // namespace ppc

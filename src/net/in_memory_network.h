#ifndef PPC_NET_IN_MEMORY_NETWORK_H_
#define PPC_NET_IN_MEMORY_NETWORK_H_

#include <string>

#include "common/result.h"
#include "common/status.h"
#include "net/channel_transport.h"

namespace ppc {

/// In-memory `Network` backend: every party lives in one process and
/// frames hop queues instead of sockets.
///
/// Models the paper's distributed deployment: k data-holder sites plus the
/// third party exchanging point-to-point messages. Delivery is FIFO per
/// (session, sender, receiver) triple. Every frame updates byte counters,
/// which is what the communication-cost experiments (DESIGN.md E8-E10, E13)
/// measure, and registered eavesdropper taps observe exactly the on-wire
/// bytes, which is what the channel-security experiment (E12) needs.
///
/// Thread-safe: the concurrent protocol engine drives several party steps
/// at once, so per-receiver queues are mutex-protected, traffic counters
/// are atomic, and `Receive` can optionally block until a matching frame
/// arrives (see `set_receive_timeout`) on the condition variable of its
/// own `(session, sender)` queue, so a frame wakes only its receiver.
/// Encryption and MAC verification run outside all locks, so senders on
/// distinct channels do not serialize on the crypto work. (All of that
/// machinery is the shared `ChannelTransport` base; this class only adds
/// in-process routing.)
class InMemoryNetwork : public ChannelTransport {
 public:
  explicit InMemoryNetwork(
      TransportSecurity security = TransportSecurity::kAuthenticatedEncryption);

  Status RegisterParty(const std::string& name) override
      EXCLUDES(registry_mutex_);
  bool HasParty(const std::string& name) const override
      EXCLUDES(registry_mutex_);
  Status SendOn(const std::string& session, const std::string& from,
                const std::string& to, const std::string& topic,
                std::string payload) override EXCLUDES(registry_mutex_);
  Status InjectFrameOn(const std::string& session, const std::string& from,
                       const std::string& to, const std::string& topic,
                       std::string wire_bytes) override
      EXCLUDES(registry_mutex_);

 private:
  /// Resolves sender, receiver endpoint, and channel state (created on
  /// first use) in one registry lock — Send's whole routing lookup.
  Status ResolveRoute(const std::string& session, const std::string& from,
                      const std::string& to, Endpoint** receiver,
                      ChannelState** channel) EXCLUDES(registry_mutex_);
};

}  // namespace ppc

#endif  // PPC_NET_IN_MEMORY_NETWORK_H_

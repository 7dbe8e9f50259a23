#ifndef PPC_NET_MESSAGE_H_
#define PPC_NET_MESSAGE_H_

#include <string>

namespace ppc {

/// The logical session id of the single-session deployments that predate
/// session multiplexing. On a transport (an unbound `Network`) the plain
/// `Send`, `Receive` and `InjectFrame` use this session; the `...On`
/// spellings take an explicit id. Default-session traffic is byte-identical to the pre-multiplexing
/// wire format's, so captures and goldens carry over.
inline constexpr char kDefaultSession[] = "";

/// A protocol message between two named parties.
///
/// `topic` identifies the protocol step (e.g. "numeric.masked_vector") so a
/// receiver can assert it is getting the message it expects; `payload` is an
/// opaque byte string produced by `ByteWriter`.
///
/// `session` names the logical clustering session the message belongs to;
/// concurrent sessions multiplexed over one transport are demultiplexed by
/// this field (empty = the default session). Declared last so existing
/// four-field aggregate initializers keep meaning what they meant.
struct Message {
  std::string from;
  std::string to;
  std::string topic;
  std::string payload;
  std::string session;
};

/// What an eavesdropper on a channel observes for one message: the frame
/// actually on the wire (ciphertext when the transport is secured), plus
/// the session it was sent on.
struct WireFrame {
  std::string from;
  std::string to;
  std::string topic;
  std::string wire_bytes;
  std::string session;
};

/// The channel context every receive-side failure carries, so a stuck,
/// misrouted or hostile frame reads as "who was waiting on whom, for
/// what": " (session 's', from -> to, topic 't')".
inline std::string ChannelContext(const std::string& session,
                                  const std::string& from,
                                  const std::string& to,
                                  const std::string& topic) {
  std::string out = " (session '" + session + "', " + from + " -> " + to;
  if (!topic.empty()) out += ", topic '" + topic + "'";
  out += ")";
  return out;
}

/// Cumulative traffic counters for one directed channel.
struct ChannelStats {
  uint64_t messages = 0;
  /// Bytes of application payload (pre-encryption).
  uint64_t payload_bytes = 0;
  /// Bytes on the wire (includes nonce/MAC overhead when secured).
  uint64_t wire_bytes = 0;
};

}  // namespace ppc

#endif  // PPC_NET_MESSAGE_H_

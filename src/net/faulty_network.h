#ifndef PPC_NET_FAULTY_NETWORK_H_
#define PPC_NET_FAULTY_NETWORK_H_

#include <cstdint>
#include <map>
#include <string>
#include <tuple>

#include "common/result.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "net/network.h"

namespace ppc {

/// One chaos recipe: per-frame fault probabilities (evaluated from a
/// deterministic per-channel random stream) plus a per-channel frame
/// budget. Probabilities are in [0, 1] and are checked in severity
/// order — disconnect, drop, corrupt, reorder, duplicate, delay — so at
/// most one fault fires per frame.
struct FaultProfile {
  /// Frame silently vanishes: the receiver eventually times out with
  /// `kUnavailable` (or `kDeadlineExceeded` under a session deadline).
  double drop_probability = 0.0;
  /// Frame is delivered late: the sending thread sleeps a seeded amount
  /// in [1, max_delay_ms] first. Faults nothing semantically — sessions
  /// complete bit-identically, just slower (the lossy-WAN profile).
  double delay_probability = 0.0;
  uint64_t max_delay_ms = 0;
  /// The sealed wire bytes are delivered twice. On an authenticated
  /// transport the replay shows up as a typed integrity failure at the
  /// receiver, never as silent double-processing.
  double duplicate_probability = 0.0;
  /// Frame is held back and delivered after the channel's next frame
  /// (both sealed in delivery order, so each frame is individually
  /// valid). A held frame with no successor is dropped at session end.
  double reorder_probability = 0.0;
  /// Seeded garbage replaces the sealed frame: MAC verification fails at
  /// the receiver with `kDataLoss`.
  double corrupt_probability = 0.0;
  /// After this many frames a channel behaves like a dead peer: every
  /// later send fails fast with `kUnavailable` and delivers nothing.
  /// 0 = never disconnect.
  uint64_t disconnect_after_frames = 0;

  /// Jittery but lossless WAN: ~15% of frames delayed up to 3 ms. Every
  /// suite passes unchanged under this profile — it only stretches time.
  static FaultProfile LossyWan() {
    FaultProfile p;
    p.delay_probability = 0.15;
    p.max_delay_ms = 3;
    return p;
  }

  /// A peer that dies mid-protocol: each channel goes dark after 25
  /// frames. Sessions must fail with a typed Status, not hang.
  static FaultProfile CrashyPeer() {
    FaultProfile p;
    p.disconnect_after_frames = 25;
    return p;
  }
};

/// Parses "lossy-wan" / "crashy-peer" / "none" (the PPC_CHAOS_PROFILE
/// env values and CLI spellings) into a profile.
Result<FaultProfile> FaultProfileFromName(const std::string& name);

/// Deterministic chaos wrapper: a `ppc::Network` that forwards to any
/// backend while injecting a seeded per-channel fault schedule on the
/// send path. Wraps the in-memory simulator and the TCP transport alike,
/// and composes with `SessionNetwork` (parties talk to the wrapper; the
/// registry's views can bind sessions over it), so every net/core/session
/// suite re-runs under injected faults without code changes. Like a
/// transport, the wrapper itself is unbound.
///
/// Determinism: each directed channel `(session, from, to)` owns a
/// splitmix64 stream seeded from (seed, session, from, to), and each
/// frame consumes draws in a fixed order — so a failing (seed, profile)
/// pair replays exactly, regardless of thread interleaving across
/// channels.
///
/// Faults act on the *send* path only (where the wire bytes are born):
/// `SendOn` carries the chaos and `PurgeSession` drops its state; the rest
/// of the core forwards untouched. Receivers experience faults as the
/// protocol would on a real bad network — a missing frame (timeout), a
/// corrupt frame (integrity failure), an unexpected frame (protocol
/// violation).
///
/// Thread-safe: per-channel chaos state lives under one mutex; sleeps
/// and base-network calls happen outside it.
class FaultyNetwork : public ForwardingNetwork {
 public:
  /// Wraps `base` (not owned, must outlive the wrapper).
  FaultyNetwork(Network* base, FaultProfile profile, uint64_t seed);

  /// Frames whose chaos decision actually fired, by class — lets tests
  /// assert the schedule did something and print reproduction hints.
  struct FaultCounts {
    uint64_t dropped = 0;
    uint64_t delayed = 0;
    uint64_t duplicated = 0;
    uint64_t reordered = 0;
    uint64_t corrupted = 0;
    uint64_t disconnected = 0;
  };
  FaultCounts fault_counts() const EXCLUDES(chaos_mutex_);

  Status SendOn(const std::string& session, const std::string& from,
                const std::string& to, const std::string& topic,
                std::string payload) override EXCLUDES(chaos_mutex_);

  /// Forwards to the base after dropping the wrapper's own per-channel
  /// chaos state for `session` (frame counters, held reorder frames).
  void PurgeSession(const std::string& session) override
      EXCLUDES(chaos_mutex_);

 private:
  /// (session, from, to), same identity as the transport's channels.
  using ChannelKey = std::tuple<std::string, std::string, std::string>;

  /// Chaos state of one directed channel.
  struct ChannelChaos {
    uint64_t rng_state = 0;   // splitmix64 stream, seeded per channel.
    uint64_t frames_sent = 0; // Frames offered to this channel so far.
    bool holding = false;     // A reorder victim awaits the next frame.
    std::string held_topic;
    std::string held_payload;
    std::string last_wire;    // Sealed bytes of the last real send.
  };

  /// The per-frame chaos decision, resolved under the lock.
  enum class FaultKind {
    kNone,
    kDrop,
    kDelay,
    kDuplicate,
    kReorder,
    kCorrupt,
    kDisconnect
  };
  struct Decision {
    FaultKind kind = FaultKind::kNone;
    uint64_t delay_ms = 0;
    std::string corrupt_bytes;
    /// Reorder: the previously held frame to release after this one.
    bool release_held = false;
    std::string held_topic;
    std::string held_payload;
    /// First frame of a channel that may duplicate: install the
    /// wire-capture tap (outside the chaos lock) before sending.
    bool register_tap = false;
  };

  Decision Decide(const std::string& session, const std::string& from,
                  const std::string& to, const std::string& topic,
                  const std::string& payload) EXCLUDES(chaos_mutex_);

  FaultProfile profile_;
  uint64_t seed_;

  mutable Mutex chaos_mutex_;
  std::map<ChannelKey, ChannelChaos> channels_ GUARDED_BY(chaos_mutex_);
  FaultCounts counts_ GUARDED_BY(chaos_mutex_);
};

}  // namespace ppc

#endif  // PPC_NET_FAULTY_NETWORK_H_

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/thread_annotations.h"
#include "core/schedule.h"
#include "net/message.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MillisBetween(Clock::time_point begin, Clock::time_point end) {
  return std::chrono::duration<double, std::milli>(end - begin).count();
}

/// One timed call into a layer, recorded from the benchmark's side of the
/// call: a schedule step, or a registry/cluster entry point.
struct Span {
  uint32_t job = 0;    // Traced-job index (the session's place in the run).
  uint32_t party = 0;  // Roster index: 0 = third party, 1.. = holders.
  const char* name = "";
  int phase = 0;       // Paper phase of a step span; 0 otherwise.
  size_t column = ppc::kNoColumn;
  /// Receive steps: a frame for the party was already pending at the call.
  bool ready = false;
  Clock::time_point begin;
  Clock::time_point end;
};

/// Per-job layer totals, all parties summed. Rows are views, not a
/// partition of the job's time: a categorical send step counts in both
/// `categorical_ms` and `send_ms`. The phase rows do partition the step
/// time.
struct LayerTotals {
  double phase_ms[ppc::kLastPhase + 1] = {};
  uint64_t steps = 0;
  double local_matrix_build_ms = 0;
  double comparison_init_ms = 0;
  double comparison_build_numeric_ms = 0;
  double comparison_build_alnum_ms = 0;
  double categorical_ms = 0;
  double comparison_install_ms = 0;
  double normalize_ms = 0;
  double send_ms = 0;
  /// Receive steps of the jobs whose spans are kept (`classified_jobs`):
  /// `PendingCountOn` scans every queue its endpoint ever opened, so it is
  /// asked only there.
  double recv_ready_ms = 0;
  double recv_wait_ms = 0;
  uint64_t classified_jobs = 0;
  uint64_t dh_ops = 0;
  double serve_ms = 0;
  double request_ms = 0;
  double start_us = 0;
  uint64_t starts = 0;

  /// Accounts one executed schedule step; `ready` is set on the receive
  /// steps of classified jobs.
  void AddStep(const ppc::Schedule& schedule, const ppc::ScheduleStep& step,
               std::optional<bool> ready, double ms);
  void Merge(const LayerTotals& other);
};

/// True for the steps whose primary action is a network receive. The
/// Diffie-Hellman receive is left out: its time is the modexp that
/// follows the receive (`crypto.dh_ops`, `core.phase2_ms`).
bool IsReceiveStep(ppc::StepKind kind);

/// One frame seen by a channel tap.
struct TappedFrame {
  std::string from;
  std::string to;
  std::string topic;
  uint64_t wire_bytes = 0;
};

/// What the taps saw of one session.
struct JobTaps {
  uint64_t frames = 0;
  uint64_t wire_bytes = 0;
  /// Index 1..6: paper phase of the frame's topic; index 0: topics outside
  /// the schedule (the clustering request and its outcome).
  uint64_t phase_wire_bytes[ppc::kLastPhase + 1] = {};
  /// Every frame in send order, kept for the Seal/Open replay.
  std::vector<TappedFrame> frame_list;
};

/// Collects the traced run: spans and layer totals from the party bodies,
/// and per-session frame counts from one tap per directed channel. Spans
/// stay in memory; `WriteChromeTrace` writes them when the run ends. All
/// methods are thread-safe.
class Tracer {
 public:
  /// Spans of this many traced jobs are kept for the trace file; later
  /// jobs still count in the layer totals.
  static constexpr uint32_t kKeptJobs = 64;

  Tracer(std::map<std::string, int> topic_phases,
         std::vector<std::string> party_names);

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Tap callback for every frame of every session on a tapped channel.
  void OnFrame(const ppc::WireFrame& frame) EXCLUDES(mutex_);

  /// Starts accounting the frames of `session`; returns its job index.
  uint32_t BeginJob(const std::string& session) EXCLUDES(mutex_);
  /// Stops accounting `session` and returns what its taps saw.
  JobTaps EndJob(const std::string& session) EXCLUDES(mutex_);

  void AddTotals(const LayerTotals& totals) EXCLUDES(mutex_);
  void AddSpans(std::vector<Span> spans) EXCLUDES(mutex_);

  LayerTotals totals() const EXCLUDES(mutex_);
  /// Frames seen on sessions no traced job had begun (must stay 0 once
  /// taps are installed only around traced jobs).
  uint64_t stray_frames() const EXCLUDES(mutex_);

  /// Writes the kept spans as Chrome trace-event JSON (load in
  /// chrome://tracing or Perfetto). `other_data` is a JSON object
  /// recorded verbatim as the file's metadata.
  ppc::Status WriteChromeTrace(const std::string& path,
                               const std::string& other_data) const
      EXCLUDES(mutex_);

 private:
  const std::map<std::string, int> topic_phases_;
  const std::vector<std::string> party_names_;
  const Clock::time_point origin_ = Clock::now();

  mutable ppc::Mutex mutex_;
  uint32_t next_job_ GUARDED_BY(mutex_) = 0;
  std::map<std::string, JobTaps> open_jobs_ GUARDED_BY(mutex_);
  std::map<std::pair<std::string, std::string>, std::pair<uint64_t, uint64_t>>
      channel_totals_ GUARDED_BY(mutex_);  // {frames, wire bytes}
  uint64_t stray_frames_ GUARDED_BY(mutex_) = 0;
  LayerTotals totals_ GUARDED_BY(mutex_);
  std::vector<Span> spans_ GUARDED_BY(mutex_);
};

/// Replays `frames` through `SecureChannel` Seal then Open, one cached
/// context per directed channel as the transport keeps them, and returns
/// the milliseconds spent. Fails if a frame does not open to what was
/// sealed.
ppc::Status ReplaySealOpen(const std::vector<TappedFrame>& frames,
                           const std::string& session, double* ms);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_

#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <memory>

#include "net/secure_channel.h"

namespace perfbench {

bool IsReceiveStep(ppc::StepKind kind) {
  switch (kind) {
    case ppc::StepKind::kReceiveHellos:
    case ppc::StepKind::kReceiveRoster:
    case ppc::StepKind::kCategoricalKeyReceive:
    case ppc::StepKind::kLocalMatrixReceive:
    case ppc::StepKind::kComparisonReceive:
    case ppc::StepKind::kComparisonCollect:
    case ppc::StepKind::kCategoricalTokensReceive:
      return true;
    default:
      return false;
  }
}

namespace {

bool IsSendStep(ppc::StepKind kind) {
  switch (kind) {
    case ppc::StepKind::kHello:
    case ppc::StepKind::kBroadcastRoster:
    case ppc::StepKind::kDhSend:
    case ppc::StepKind::kCategoricalKeySend:
    case ppc::StepKind::kLocalMatrixSend:
    case ppc::StepKind::kComparisonSend:
    case ppc::StepKind::kCategoricalTokensSend:
      return true;
    default:
      return false;
  }
}

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

}  // namespace

void LayerTotals::AddStep(const ppc::Schedule& schedule,
                          const ppc::ScheduleStep& step,
                          std::optional<bool> ready, double ms) {
  ++steps;
  if (step.phase >= 1 && step.phase <= ppc::kLastPhase) {
    phase_ms[step.phase] += ms;
  }
  switch (step.kind) {
    case ppc::StepKind::kLocalMatrixBuild:
      local_matrix_build_ms += ms;
      break;
    case ppc::StepKind::kComparisonInit:
      comparison_init_ms += ms;
      break;
    case ppc::StepKind::kComparisonBuild:
      (schedule.IsNumericColumn(step.column) ? comparison_build_numeric_ms
                                             : comparison_build_alnum_ms) +=
          ms;
      break;
    case ppc::StepKind::kCategoricalTokensSend:
    case ppc::StepKind::kCategoricalTokensReceive:
    case ppc::StepKind::kCategoricalFinalize:
      categorical_ms += ms;
      break;
    case ppc::StepKind::kComparisonInstall:
      comparison_install_ms += ms;
      break;
    case ppc::StepKind::kNormalize:
      normalize_ms += ms;
      break;
    case ppc::StepKind::kDhReceive:
      ++dh_ops;
      break;
    default:
      break;
  }
  if (IsSendStep(step.kind)) send_ms += ms;
  if (ready.has_value()) (*ready ? recv_ready_ms : recv_wait_ms) += ms;
}

void LayerTotals::Merge(const LayerTotals& other) {
  for (int p = 0; p <= ppc::kLastPhase; ++p) phase_ms[p] += other.phase_ms[p];
  steps += other.steps;
  local_matrix_build_ms += other.local_matrix_build_ms;
  comparison_init_ms += other.comparison_init_ms;
  comparison_build_numeric_ms += other.comparison_build_numeric_ms;
  comparison_build_alnum_ms += other.comparison_build_alnum_ms;
  categorical_ms += other.categorical_ms;
  comparison_install_ms += other.comparison_install_ms;
  normalize_ms += other.normalize_ms;
  send_ms += other.send_ms;
  recv_ready_ms += other.recv_ready_ms;
  recv_wait_ms += other.recv_wait_ms;
  classified_jobs += other.classified_jobs;
  dh_ops += other.dh_ops;
  serve_ms += other.serve_ms;
  request_ms += other.request_ms;
  start_us += other.start_us;
  starts += other.starts;
}

Tracer::Tracer(std::map<std::string, int> topic_phases,
               std::vector<std::string> party_names)
    : topic_phases_(std::move(topic_phases)),
      party_names_(std::move(party_names)) {}

void Tracer::OnFrame(const ppc::WireFrame& frame) {
  auto phase_it = topic_phases_.find(frame.topic);
  const int phase = phase_it == topic_phases_.end() ? 0 : phase_it->second;
  const uint64_t bytes = frame.wire_bytes.size();
  ppc::MutexLock lock(mutex_);
  auto it = open_jobs_.find(frame.session);
  if (it == open_jobs_.end()) {
    ++stray_frames_;
    return;
  }
  JobTaps& taps = it->second;
  ++taps.frames;
  taps.wire_bytes += bytes;
  taps.phase_wire_bytes[phase] += bytes;
  taps.frame_list.push_back({frame.from, frame.to, frame.topic, bytes});
  auto& channel = channel_totals_[{frame.from, frame.to}];
  ++channel.first;
  channel.second += bytes;
}

uint32_t Tracer::BeginJob(const std::string& session) {
  ppc::MutexLock lock(mutex_);
  open_jobs_[session];
  return next_job_++;
}

JobTaps Tracer::EndJob(const std::string& session) {
  ppc::MutexLock lock(mutex_);
  auto it = open_jobs_.find(session);
  if (it == open_jobs_.end()) return JobTaps{};
  JobTaps taps = std::move(it->second);
  open_jobs_.erase(it);
  return taps;
}

void Tracer::AddTotals(const LayerTotals& totals) {
  ppc::MutexLock lock(mutex_);
  totals_.Merge(totals);
}

void Tracer::AddSpans(std::vector<Span> spans) {
  ppc::MutexLock lock(mutex_);
  for (Span& span : spans) {
    if (span.job < kKeptJobs) spans_.push_back(span);
  }
}

LayerTotals Tracer::totals() const {
  ppc::MutexLock lock(mutex_);
  return totals_;
}

uint64_t Tracer::stray_frames() const {
  ppc::MutexLock lock(mutex_);
  return stray_frames_;
}

ppc::Status Tracer::WriteChromeTrace(const std::string& path,
                                     const std::string& other_data) const {
  std::unique_ptr<std::FILE, int (*)(std::FILE*)> file(
      std::fopen(path.c_str(), "w"), &std::fclose);
  if (file == nullptr) {
    return ppc::Status::Unavailable("cannot write trace file '" + path + "'");
  }
  ppc::MutexLock lock(mutex_);
  std::FILE* out = file.get();
  std::fprintf(out, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
  bool first = true;
  auto separator = [&] {
    if (!first) std::fputs(",\n", out);
    first = false;
  };
  uint32_t jobs = 0;
  for (const Span& span : spans_) jobs = std::max(jobs, span.job + 1);
  for (uint32_t job = 0; job < jobs; ++job) {
    for (uint32_t party = 0; party < party_names_.size(); ++party) {
      separator();
      std::fprintf(out,
                   "{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": %u, "
                   "\"tid\": %u, \"args\": {\"name\": %s}}",
                   job, party, JsonString(party_names_[party]).c_str());
    }
  }
  for (const Span& span : spans_) {
    separator();
    const double ts =
        std::chrono::duration<double, std::micro>(span.begin - origin_)
            .count();
    const double dur =
        std::chrono::duration<double, std::micro>(span.end - span.begin)
            .count();
    std::fprintf(out,
                 "{\"name\": %s, \"cat\": \"%s\", \"ph\": \"X\", \"ts\": "
                 "%.3f, \"dur\": %.3f, \"pid\": %u, \"tid\": %u, \"args\": "
                 "{\"phase\": %d, \"column\": %lld, \"ready\": %s}}",
                 JsonString(span.name).c_str(),
                 span.phase > 0 ? "step" : "call", ts, dur, span.job,
                 span.party, span.phase,
                 span.column == ppc::kNoColumn
                     ? -1LL
                     : static_cast<long long>(span.column),
                 span.ready ? "true" : "false");
  }
  std::fprintf(out, "\n], \"otherData\": {\"run\": %s, \"channels\": {",
               other_data.c_str());
  bool first_channel = true;
  for (const auto& [channel, counts] : channel_totals_) {
    std::fprintf(out, "%s%s: {\"frames\": %llu, \"wire_bytes\": %llu}",
                 first_channel ? "" : ", ",
                 JsonString(channel.first + "->" + channel.second).c_str(),
                 static_cast<unsigned long long>(counts.first),
                 static_cast<unsigned long long>(counts.second));
    first_channel = false;
  }
  std::fprintf(out, "}}}\n");
  if (std::ferror(out) != 0) {
    return ppc::Status::Unavailable("error writing trace file '" + path + "'");
  }
  return ppc::Status::OK();
}

ppc::Status ReplaySealOpen(const std::vector<TappedFrame>& frames,
                           const std::string& session, double* ms) {
  constexpr uint64_t kOverhead =
      ppc::SecureChannel::kNonceLength + ppc::SecureChannel::kMacLength;
  std::map<std::pair<std::string, std::string>,
           std::pair<std::unique_ptr<ppc::SecureChannel::Context>, uint64_t>>
      channels;
  for (const TappedFrame& frame : frames) {
    auto& channel = channels[{frame.from, frame.to}];
    if (channel.first == nullptr) {
      channel.first = std::make_unique<ppc::SecureChannel::Context>(
          ppc::SecureChannel::ChannelKey(ppc::SecureChannel::kMasterKey,
                                         frame.from, frame.to, session));
    }
  }
  double total = 0;
  for (const TappedFrame& frame : frames) {
    if (frame.wire_bytes < kOverhead) {
      return ppc::Status::DataLoss("tapped frame shorter than its framing");
    }
    const std::string payload(frame.wire_bytes - kOverhead, '\x5a');
    auto& channel = channels[{frame.from, frame.to}];
    const Clock::time_point begin = Clock::now();
    auto wire = channel.first->Seal(frame.topic, channel.second++, payload);
    if (!wire.ok()) return wire.status();
    auto opened = channel.first->Open(frame.topic, *wire, "replay");
    const Clock::time_point end = Clock::now();
    if (!opened.ok()) return opened.status();
    if (*opened != payload || wire->size() != frame.wire_bytes) {
      return ppc::Status::DataLoss("Seal/Open replay did not round-trip");
    }
    total += MillisBetween(begin, end);
  }
  *ms = total;
  return ppc::Status::OK();
}

}  // namespace perfbench

// The repository benchmark: runs one workload through the code path a
// `ppclust_cli serve` fleet runs per job, checks every job's outcome
// against the sequential in-process reference, and prints one JSON result
// line. See README.md in this directory for the workloads and metrics.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--trace-file PATH]
//
// --trace 0 reports the end-to-end metrics; --trace 1 reports the
// per-layer metrics of a separate traced run (and writes its spans as
// Chrome trace-event JSON to --trace-file).

#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_annotations.h"
#include "core/schedule.h"
#include "crypto/aes128.h"
#include "crypto/sha256.h"
#include "distance/kernels.h"
#include "fleet.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

// Fleet set-ups per run; `setup_s` is their median.
constexpr int kSetupRepeats = 15;
// A phase stops starting jobs after this long whatever its job count, so a
// pathologically slow build still ends within the run limit.
constexpr double kPhaseCapSeconds = 120;
// Traced jobs whose frames are replayed through Seal/Open.
constexpr size_t kReplayJobs = 8;
// ActiveCount() calls per registry for `registry.active_count_us`.
constexpr int kActiveCountCalls = 200;

struct Args {
  std::string workload;
  uint64_t seed = 0;
  int seconds = 0;
  int trace = -1;
  std::string trace_file;
};

int Usage(const std::string& error) {
  std::fprintf(stderr, "error: %s\n", error.c_str());
  std::string names;
  for (const std::string& name : WorkloadNames()) {
    names += (names.empty() ? "" : "|") + name;
  }
  std::fprintf(stderr,
               "usage: perfbench --workload %s --seed N --seconds S "
               "--trace 0|1 [--trace-file PATH]\n",
               names.c_str());
  return 2;
}

bool ParseUnsigned(const std::string& text, uint64_t* value) {
  const char* end = text.data() + text.size();
  auto [ptr, ec] = std::from_chars(text.data(), end, *value);
  return ec == std::errc() && ptr == end && !text.empty();
}

// Returns an error message, or "" when `args` is complete and valid.
std::string ParseArgs(int argc, char** argv, Args* args) {
  bool has_seed = false;
  for (int i = 1; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return "flag '" + flag + "' needs a value";
    const std::string value = argv[i + 1];
    uint64_t number = 0;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      if (!ParseUnsigned(value, &args->seed)) return "bad --seed";
      has_seed = true;
    } else if (flag == "--seconds") {
      if (!ParseUnsigned(value, &number) || number < 1 || number > 600) {
        return "--seconds must be 1..600";
      }
      args->seconds = static_cast<int>(number);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return "--trace must be 0 or 1";
      args->trace = value == "1" ? 1 : 0;
    } else if (flag == "--trace-file") {
      args->trace_file = value;
    } else {
      return "unknown flag '" + flag + "'";
    }
  }
  if (FindWorkload(args->workload) == nullptr) {
    return "unknown --workload '" + args->workload + "'";
  }
  if (!has_seed || args->seconds == 0 || args->trace < 0) {
    return "--workload, --seed, --seconds and --trace are required";
  }
  return "";
}

// Shortest decimal text that reads back as exactly `value`.
std::string Number(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[64];
  auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), value);
  return ec == std::errc() ? std::string(buf, ptr) : "null";
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

/// A latency percentile (nearest rank) and how many samples lie beyond it.
struct Percentile {
  double value = 0;
  std::string label;
  size_t beyond = 0;
};

Percentile NearestRank(const std::vector<double>& sorted, int percentile) {
  const size_t n = sorted.size();
  const size_t rank = std::max<size_t>((n * percentile + 99) / 100, 1);
  return {sorted[rank - 1], "p" + std::to_string(percentile), n - rank};
}

/// The highest of p90/p75/p50 with at least ten samples beyond it, or the
/// slowest sample when none has. Not p99: on a shared host the slowest
/// percent of jobs is set by when the host deschedules the machine's
/// vCPUs, and moves between runs of the same code by far more than p90.
Percentile TailLatency(const std::vector<double>& sorted) {
  for (int percentile : {90, 75, 50}) {
    Percentile tail = NearestRank(sorted, percentile);
    if (tail.beyond >= 10) return tail;
  }
  return {sorted.back(), "max", 0};
}

/// Confines the process to the first `cpus` CPUs it may run on (0: leaves
/// it alone). Call before starting any thread: threads inherit it. Returns
/// the number of CPUs the process may run on afterwards.
int ConfineToCpus(size_t cpus) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return 0;
  if (cpus > 0 && static_cast<size_t>(CPU_COUNT(&allowed)) > cpus) {
    cpu_set_t chosen;
    CPU_ZERO(&chosen);
    size_t taken = 0;
    for (int cpu = 0; cpu < CPU_SETSIZE && taken < cpus; ++cpu) {
      if (!CPU_ISSET(cpu, &allowed)) continue;
      CPU_SET(cpu, &chosen);
      ++taken;
    }
    if (sched_setaffinity(0, sizeof(chosen), &chosen) == 0) allowed = chosen;
  }
  return CPU_COUNT(&allowed);
}

void TrimHeap() { malloc_trim(0); }

// Resets the VmHWM watermark to the current RSS. Linux only.
void ResetPeakRss() {
  if (std::FILE* f = std::fopen("/proc/self/clear_refs", "w")) {
    std::fputs("5", f);
    std::fclose(f);
  }
}

double StatusKb(const char* key) {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  double kb = 0;
  char line[256];
  const size_t key_length = std::char_traits<char>::length(key);
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::string(line).compare(0, key_length, key) == 0) {
      kb = std::atof(line + key_length);
      break;
    }
  }
  std::fclose(f);
  return kb;
}

double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

/// One closed-loop phase: `in_flight` clients, each submitting its next
/// job when the previous one's outcome is verified.
struct Phase {
  size_t attempted = 0;
  size_t failed = 0;
  std::string first_error;
  double wall_s = 0;
  // Successful jobs in completion order: latency, and completion time
  // since the phase began.
  std::vector<double> latencies_ms;
  std::vector<double> done_s;
  std::vector<double> peak_rss_mb;   // Per job, when measured per job.
  std::vector<ppc::ChannelStats> sent;
  std::vector<JobResult> traced;  // Traced phases only; see RunPhase.

  size_t ok() const { return attempted - failed; }
  double JobsPerSecond() const {
    return wall_s > 0 ? static_cast<double>(ok()) / wall_s : 0;
  }
};

/// Runs `job_count` jobs. A failure stops further submissions: the run is
/// already incorrect, and a failed job can cost a whole receive timeout.
/// With `peak_per_job` (one job in flight), each job's peak RSS is
/// recorded.
Phase RunPhase(Fleet* fleet, size_t in_flight, size_t job_count,
               Tracer* tracer, bool peak_per_job = false) {
  Phase phase;
  ppc::Mutex mutex;
  std::atomic<size_t> next{0};
  std::atomic<bool> stop{false};
  const Clock::time_point begin = Clock::now();
  auto client = [&] {
    for (;;) {
      if (stop.load()) return;
      if (next.fetch_add(1) >= job_count) return;
      if (MillisBetween(begin, Clock::now()) / 1000 >= kPhaseCapSeconds) {
        return;
      }
      if (peak_per_job) ResetPeakRss();
      JobResult result = fleet->RunJob(tracer);
      const double peak_mb = peak_per_job ? StatusKb("VmHWM:") / 1024 : 0;
      ppc::MutexLock lock(mutex);
      ++phase.attempted;
      if (!result.status.ok()) {
        ++phase.failed;
        if (phase.first_error.empty()) {
          phase.first_error = result.status.ToString();
        }
        stop.store(true);
        continue;
      }
      phase.latencies_ms.push_back(result.latency_ms);
      phase.done_s.push_back(MillisBetween(begin, Clock::now()) / 1000);
      if (peak_per_job) phase.peak_rss_mb.push_back(peak_mb);
      phase.sent.push_back(result.sent);
      if (tracer != nullptr) {
        // Keep every job's counters, but frame lists only for the replay.
        if (phase.traced.size() >= kReplayJobs) {
          result.taps.frame_list.clear();
          result.taps.frame_list.shrink_to_fit();
        }
        phase.traced.push_back(std::move(result));
      }
    }
  };
  std::vector<std::thread> clients;
  for (size_t c = 0; c < in_flight; ++c) clients.emplace_back(client);
  for (std::thread& thread : clients) thread.join();
  phase.wall_s = MillisBetween(begin, Clock::now()) / 1000;
  return phase;
}

std::string CpuDispatchJson() {
  const ppc::DistanceKernels::Kernel rows = ppc::DistanceKernels::Active();
  std::string rows_text = ppc::DistanceKernels::KernelToString(rows);
  if (ppc::DistanceKernels::Avx2Supported() &&
      rows == ppc::DistanceKernels::Kernel::kScalar) {
    rows_text = "scalar (avx2 available; PPC_FORCE_SCALAR_KERNELS set)";
  }
  return std::string("\"aes\": \"") +
         (ppc::Aes128::AesniSupported() ? "aes-ni" : "software") +
         "\", \"sha\": \"" +
         (ppc::Sha256::ShaNiSupported() ? "sha-ni" : "software") +
         "\", \"rows\": \"" + rows_text + "\"";
}

std::string HeaderJson(const Args& args, const WorkloadSpec& spec,
                       size_t timed_jobs, int cpus) {
  return "{\"workload\": \"" + spec.name + "\", \"seed\": " +
         std::to_string(args.seed) + ", \"seconds\": " +
         std::to_string(args.seconds) + ", \"trace\": " +
         std::to_string(args.trace) + ", " + CpuDispatchJson() +
         ", \"nproc\": " + std::to_string(sysconf(_SC_NPROCESSORS_ONLN)) +
         ", \"cpus\": " + std::to_string(cpus) +
         ", \"compiler\": \"" PERFBENCH_COMPILER
         "\", \"build_type\": \"" PERFBENCH_BUILD_TYPE
         "\", \"data\": \"" + spec.data_kind + "\", \"objects\": " +
         std::to_string(spec.objects) + ", \"holders\": " +
         std::to_string(spec.holders) + ", \"masking\": \"" +
         ppc::MaskingModeToString(spec.masking) + "\", \"clusters\": " +
         std::to_string(spec.clusters) + ", \"in_flight\": " +
         std::to_string(spec.in_flight) + ", \"timed_jobs\": " +
         std::to_string(timed_jobs) +
         ", \"warmup_jobs\": " + std::to_string(spec.warmup_jobs) + "}";
}

class Report {
 public:
  void Add(const std::string& name, double value, const char* unit) {
    metrics_ += (metrics_.empty() ? "" : ", ") + std::string("\"") + name +
                "\": {\"value\": " + Number(value) + ", \"unit\": \"" + unit +
                "\"}";
  }
  void Fail(const std::string& why) {
    std::printf("# FAIL: %s\n", why.c_str());
    correct_ = false;
  }
  void Count(const Phase& phase) {
    attempted_ += phase.attempted;
    failed_ += phase.failed;
    if (phase.failed > 0) {
      Fail(std::to_string(phase.failed) + " failed job(s); first: " +
           phase.first_error);
    }
  }
  void Print() const {
    std::printf(
        "{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
        "\"metrics\": {%s}}\n",
        correct_ && failed_ == 0 ? "true" : "false", attempted_, failed_,
        metrics_.c_str());
    std::fflush(stdout);
  }

 private:
  std::string metrics_;
  bool correct_ = true;
  size_t attempted_ = 0;
  size_t failed_ = 0;
};

double MeanWireBytes(const Phase& phase) {
  if (phase.sent.empty()) return 0;
  double total = 0;
  for (const ppc::ChannelStats& stats : phase.sent) {
    total += static_cast<double>(stats.wire_bytes);
  }
  return total / static_cast<double>(phase.sent.size());
}

// Timed jobs are cut, in completion order, into up to this many windows of
// at least kMinWindowJobs jobs each; the throughput and latency metrics are
// medians over the windows, so a burst of contention on the host moves at
// most a minority of them. A run with fewer jobs is one window.
constexpr size_t kMaxWindows = 5;
constexpr size_t kMinWindowJobs = 100;

void ReportEndToEnd(const Phase& timed, double setup_s, double peak_rss_mb,
                    Report* report) {
  const size_t n = timed.latencies_ms.size();
  const size_t windows =
      std::clamp<size_t>(n / kMinWindowJobs, 1, kMaxWindows);
  std::vector<double> rates, p50s, tails;
  Percentile tail;
  double window_begin_s = 0;
  for (size_t w = 0; w < windows; ++w) {
    const size_t begin = n * w / windows, end = n * (w + 1) / windows;
    std::vector<double> sorted(timed.latencies_ms.begin() + begin,
                               timed.latencies_ms.begin() + end);
    std::sort(sorted.begin(), sorted.end());
    if (sorted.empty()) sorted.push_back(0);
    // A lone window spans the whole phase, to the last job's end.
    const double window_end_s =
        windows == 1 || end == 0 ? timed.wall_s : timed.done_s[end - 1];
    rates.push_back(window_end_s > window_begin_s
                        ? static_cast<double>(end - begin) /
                              (window_end_s - window_begin_s)
                        : 0);
    window_begin_s = window_end_s;
    p50s.push_back(NearestRank(sorted, 50).value);
    tail = TailLatency(sorted);
    tails.push_back(tail.value);
  }
  std::printf("# timed: %zu jobs ok of %zu in %.3f s, %zu window(s); "
              "job_tail_ms is the %s of %zu jobs (%zu beyond it)%s\n",
              timed.ok(), timed.attempted, timed.wall_s, windows,
              tail.label.c_str(), n / windows, tail.beyond,
              windows > 1 ? " per window" : "");
  report->Add("setup_s", setup_s, "s");
  report->Add("jobs_per_s", Median(rates), "1/s");
  report->Add("job_p50_ms", Median(p50s), "ms");
  report->Add("job_tail_ms", Median(tails), "ms");
  report->Add("wire_bytes_per_job", MeanWireBytes(timed), "B");
  report->Add("peak_rss_mb", peak_rss_mb, "MB");
}

/// The traced run's self-checks and per-layer metrics. `untraced` ran on
/// `fleet` with `PartyRunner`, and fixes the wire bytes every traced job
/// must reproduce.
void ReportPerLayer(Fleet* fleet, Tracer* tracer, const Phase& untraced,
                    const Phase& traced, double untraced_cpu_s,
                    double retained_kb, Report* report) {
  const double jobs = static_cast<double>(std::max<size_t>(traced.ok(), 1));
  const ppc::ChannelStats expect =
      untraced.sent.empty() ? ppc::ChannelStats{} : untraced.sent.front();
  for (const ppc::ChannelStats& sent : untraced.sent) {
    if (sent.wire_bytes != expect.wire_bytes ||
        sent.messages != expect.messages) {
      report->Fail("untraced jobs of one workload sent different byte counts");
      break;
    }
  }
  double frames = 0, wire = 0, payload = 0;
  double phase_wire[ppc::kLastPhase + 1] = {};
  size_t diverged = 0, unreconciled = 0, reconciled = 0;
  for (const JobResult& job : traced.traced) {
    if (job.sent.wire_bytes != expect.wire_bytes ||
        job.sent.messages != expect.messages) {
      ++diverged;
    }
    if (job.taps.frames != job.sent.messages ||
        job.taps.wire_bytes != job.sent.wire_bytes) {
      ++unreconciled;
    }
    if (job.has_grand_total) {
      ++reconciled;
      if (job.grand_total.wire_bytes != job.taps.wire_bytes ||
          job.grand_total.messages != job.taps.frames ||
          job.grand_total.payload_bytes != job.sent.payload_bytes) {
        ++unreconciled;
      }
    }
    frames += static_cast<double>(job.taps.frames);
    wire += static_cast<double>(job.taps.wire_bytes);
    payload += static_cast<double>(job.sent.payload_bytes);
    for (int p = 0; p <= ppc::kLastPhase; ++p) {
      phase_wire[p] += static_cast<double>(job.taps.phase_wire_bytes[p]);
    }
  }
  if (diverged > 0) {
    report->Fail("traced party loop diverged from PartyRunner: " +
                 std::to_string(diverged) + " traced job(s) sent other than "
                 "the " + std::to_string(expect.wire_bytes) +
                 " wire bytes of an untraced job");
  }
  if (unreconciled > 0) {
    report->Fail(std::to_string(unreconciled) +
                 " traced job(s) whose tap bytes do not reconcile with the "
                 "channel counters / GrandTotalOn");
  }
  if (tracer->stray_frames() > 0) {
    report->Fail("taps saw frames of sessions no traced job owned");
  }
  std::printf("# traced: %zu jobs ok, taps reconciled with GrandTotalOn on "
              "%zu of them, %.0f wire bytes each (untraced: %llu)\n",
              traced.ok(), reconciled, wire / jobs,
              static_cast<unsigned long long>(expect.wire_bytes));

  double seal_open_ms = 0;
  size_t replayed = 0;
  for (const JobResult& job : traced.traced) {
    if (job.taps.frame_list.empty()) continue;
    double ms = 0;
    ppc::Status status = ReplaySealOpen(
        job.taps.frame_list, "replay-" + std::to_string(replayed), &ms);
    if (!status.ok()) {
      report->Fail("Seal/Open replay: " + status.ToString());
      break;
    }
    seal_open_ms += ms;
    ++replayed;
  }
  size_t active = 0;
  const double active_count_us =
      fleet->ActiveCountMicros(kActiveCountCalls, &active);
  if (active != 0) report->Fail("sessions still active after the run");

  const LayerTotals t = tracer->totals();
  const double untraced_jps = untraced.JobsPerSecond();
  const double traced_jps = traced.JobsPerSecond();
  std::printf("# tracing overhead: %.4g jobs/s untraced vs %.4g jobs/s "
              "traced\n",
              untraced_jps, traced_jps);
  for (int p = 1; p <= ppc::kLastPhase; ++p) {
    report->Add("core.phase" + std::to_string(p) + "_ms", t.phase_ms[p] / jobs,
                "ms");
  }
  report->Add("core.steps", static_cast<double>(t.steps) / jobs, "count");
  report->Add("core.local_matrix_build_ms", t.local_matrix_build_ms / jobs,
              "ms");
  report->Add("core.comparison_init_ms", t.comparison_init_ms / jobs, "ms");
  report->Add("core.comparison_build_numeric_ms",
              t.comparison_build_numeric_ms / jobs, "ms");
  report->Add("core.comparison_build_alnum_ms",
              t.comparison_build_alnum_ms / jobs, "ms");
  report->Add("core.categorical_ms", t.categorical_ms / jobs, "ms");
  report->Add("core.comparison_install_ms", t.comparison_install_ms / jobs,
              "ms");
  report->Add("core.normalize_ms", t.normalize_ms / jobs, "ms");
  report->Add("net.send_ms", t.send_ms / jobs, "ms");
  const double classified =
      static_cast<double>(std::max<uint64_t>(t.classified_jobs, 1));
  report->Add("net.recv_ready_ms", t.recv_ready_ms / classified, "ms");
  report->Add("net.recv_wait_ms", t.recv_wait_ms / classified, "ms");
  report->Add("net.frames", frames / jobs, "count");
  report->Add("net.wire_bytes", wire / jobs, "B");
  report->Add("net.payload_bytes", payload / jobs, "B");
  for (int p = 1; p <= ppc::kLastPhase; ++p) {
    report->Add("net.phase" + std::to_string(p) + "_wire_bytes",
                phase_wire[p] / jobs, "B");
  }
  report->Add("net.cluster_wire_bytes", phase_wire[0] / jobs, "B");
  report->Add("crypto.seal_open_ms",
              replayed > 0 ? seal_open_ms / static_cast<double>(replayed) : 0,
              "ms");
  report->Add("crypto.dh_ops", static_cast<double>(t.dh_ops) / jobs, "count");
  report->Add("cluster.serve_ms", t.serve_ms / jobs, "ms");
  report->Add("cluster.request_ms", t.request_ms / jobs, "ms");
  report->Add("registry.start_us",
              t.starts > 0 ? t.start_us / static_cast<double>(t.starts) : 0,
              "us");
  report->Add("registry.active_count_us", active_count_us, "us");
  report->Add("registry.retained_kb_per_job", retained_kb, "kB");
  const double untraced_jobs =
      static_cast<double>(std::max<size_t>(untraced.ok(), 1));
  report->Add("proc.cpu_ms", untraced_cpu_s * 1000 / untraced_jobs, "ms");
  report->Add("proc.cpu_per_wall",
              untraced.wall_s > 0 ? untraced_cpu_s / untraced.wall_s : 0,
              "ratio");
  report->Add("trace.untraced_jobs_per_s", untraced_jps, "1/s");
  report->Add("trace.traced_jobs_per_s", traced_jps, "1/s");
  report->Add("trace.overhead_pct",
              untraced_jps > 0 ? (untraced_jps - traced_jps) / untraced_jps * 100
                               : 0,
              "%");
}

int Run(const Args& args) {
  const WorkloadSpec& spec = *FindWorkload(args.workload);
  const size_t timed_jobs = std::max<size_t>(
      std::llround(spec.jobs_per_second * args.seconds), 2);
  const int cpus = ConfineToCpus(spec.cpus);
  std::printf("# perfbench: %s\n",
              HeaderJson(args, spec, timed_jobs, cpus).c_str());

  auto inputs = MakeInputs(spec, args.seed);
  if (!inputs.ok()) {
    std::fprintf(stderr, "error: inputs: %s\n",
                 inputs.status().ToString().c_str());
    return 1;
  }
  ppc::Status reference = ComputeReference(&*inputs);
  if (!reference.ok()) {
    std::fprintf(stderr, "error: reference outcome: %s\n",
                 reference.ToString().c_str());
    return 1;
  }

  // Set-up, several times; the last fleet serves the run.
  std::vector<double> setup_times;
  std::unique_ptr<Fleet> fleet;
  for (int r = 0; r < kSetupRepeats; ++r) {
    fleet.reset();
    const Clock::time_point begin = Clock::now();
    auto created = Fleet::Create(&*inputs);
    setup_times.push_back(MillisBetween(begin, Clock::now()) / 1000);
    if (!created.ok()) {
      std::fprintf(stderr, "error: fleet set-up: %s\n",
                   created.status().ToString().c_str());
      return 1;
    }
    fleet = std::move(created).TakeValue();
  }

  Report report;
  if (spec.warmup_jobs > 0) {
    report.Count(
        RunPhase(fleet.get(), spec.in_flight, spec.warmup_jobs, nullptr));
  }

  if (args.trace == 0) {
    // Peak RSS: the median of the per-job peaks when jobs run one at a
    // time (the largest of a few jobs would follow the job count), else
    // the peak over the whole timed phase.
    const bool peak_per_job = spec.in_flight == 1;
    TrimHeap();
    ResetPeakRss();
    Phase timed = RunPhase(fleet.get(), spec.in_flight, timed_jobs, nullptr,
                           peak_per_job);
    const double peak_rss_mb = peak_per_job ? Median(timed.peak_rss_mb)
                                            : StatusKb("VmHWM:") / 1024;
    report.Count(timed);
    ReportEndToEnd(timed, Median(setup_times), peak_rss_mb, &report);
    report.Print();
    return 0;
  }

  // Traced run: an untraced half with PartyRunner, then a traced half with
  // the benchmark's copy of the party loop on a second fleet, set up and
  // warmed like the first, so both halves start from the same retained
  // state.
  TrimHeap();
  const double rss_before_kb = StatusKb("VmRSS:");
  const double cpu_before = CpuSeconds();
  Phase untraced =
      RunPhase(fleet.get(), spec.in_flight, timed_jobs / 2, nullptr);
  const double untraced_cpu_s = CpuSeconds() - cpu_before;
  TrimHeap();
  const double retained_kb =
      (StatusKb("VmRSS:") - rss_before_kb) /
      static_cast<double>(std::max<size_t>(untraced.attempted, 1));
  report.Count(untraced);

  auto schedule = ppc::Schedule::Build(inputs->plan, inputs->schema);
  if (!schedule.ok()) {
    std::fprintf(stderr, "error: schedule: %s\n",
                 schedule.status().ToString().c_str());
    return 1;
  }
  // Declared before the fleet whose taps point at it.
  Tracer tracer(schedule->TopicPhases(), fleet->PartyNames());
  auto traced_fleet = Fleet::Create(&*inputs);
  if (!traced_fleet.ok()) {
    std::fprintf(stderr, "error: fleet set-up: %s\n",
                 traced_fleet.status().ToString().c_str());
    return 1;
  }
  if (spec.warmup_jobs > 0) {
    report.Count(RunPhase(traced_fleet->get(), spec.in_flight,
                          spec.warmup_jobs, nullptr));
  }
  (*traced_fleet)->InstallTaps(&tracer);
  Phase traced =
      RunPhase(traced_fleet->get(), spec.in_flight, timed_jobs / 2, &tracer);
  report.Count(traced);
  ReportPerLayer(fleet.get(), &tracer, untraced, traced,
                 untraced_cpu_s, retained_kb, &report);
  if (!args.trace_file.empty()) {
    ppc::Status written = tracer.WriteChromeTrace(
        args.trace_file, HeaderJson(args, spec, timed_jobs, cpus));
    if (!written.ok()) {
      report.Fail(written.ToString());
    } else {
      std::printf("# trace: %s\n", args.trace_file.c_str());
    }
  }
  report.Print();
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  const std::string error = perfbench::ParseArgs(argc, argv, &args);
  if (!error.empty()) return perfbench::Usage(error);
  return perfbench::Run(args);
}

// Session multiplexing throughput: N complete protocol executions over
// TCP, run back-to-back the pre-session-multiplexing way (a fresh
// endpoint — listener, event loop, authenticated connections — per job,
// torn down after it) versus multiplexed (one shared endpoint, N
// concurrent sessions via SessionRegistry). The sequential leg pays every
// job's connection setup, handshake, and per-frame link latency serially;
// the multiplexed leg amortizes one endpoint and overlaps all per-frame
// latency across sessions — the point of the session layer on a protocol
// whose rounds are latency-, not bandwidth-, bound.
//
// The second argument is a simulated per-frame link delay in
// milliseconds, injected on the send path through a channel tap: 0 ms is
// the raw loopback picture (endpoint amortization plus the sessions'
// protocol CPU spread over the cores; on one core it serializes), 5 ms is
// a conservative cross-organization WAN hop — the deployment the paper's
// parties (separate data-holding organizations plus a third party)
// actually have. A sequential job stream serializes every frame's delay;
// concurrent sessions sleep through each other's.
//
// The headline counter is sessions_per_s: the acceptance gate is >= 3x at
// 8 concurrent sessions versus 8 sequential ones under the WAN link. On
// the raw loopback, CI requires 64 multiplexed sessions to beat the same
// 64 run sequentially within one run (tools/bench_gate.py).

#include <benchmark/benchmark.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/party_runner.h"
#include "core/session_registry.h"
#include "data/generators.h"
#include "data/partition.h"
#include "net/tcp_network.h"

namespace ppc {
namespace {

// Keep the ctest schedule overrides out of the fixtures (see
// bench_end_to_end.cc).
[[maybe_unused]] const bool kThreadEnvCleared = [] {
  unsetenv("PPC_NUM_THREADS");
  unsetenv("PPC_TILE_SIZE");
  unsetenv("PPC_FORCE_SCALAR_KERNELS");
  return true;
}();

/// Tiny numeric workload: with n this small the protocol's wall-clock is
/// dominated by per-frame latency and connection setup — exactly the
/// costs a resident daemon fleet pays per job.
LabeledDataset TinyDataset() {
  auto prng = MakePrng(PrngKind::kXoshiro256, 11);
  return Generators::GaussianMixture(
             8, {{{0.0, 0.0}, 1.0, 1.0}, {{10.0, 10.0}, 1.0, 1.0}},
             prng.get())
      .TakeValue();
}

/// One full protocol execution (no clustering request) over `net`: third
/// party and holder B on their own threads, holder A inline — the same
/// role structure a daemon runs per job.
bool RunOneSession(Network* net, const Schema& schema,
                   const std::vector<LabeledDataset>& parts,
                   const SessionPlan& plan, const ProtocolConfig& config) {
  ThirdParty tp("TP", net, config, schema, 9000);
  DataHolder holder_a("A", net, config, 9001);
  DataHolder holder_b("B", net, config, 9002);
  if (!holder_a.SetData(parts[0].data).ok()) return false;
  if (!holder_b.SetData(parts[1].data).ok()) return false;
  Status tp_status, b_status;
  std::thread tp_thread(
      [&] { tp_status = PartyRunner::RunThirdParty(&tp, plan, schema); });
  std::thread b_thread(
      [&] { b_status = PartyRunner::RunHolder(&holder_b, plan, schema); });
  Status a_status = PartyRunner::RunHolder(&holder_a, plan, schema);
  tp_thread.join();
  b_thread.join();
  return tp_status.ok() && a_status.ok() && b_status.ok();
}

/// One endpoint hosting all three parties, with an optional simulated
/// per-frame link delay tapped onto every directed channel. The tap
/// blocks the sending session's thread only (taps run outside transport
/// locks), so sequential jobs pay every frame's delay back-to-back while
/// concurrent sessions sleep through each other's — the same asymmetry a
/// real WAN hop produces.
Result<std::unique_ptr<TcpNetwork>> MakeEndpoint(int delay_ms) {
  auto net = TcpNetwork::Create({});
  if (!net.ok()) return net.status();
  (*net)->set_receive_timeout(std::chrono::seconds(30));
  const char* kParties[] = {"TP", "A", "B"};
  for (const char* party : kParties) {
    Status status = (*net)->RegisterParty(party);
    if (!status.ok()) return status;
  }
  if (delay_ms > 0) {
    const auto delay = std::chrono::milliseconds(delay_ms);
    for (const char* from : kParties) {
      for (const char* to : kParties) {
        if (from == to) continue;
        (*net)->AddTap(from, to, [delay](const WireFrame&) {
          std::this_thread::sleep_for(delay);
        });
      }
    }
  }
  return std::move(net).TakeValue();
}

/// Distinct session ids forever: SessionRegistry ids are single-use and
/// the transport keeps per-session channel state for the endpoint's
/// lifetime, so benchmark iterations must never reuse one.
std::string FreshSessionId() {
  static std::atomic<uint64_t> counter{0};
  return "bench-" + std::to_string(counter.fetch_add(1));
}

// The old deployment shape: one job at a time, each on its own
// freshly-dialed endpoint, torn down when the job finishes. Setup and
// teardown are in the timed region on purpose — that is what every job
// costs without a resident multiplexed daemon.
void BM_SequentialSessions(benchmark::State& state) {
  const size_t sessions = static_cast<size_t>(state.range(0));
  const int delay_ms = static_cast<int>(state.range(1));
  LabeledDataset data = TinyDataset();
  auto parts = Partitioner::RoundRobin(data, 2).TakeValue();
  const Schema& schema = data.data.schema();
  ProtocolConfig config;
  SessionPlan plan;
  plan.holder_order = {"A", "B"};

  for (auto _ : state) {
    for (size_t s = 0; s < sessions; ++s) {
      auto net = MakeEndpoint(delay_ms).TakeValue();
      bool ok = RunOneSession(net.get(), schema, parts, plan, config);
      benchmark::DoNotOptimize(ok);
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * sessions));
  state.counters["sessions"] = static_cast<double>(sessions);
  state.counters["link_delay_ms"] = static_cast<double>(delay_ms);
  state.counters["sessions_per_s"] = benchmark::Counter(
      static_cast<double>(state.iterations() * sessions),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SequentialSessions)
    ->ArgsProduct({{1, 8, 64}, {0, 5}})
    ->ArgNames({"sessions", "delay_ms"})
    ->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime()
    ->UseRealTime();

// Daemon shape: one resident endpoint, N concurrent logical sessions over
// its shared authenticated connections. The single setup is timed too —
// amortizing it across jobs is part of the win.
void BM_MultiplexedSessions(benchmark::State& state) {
  const size_t sessions = static_cast<size_t>(state.range(0));
  const int delay_ms = static_cast<int>(state.range(1));
  LabeledDataset data = TinyDataset();
  auto parts = Partitioner::RoundRobin(data, 2).TakeValue();
  const Schema& schema = data.data.schema();
  ProtocolConfig config;
  SessionPlan plan;
  plan.holder_order = {"A", "B"};

  for (auto _ : state) {
    auto net = MakeEndpoint(delay_ms).TakeValue();
    bool ok = true;
    {
      SessionRegistry registry(net.get());
      for (size_t s = 0; s < sessions; ++s) {
        ok = ok && registry
                       .StartSession(FreshSessionId(),
                                     [&](Network* snet, CancelToken*) {
                                       return RunOneSession(snet, schema,
                                                            parts, plan,
                                                            config)
                                                  ? Status::OK()
                                                  : Status::Internal(
                                                        "session failed");
                                     })
                       .ok();
      }
      ok = ok && registry.WaitAll().ok();
    }
    benchmark::DoNotOptimize(ok);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * sessions));
  state.counters["sessions"] = static_cast<double>(sessions);
  state.counters["link_delay_ms"] = static_cast<double>(delay_ms);
  state.counters["sessions_per_s"] = benchmark::Counter(
      static_cast<double>(state.iterations() * sessions),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_MultiplexedSessions)
    ->ArgsProduct({{1, 8, 64}, {0, 5}})
    ->ArgNames({"sessions", "delay_ms"})
    ->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime()
    ->UseRealTime();

}  // namespace
}  // namespace ppc

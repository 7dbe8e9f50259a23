// Experiment E15 — full pipeline scaling: the complete Fig. 11 session
// (key agreement, local matrices, all pairwise comparison protocols, global
// assembly, normalization) as a function of total object count and party
// count, with total wire traffic as a counter.
//
// The paper's observation to reproduce: "the communication costs of our
// protocols are parallel to the computation costs of the operations in case
// of centralized data" — wire bytes grow with the same quadratic shape as
// the centralized distance computation.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "data/generators.h"
#include "data/partition.h"
#include "net/tcp_network.h"
#include "session_test_util.h"

namespace ppc {
namespace {

using testutil::MakeSession;
using testutil::MatricesOf;

// The PPC_NUM_THREADS / PPC_TILE_SIZE ctest overrides
// (tests/session_test_util.h) must not leak into benchmark fixtures:
// thread counts and tiling here are part of the
// experiment design, and a silently-overridden leg would corrupt the
// committed baselines (e.g. a BM_SessionTiled tile=0 label running tiled,
// or a kernel leg pinned to scalar).
[[maybe_unused]] const bool kThreadEnvCleared = [] {
  unsetenv("PPC_NUM_THREADS");
  unsetenv("PPC_TILE_SIZE");
  unsetenv("PPC_FORCE_SCALAR_KERNELS");
  return true;
}();

LabeledDataset NumericDataset(size_t n, uint64_t seed) {
  auto prng = MakePrng(PrngKind::kXoshiro256, seed);
  return Generators::GaussianMixture(
             n,
             {{{0.0, 0.0}, 1.0, 1.0}, {{10.0, 10.0}, 1.0, 1.0},
              {{-10.0, 10.0}, 1.0, 1.0}},
             prng.get())
      .TakeValue();
}

void BM_SessionNumericScaling(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const size_t k = static_cast<size_t>(state.range(1));
  LabeledDataset data = NumericDataset(n, 1);
  auto parts = Partitioner::RoundRobin(data, k).TakeValue();
  ProtocolConfig config;

  uint64_t wire_bytes = 0;
  for (auto _ : state) {
    state.PauseTiming();
    auto fixture =
        MakeSession(data.data.schema(), MatricesOf(parts), config).TakeValue();
    state.ResumeTiming();
    bool ok = fixture.session->Run().ok();
    benchmark::DoNotOptimize(ok);
    wire_bytes = fixture.network->GrandTotal().wire_bytes;
  }
  state.counters["objects"] = static_cast<double>(n);
  state.counters["parties"] = static_cast<double>(k);
  state.counters["wire_B"] = static_cast<double>(wire_bytes);
  state.SetItemsProcessed(state.iterations() * n * n);
}
BENCHMARK(BM_SessionNumericScaling)
    ->ArgsProduct({{32, 64, 128, 256}, {2, 3, 4}})
    ->Unit(benchmark::kMillisecond);

void BM_SessionMixedTypes(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  auto prng = MakePrng(PrngKind::kXoshiro256, 2);
  Generators::MixedOptions options;
  options.string_length = 12;
  LabeledDataset data =
      Generators::MixedClusters(n, options, Alphabet::Dna(), prng.get())
          .TakeValue();
  auto parts = Partitioner::RoundRobin(data, 3).TakeValue();
  ProtocolConfig config;

  uint64_t wire_bytes = 0;
  for (auto _ : state) {
    state.PauseTiming();
    auto fixture =
        MakeSession(data.data.schema(), MatricesOf(parts), config).TakeValue();
    state.ResumeTiming();
    bool ok = fixture.session->Run().ok();
    benchmark::DoNotOptimize(ok);
    wire_bytes = fixture.network->GrandTotal().wire_bytes;
  }
  state.counters["objects"] = static_cast<double>(n);
  state.counters["wire_B"] = static_cast<double>(wire_bytes);
}
BENCHMARK(BM_SessionMixedTypes)
    ->Arg(16)
    ->Arg(32)
    ->Arg(64)
    ->Unit(benchmark::kMillisecond);

void BM_SessionPlusClustering(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  LabeledDataset data = NumericDataset(n, 3);
  auto parts = Partitioner::RoundRobin(data, 2).TakeValue();
  ProtocolConfig config;

  for (auto _ : state) {
    state.PauseTiming();
    auto fixture =
        MakeSession(data.data.schema(), MatricesOf(parts), config).TakeValue();
    state.ResumeTiming();
    bool ok = fixture.session->Run().ok();
    ClusterRequest request;
    request.num_clusters = 3;
    auto outcome = fixture.session->RequestClustering("A", request);
    benchmark::DoNotOptimize(outcome);
    benchmark::DoNotOptimize(ok);
  }
  state.counters["objects"] = static_cast<double>(n);
}
BENCHMARK(BM_SessionPlusClustering)
    ->Arg(64)
    ->Arg(128)
    ->Arg(256)
    ->Unit(benchmark::kMillisecond);

// Per-leg peak-RSS accounting for the tiling sweep: getrusage's ru_maxrss
// is monotonic over the process lifetime, so instead reset the kernel's
// VmHWM watermark before each leg (write "5" to /proc/self/clear_refs)
// and read it back from /proc/self/status afterwards. The watermark resets
// to the *current* RSS, so first return the allocator's retained free heap
// to the kernel — otherwise small legs after a big one inherit its floor.
// Linux/glibc-only; the helpers degrade to no-op/0 elsewhere.
void ResetPeakRss() {
#if defined(__GLIBC__)
  malloc_trim(0);
#endif
  if (std::FILE* f = std::fopen("/proc/self/clear_refs", "w")) {
    std::fputs("5", f);
    std::fclose(f);
  }
}

double PeakRssMb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  double mb = 0.0;
  char line[256];
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    long kb = 0;
    if (std::sscanf(line, "VmHWM: %ld kB", &kb) == 1) {
      mb = static_cast<double>(kb) / 1024.0;
      break;
    }
  }
  std::fclose(f);
  return mb;
}

// The tentpole sweep: whole-matrix (tile=0) versus tiled phase-4/5
// pipelines at tile sizes 32 and 128, over growing object counts. Two
// things to read off each leg: wall-clock (the tiled graph must not cost
// throughput — same arithmetic, same wire bytes modulo per-tile headers)
// and peak_rss_MB (the point of tiling: peak memory tracks O(n * tile)
// working sets instead of O(n^2) whole-matrix staging buffers).
void BM_SessionTiled(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const size_t tile = static_cast<size_t>(state.range(1));
  LabeledDataset data = NumericDataset(n, 8);
  auto parts = Partitioner::RoundRobin(data, 2).TakeValue();
  ProtocolConfig config;
  config.tile_size = tile;

  uint64_t wire_bytes = 0;
  double peak_mb = 0.0;
  for (auto _ : state) {
    state.PauseTiming();
    auto fixture =
        MakeSession(data.data.schema(), MatricesOf(parts), config).TakeValue();
    ResetPeakRss();
    state.ResumeTiming();
    bool ok = fixture.session->Run().ok();
    benchmark::DoNotOptimize(ok);
    state.PauseTiming();
    peak_mb = PeakRssMb();
    wire_bytes = fixture.network->GrandTotal().wire_bytes;
    state.ResumeTiming();
  }
  state.counters["objects"] = static_cast<double>(n);
  state.counters["tile"] = static_cast<double>(tile);
  state.counters["wire_B"] = static_cast<double>(wire_bytes);
  state.counters["peak_rss_MB"] = peak_mb;
  state.SetItemsProcessed(state.iterations() * n * n);
  state.SetLabel(tile == 0 ? "whole-matrix" : "tiled");
}
BENCHMARK(BM_SessionTiled)
    ->ArgsProduct({{128, 512, 1024}, {0, 32, 128}})
    ->Unit(benchmark::kMillisecond);

// Ready-set executor: the same full session as BM_SessionNumericScaling,
// swept over ProtocolConfig::num_threads (threads=1 is the canonical-order
// sequential schedule on the caller's thread). The paper's deployment is
// inherently parallel (k sites compute independently; the TP only
// assembles), so threads=1 versus threads=N is the sequential-sum versus
// max-site-work comparison. Results are bit-identical across the sweep;
// only wall-clock may change.
void BM_SessionNumericScalingThreaded(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const size_t threads = static_cast<size_t>(state.range(1));
  const size_t k = 4;  // 6 holder pairs: enough independent phase-5 rounds.
  LabeledDataset data = NumericDataset(n, 5);
  auto parts = Partitioner::RoundRobin(data, k).TakeValue();
  ProtocolConfig config;
  config.num_threads = threads;

  for (auto _ : state) {
    state.PauseTiming();
    auto fixture =
        MakeSession(data.data.schema(), MatricesOf(parts), config).TakeValue();
    state.ResumeTiming();
    bool ok = fixture.session->Run().ok();
    benchmark::DoNotOptimize(ok);
  }
  state.counters["objects"] = static_cast<double>(n);
  state.counters["parties"] = static_cast<double>(k);
  state.counters["threads"] = static_cast<double>(threads);
  state.SetItemsProcessed(state.iterations() * n * n);
}
BENCHMARK(BM_SessionNumericScalingThreaded)
    ->ArgsProduct({{128, 256}, {1, 2, 4, 8}})
    ->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime()
    ->UseRealTime();

// Mixed schema (edit-distance grids dominate) under the thread sweep.
void BM_SessionMixedTypesThreaded(benchmark::State& state) {
  const size_t threads = static_cast<size_t>(state.range(0));
  const size_t n = 48;
  auto prng = MakePrng(PrngKind::kXoshiro256, 6);
  Generators::MixedOptions options;
  options.string_length = 12;
  LabeledDataset data =
      Generators::MixedClusters(n, options, Alphabet::Dna(), prng.get())
          .TakeValue();
  auto parts = Partitioner::RoundRobin(data, 4).TakeValue();
  ProtocolConfig config;
  config.num_threads = threads;

  for (auto _ : state) {
    state.PauseTiming();
    auto fixture =
        MakeSession(data.data.schema(), MatricesOf(parts), config).TakeValue();
    state.ResumeTiming();
    bool ok = fixture.session->Run().ok();
    benchmark::DoNotOptimize(ok);
  }
  state.counters["objects"] = static_cast<double>(n);
  state.counters["threads"] = static_cast<double>(threads);
}
BENCHMARK(BM_SessionMixedTypesThreaded)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime()
    ->UseRealTime();

// Transport-security ablation: what does AES-CTR+HMAC framing cost the
// whole pipeline versus plaintext channels?
void BM_SessionTransportAblation(benchmark::State& state) {
  const bool secure = state.range(0) != 0;
  LabeledDataset data = NumericDataset(128, 4);
  auto parts = Partitioner::RoundRobin(data, 2).TakeValue();
  ProtocolConfig config;

  uint64_t wire_bytes = 0, payload_bytes = 0;
  for (auto _ : state) {
    state.PauseTiming();
    auto fixture =
        MakeSession(data.data.schema(), MatricesOf(parts), config,
                    secure ? TransportSecurity::kAuthenticatedEncryption
                           : TransportSecurity::kPlaintext)
            .TakeValue();
    state.ResumeTiming();
    bool ok = fixture.session->Run().ok();
    benchmark::DoNotOptimize(ok);
    wire_bytes = fixture.network->GrandTotal().wire_bytes;
    payload_bytes = fixture.network->GrandTotal().payload_bytes;
  }
  state.counters["wire_B"] = static_cast<double>(wire_bytes);
  state.counters["overhead_B"] =
      static_cast<double>(wire_bytes - payload_bytes);
  state.SetLabel(secure ? "aes-ctr+hmac" : "plaintext");
}
BENCHMARK(BM_SessionTransportAblation)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

// Transport-backend ablation: the identical session over the in-memory
// simulator versus real loopback TCP sockets (single endpoint hosting all
// parties — every frame still crosses the kernel's socket path). The gap
// is the per-message deployment overhead a multi-site run pays on top of
// the protocol's own crypto and arithmetic.
void BM_SessionTransportBackend(benchmark::State& state) {
  const bool tcp = state.range(0) != 0;
  LabeledDataset data = NumericDataset(128, 4);
  auto parts = Partitioner::RoundRobin(data, 2).TakeValue();
  const Schema& schema = data.data.schema();
  ProtocolConfig config;

  uint64_t wire_bytes = 0;
  for (auto _ : state) {
    state.PauseTiming();
    {
      std::unique_ptr<Network> network;
      if (tcp) {
        auto endpoint = TcpNetwork::Create({}).TakeValue();
        endpoint->set_receive_timeout(std::chrono::seconds(30));
        network = std::move(endpoint);
      } else {
        network = std::make_unique<InMemoryNetwork>();
      }
      ThirdParty tp("TP", network.get(), config, schema, 9000);
      ClusteringSession session(network.get(), config, schema);
      std::vector<std::unique_ptr<DataHolder>> holders;
      bool setup_ok = session.SetThirdParty(&tp).ok();
      for (size_t i = 0; i < parts.size(); ++i) {
        holders.push_back(std::make_unique<DataHolder>(
            testutil::SessionFixture::HolderName(i), network.get(), config,
            9001 + i));
        setup_ok = setup_ok && holders.back()->SetData(parts[i].data).ok() &&
                   session.AddDataHolder(holders.back().get()).ok();
      }
      state.ResumeTiming();
      bool ok = setup_ok && session.Run().ok();
      benchmark::DoNotOptimize(ok);
      // Teardown (for TCP: listener shutdown + thread joins) happens
      // inside this paused scope — only the protocol run is measured.
      state.PauseTiming();
      wire_bytes = network->GrandTotal().wire_bytes;
    }
    state.ResumeTiming();
  }
  state.counters["wire_B"] = static_cast<double>(wire_bytes);
  state.SetLabel(tcp ? "tcp-loopback" : "in-memory");
}
BENCHMARK(BM_SessionTransportBackend)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace ppc

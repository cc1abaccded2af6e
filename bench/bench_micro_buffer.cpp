/// \file bench_micro_buffer.cpp
/// \brief Microbenchmarks of the Buffering Manager across replacement
/// policies (Table 3 PGREP).  Reports both throughput and the achieved
/// hit rate on a Zipf-skewed page trace as counters.
#include <benchmark/benchmark.h>

#include "desp/random.hpp"
#include "storage/buffer_manager.hpp"

namespace {

using voodb::desp::RandomStream;
using voodb::storage::BufferManager;
using voodb::storage::PageId;
using voodb::storage::ReplacementPolicy;

constexpr ReplacementPolicy kPolicies[] = {
    ReplacementPolicy::kRandom, ReplacementPolicy::kFifo,
    ReplacementPolicy::kLfu,    ReplacementPolicy::kLru,
    ReplacementPolicy::kLruK,   ReplacementPolicy::kClock,
    ReplacementPolicy::kGclock,
};

void BM_BufferAccess(benchmark::State& state) {
  const ReplacementPolicy policy = kPolicies[state.range(0)];
  constexpr uint64_t kCapacity = 1024;
  constexpr int64_t kPageSpace = 8192;
  BufferManager buffer(kCapacity, policy, RandomStream(7));
  RandomStream rng(11);
  // Pre-generate the trace so only buffer work is timed.
  std::vector<PageId> trace(1 << 16);
  for (auto& p : trace) p = static_cast<PageId>(rng.Zipf(kPageSpace, 0.9));
  std::vector<voodb::storage::PageIo> ios;
  size_t i = 0;
  for (auto _ : state) {
    ios.clear();
    benchmark::DoNotOptimize(buffer.AccessInto(trace[i], false, ios));
    i = (i + 1) % trace.size();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
  state.counters["hit_rate"] = buffer.stats().HitRate();
  state.SetLabel(ToString(policy));
}
BENCHMARK(BM_BufferAccess)->DenseRange(0, 6);

void BM_BufferThrashing(benchmark::State& state) {
  // Working set far beyond capacity: eviction-dominated path.
  const ReplacementPolicy policy = kPolicies[state.range(0)];
  BufferManager buffer(64, policy, RandomStream(7));
  RandomStream rng(13);
  std::vector<voodb::storage::PageIo> ios;
  for (auto _ : state) {
    const auto page = static_cast<PageId>(rng.UniformInt(0, 100000));
    ios.clear();
    benchmark::DoNotOptimize(
        buffer.AccessInto(page, rng.Bernoulli(0.2), ios));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
  state.SetLabel(ToString(policy));
}
BENCHMARK(BM_BufferThrashing)->DenseRange(0, 6);

}  // namespace

BENCHMARK_MAIN();

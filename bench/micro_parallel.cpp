#include "micro_parallel.hpp"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "desp/parallel_scheduler.hpp"
#include "desp/random.hpp"
#include "exp/executor.hpp"
#include "harness.hpp"
#include "util/check.hpp"
#include "util/table.hpp"

namespace voodb::bench {

namespace {

using desp::EventKey;
using desp::ParallelScheduler;
using desp::RandomStream;

constexpr double kLookaheadMs = 2.0;

/// FNV-1a over executed event keys — the identity witness.
struct Digest {
  uint64_t h = 0xcbf29ce484222325ull;

  void Fold(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (i * 8)) & 0xFF;
      h *= 0x100000001b3ull;
    }
  }

  static void Hook(void* ctx, const EventKey& key) {
    auto* d = static_cast<Digest*>(ctx);
    uint64_t bits;
    std::memcpy(&bits, &key.time, sizeof(bits));
    d->Fold(bits);
    d->Fold(static_cast<uint64_t>(static_cast<int64_t>(key.priority)));
    d->Fold(key.seq);
  }
};

struct RunOutcome {
  uint64_t executed = 0;
  uint64_t windows = 0;
  uint64_t cross = 0;
  uint64_t digest = 0;
  double wall_ms = 0.0;
};

/// The workload: per partition, `chains` self-rescheduling chains of
/// `depth` hops with pseudo-random sub-lookahead delays; every fourth
/// hop also pings the next partition round-robin with a super-lookahead
/// delay.  Event actions carry a small live payload so each fire does
/// real work (matching the actor hot path, not an empty lambda).
RunOutcome RunWorkload(size_t partitions, size_t threads, uint64_t chains,
                       uint64_t depth) {
  ParallelScheduler::Options options;
  options.partitions = partitions;
  ParallelScheduler kernel(options);
  if (partitions > 1) kernel.SetUniformEdgeDelay(kLookaheadMs);

  std::vector<Digest> digests(partitions);
  for (size_t p = 0; p < partitions; ++p) {
    kernel.partition(p).SetTraceHook(&Digest::Hook, &digests[p]);
  }

  // Cross-partition pings are counted by the receiving partition, in
  // state only its own events touch (one cache line each), so threaded
  // windows never write another partition's memory.
  struct alignas(64) Inbox {
    uint64_t receipts = 0;
  };
  std::vector<Inbox> inboxes(partitions);

  struct Chain {
    ParallelScheduler* kernel;
    std::vector<Inbox>* inboxes;
    size_t partition;
    size_t partitions;
    uint64_t remaining;
    uint64_t id;
    RandomStream rng;
    uint64_t acc = 0;

    void Hop() {
      acc += id * remaining;
      if (--remaining == 0) return;
      const double delay = rng.Uniform(0.1, 1.9);
      if (remaining % 4 == 0 && partitions > 1) {
        const size_t next = (partition + 1) % partitions;
        Inbox* inbox = &(*inboxes)[next];
        kernel->SendTo(partition, next, kLookaheadMs + delay,
                       [inbox] { ++inbox->receipts; });
      }
      kernel->partition(partition).Schedule(delay, [this] { Hop(); });
    }
  };

  std::vector<std::unique_ptr<Chain>> state;
  state.reserve(partitions * chains);
  for (size_t p = 0; p < partitions; ++p) {
    for (uint64_t c = 0; c < chains; ++c) {
      auto chain = std::make_unique<Chain>();
      chain->kernel = &kernel;
      chain->inboxes = &inboxes;
      chain->partition = p;
      chain->partitions = partitions;
      chain->remaining = depth;
      chain->id = p * chains + c;
      chain->rng = RandomStream(0xC0FFEE).Derive(chain->id);
      Chain* raw = chain.get();
      kernel.partition(p).Schedule(raw->rng.Uniform(0.0, 1.0),
                                   [raw] { raw->Hop(); });
      state.push_back(std::move(chain));
    }
  }

  RunOutcome outcome;
  const auto start = std::chrono::steady_clock::now();
  if (threads > 1) {
    exp::ThreadPool pool({threads});
    outcome.executed = kernel.Run(&pool);
  } else {
    outcome.executed = kernel.Run();
  }
  outcome.wall_ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - start)
                        .count();
  outcome.windows = kernel.Windows();
  outcome.cross = kernel.CrossEvents();
  uint64_t receipts = 0;
  for (const Inbox& inbox : inboxes) receipts += inbox.receipts;
  VOODB_CHECK_MSG(receipts == outcome.cross,
                  "cross-partition pings lost: " << receipts << " received, "
                                                 << outcome.cross << " sent");
  Digest fold;
  for (const Digest& d : digests) fold.Fold(d.h);
  outcome.digest = fold.h;
  return outcome;
}

}  // namespace

exp::ScenarioResult RunMicroParallelScenario(
    const exp::ScenarioContext& ctx) {
  const uint64_t chains = std::max<uint64_t>(1, ctx.options.transactions / 8);
  constexpr uint64_t kDepth = 120;
  const uint64_t trials = std::max<uint64_t>(2, ctx.options.replications);
  constexpr size_t kPartitions = 8;

  util::TextTable table({"Partitions", "Threads", "Events", "Windows",
                         "Cross", "Wall (ms)", "Speedup", "Identical"});
  exp::ScenarioResult result;

  // Serial reference: partitions decomposed but executed on the calling
  // thread.  Best-of-trials wall clock (micro benches measure the fast
  // path, not scheduler noise).
  RunOutcome serial;
  double serial_ms = 0.0;
  for (uint64_t t = 0; t < trials; ++t) {
    const RunOutcome r = RunWorkload(kPartitions, 1, chains, kDepth);
    if (t == 0 || r.wall_ms < serial_ms) serial_ms = r.wall_ms;
    serial = r;
  }
  table.AddRow({std::to_string(kPartitions), "1",
                std::to_string(serial.executed),
                std::to_string(serial.windows), std::to_string(serial.cross),
                util::FormatDouble(serial_ms, 1), "1.00x", "ref"});
  RecordEstimate("parallel", std::to_string(kPartitions) + "p_1t", "wall_ms",
                 Estimate{serial_ms, 0.0});

  for (size_t threads : {2u, 4u, 8u}) {
    RunOutcome pooled;
    double pooled_ms = 0.0;
    for (uint64_t t = 0; t < trials; ++t) {
      const RunOutcome r = RunWorkload(kPartitions, threads, chains, kDepth);
      if (t == 0 || r.wall_ms < pooled_ms) pooled_ms = r.wall_ms;
      pooled = r;
    }
    // The contract the whole PR rests on: pooled == serial, bit for bit.
    VOODB_CHECK_MSG(pooled.digest == serial.digest &&
                        pooled.executed == serial.executed &&
                        pooled.windows == serial.windows &&
                        pooled.cross == serial.cross,
                    "parallel kernel diverged from the serial reference at "
                        << threads << " threads");
    const double speedup = pooled_ms > 0.0 ? serial_ms / pooled_ms : 0.0;
    const std::string cell =
        std::to_string(kPartitions) + "p_" + std::to_string(threads) + "t";
    table.AddRow({std::to_string(kPartitions), std::to_string(threads),
                  std::to_string(pooled.executed),
                  std::to_string(pooled.windows),
                  std::to_string(pooled.cross),
                  util::FormatDouble(pooled_ms, 1),
                  util::FormatDouble(speedup, 2) + "x", "yes"});
    RecordEstimate("parallel", cell, "wall_ms", Estimate{pooled_ms, 0.0});
    RecordEstimate("parallel", cell, "speedup", Estimate{speedup, 0.0});
    result["parallel/" + cell + "/speedup/mean"] = speedup;
  }
  result["parallel/events/executed/mean"] =
      static_cast<double>(serial.executed);

  std::cout << "== Conservative parallel kernel (" << kPartitions
            << " partitions, " << chains << " chains x " << kDepth
            << " hops each, best of " << trials << " trials; "
            << exp::ThreadPool::HardwareThreads()
            << " hardware threads) ==\n";
  if (ctx.options.csv) {
    table.PrintCsv(std::cout);
  } else {
    table.Print(std::cout);
  }
  std::cout << "Speedup needs free cores; the digest identity check is "
               "machine-independent.\n";
  return result;
}

}  // namespace voodb::bench

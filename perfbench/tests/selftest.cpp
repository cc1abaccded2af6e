// The benchmark's own tests: tiny runs of every workload, probe
// transparency, repeatable allocation counts, and thread-count identity.

#include <gtest/gtest.h>

#include <memory>

#include "alloc_counter.hpp"
#include "exp/executor.hpp"
#include "probes.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

constexpr WorkloadKind kAll[] = {WorkloadKind::kPaperDstc,
                                 WorkloadKind::kCcContention,
                                 WorkloadKind::kShardedMvcc};

/// The workload shrunk to run in well under a second.
WorkloadSpec Tiny(WorkloadKind kind) {
  WorkloadSpec spec = Spec(kind);
  switch (kind) {
    case WorkloadKind::kPaperDstc:
      spec.ocb.num_objects = 2000;
      spec.transactions = 20;
      break;
    case WorkloadKind::kCcContention:
      spec.ocb.num_objects = 2000;
      spec.system.num_users = 32;
      spec.system.multiprogramming_level = 32;
      spec.transactions = 96;
      break;
    case WorkloadKind::kShardedMvcc:
      spec.ocb.num_objects = 1600;
      spec.transactions = 12;
      break;
  }
  return spec;
}

struct Outcome {
  Fingerprint fingerprint;
  uint64_t allocations = 0;
};

Outcome RunOnce(const WorkloadSpec& spec, Probes* probes = nullptr,
                voodb::exp::ThreadPool* pool = nullptr) {
  const voodb::ocb::ObjectBase base = GenerateBase(spec, 0);
  Replica replica(spec, base, ReplicationSeed(3), probes);
  const uint64_t before = AllocationCount();
  Outcome outcome;
  outcome.fingerprint = replica.Run(pool);
  outcome.allocations = AllocationCount() - before;
  return outcome;
}

TEST(PerfbenchSelfTest, TinyRunOfEveryWorkloadCompletes) {
  for (const WorkloadKind kind : kAll) {
    SCOPED_TRACE(Name(kind));
    const WorkloadSpec spec = Tiny(kind);
    const Fingerprint fp = RunOnce(spec).fingerprint;
    if (kind == WorkloadKind::kShardedMvcc) {
      // Multi-partition sub-transactions commit on their remote shard too.
      EXPECT_GT(fp.committed, spec.transactions * spec.system.shards);
    } else {
      const uint64_t phases = kind == WorkloadKind::kPaperDstc ? 2 : 1;
      EXPECT_EQ(fp.committed, phases * spec.transactions);
    }
    EXPECT_GT(fp.events, 0u);
    EXPECT_GT(fp.sim_end_ms, 0.0);
  }
}

TEST(PerfbenchSelfTest, ProbesDoNotChangeTheSimulation) {
  for (const WorkloadKind kind : kAll) {
    SCOPED_TRACE(Name(kind));
    const WorkloadSpec spec = Tiny(kind);
    Probes probes;
    const Fingerprint probed = RunOnce(spec, &probes).fingerprint;
    EXPECT_EQ(probed, RunOnce(spec).fingerprint) << probed.ToString();
    double host_total = 0.0;
    for (const auto& [tag, seconds] : probes.host.Seconds()) {
      host_total += seconds;
    }
    EXPECT_GT(host_total, 0.0);
    if (kind != WorkloadKind::kShardedMvcc) {
      EXPECT_GT(probes.timers.next_calls, 0u);  // the decorated source ran
    }
    if (kind == WorkloadKind::kPaperDstc) {
      EXPECT_GT(probes.timers.observe_calls, 0u);
      EXPECT_EQ(probes.timers.recluster_calls, 1u);
    }
  }
}

TEST(PerfbenchSelfTest, AllocationCountRepeatsAcrossSerialRuns) {
  for (const WorkloadKind kind : kAll) {
    SCOPED_TRACE(Name(kind));
    WorkloadSpec spec = Tiny(kind);
    const uint64_t first = RunOnce(spec).allocations;
    EXPECT_GT(first, 0u);
    EXPECT_EQ(RunOnce(spec).allocations, first);
  }
}

TEST(PerfbenchSelfTest, ShardedDigestIsTheSameOnFourThreads) {
  const WorkloadSpec spec = Tiny(WorkloadKind::kShardedMvcc);
  voodb::exp::ThreadPool pool(voodb::exp::ExecutorOptions{4});
  const Fingerprint threaded = RunOnce(spec, nullptr, &pool).fingerprint;
  const Fingerprint serial = RunOnce(spec).fingerprint;
  EXPECT_EQ(threaded, serial) << threaded.ToString() << " vs "
                              << serial.ToString();
  EXPECT_NE(serial.digest, 0u);
}

TEST(PerfbenchSelfTest, ProbedShardedRunRefusesThreads) {
  const WorkloadSpec spec = Tiny(WorkloadKind::kShardedMvcc);
  voodb::exp::ThreadPool pool(voodb::exp::ExecutorOptions{2});
  Probes probes;
  EXPECT_THROW(RunOnce(spec, &probes, &pool), std::invalid_argument);
}

}  // namespace
}  // namespace perfbench

/// \file workloads.hpp
/// \brief The benchmark's three workloads, driven through the simulator's
/// public API only.
///
/// A workload is an OCB base plus a system configuration plus a fixed
/// amount of simulated work per replication.  Every replication builds a
/// fresh system over the shared base, so the modelled buffers start empty
/// (the paper's protocol), and ends with a `Fingerprint` of its simulated
/// output that the benchmark checks against a recorded expectation.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "ocb/object_base.hpp"
#include "ocb/parameters.hpp"
#include "voodb/config.hpp"

namespace voodb::exp {
class ThreadPool;
}  // namespace voodb::exp

namespace perfbench {

enum class WorkloadKind { kPaperDstc, kCcContention, kShardedMvcc };

/// Parses a workload name; false when it names no workload.
bool ParseWorkload(const std::string& name, WorkloadKind* kind);
const char* Name(WorkloadKind kind);

/// What one replication simulates.
struct WorkloadSpec {
  WorkloadKind kind = WorkloadKind::kPaperDstc;
  voodb::ocb::OcbParameters ocb;
  voodb::core::VoodbConfig system;
  /// paper_dstc: transactions per usage phase; cc_contention: transactions
  /// in the run; sharded_mvcc: transactions per shard.
  uint64_t transactions = 0;
  /// Simulation threads (sharded_mvcc only; 1 = serial kernel).
  size_t sim_threads = 1;
};

/// The workload's configuration at its benchmark size.  `ocb.seed` is
/// left for the caller: see BaseSeed().
WorkloadSpec Spec(WorkloadKind kind);

/// The inputs a replication can have: one of kBasePool OCB bases and one
/// of kReplicationPool replication seeds, so that every replication the
/// benchmark can run has a recorded expected fingerprint.  A run walks all
/// kBasePool x kReplicationPool inputs in order, from a start that the
/// benchmark seed picks, so every run does the same mix of work (the
/// paper_dstc bases differ by up to 17% in executed events).
constexpr uint32_t kBasePool = 4;
constexpr uint32_t kReplicationPool = 8;
uint64_t BaseSeed(uint32_t base_index);
uint64_t ReplicationSeed(uint32_t pool_index);
/// Generates base `base_index` of the pool for `spec`.
voodb::ocb::ObjectBase GenerateBase(const WorkloadSpec& spec,
                                    uint32_t base_index);

struct Input {
  uint32_t base = 0;  ///< index into the base pool
  uint32_t pool = 0;  ///< index into the replication-seed pool
};
/// The input of replication `r` of the run seeded with `seed`.
Input InputFor(uint64_t seed, uint64_t r);

/// The simulated output of one replication.  Equal fingerprints mean the
/// simulation did exactly the same work.
struct Fingerprint {
  uint64_t committed = 0;
  uint64_t restarts = 0;
  uint64_t ios = 0;
  uint64_t events = 0;
  double sim_end_ms = 0.0;
  uint64_t digest = 0;  ///< ShardedVoodb::TraceDigest(); 0 when not sharded

  bool operator==(const Fingerprint& other) const;
  /// "committed restarts ios events sim_end_ms(hexfloat) digest".
  std::string ToString() const;
};

struct Probes;

/// One replication: the system is built at construction (set-up, not
/// timed as simulation) and simulated by Run().
class Replica {
 public:
  /// `probes` (optional, not owned) wraps the workload source and the
  /// clustering policy in timing decorators and hooks every scheduler.
  Replica(const WorkloadSpec& spec, const voodb::ocb::ObjectBase& base,
          uint64_t seed, Probes* probes = nullptr);
  ~Replica();
  Replica(const Replica&) = delete;
  Replica& operator=(const Replica&) = delete;

  /// Runs the simulation phases; `pool` carries the sharded kernel's
  /// windows (null = serial).
  Fingerprint Run(voodb::exp::ThreadPool* pool);

  /// Layer counters read after Run() from the public metric registry and
  /// the system's accessors (name -> value, summed over shards).
  std::map<std::string, double> LayerCounters() const;

 private:
  struct State;
  std::unique_ptr<State> state_;
};

}  // namespace perfbench

/// \file texas_emulator.hpp
/// \brief Direct-execution emulator of the Texas persistent store (+DSTC).
///
/// Stand-in for the paper's Texas v0.5 prototype on Linux 2.0.30 (§4.2.1);
/// see DESIGN.md for the substitution rationale.  Three Texas-specific
/// behaviours the paper's analysis relies on are emulated:
///
/// * the store lives on **OS virtual memory** (no database buffer): page
///   faults and swap writes are the I/Os of Figures 9-11;
/// * **reserve-on-swizzle**: faulting a page reserves frames for every
///   page it references, which makes degradation *exponential* once the
///   base outgrows memory (Figure 11);
/// * **physical OIDs**: DSTC's reorganization moves objects, so their
///   OIDs change and *the whole database must be scanned and every page
///   holding a reference to a moved object rewritten* — the source of the
///   ~36x clustering-overhead gap between the real system and the
///   logical-OID simulation (Table 6).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "cluster/policy.hpp"
#include "desp/random.hpp"
#include "ocb/object_base.hpp"
#include "ocb/workload.hpp"
#include "storage/page_adjacency.hpp"
#include "storage/placement.hpp"
#include "storage/virtual_memory.hpp"
#include "trace/recorder.hpp"
#include "voodb/metrics.hpp"

namespace voodb::obs {
class MetricRegistry;
}  // namespace voodb::obs

namespace voodb::emu {

/// Configuration of the emulated Texas store.
struct TexasConfig {
  uint32_t page_size = 4096;
  /// Page frames the OS grants the store's mapping (0.8 * physical RAM in
  /// the validation experiments).
  uint64_t memory_pages = 13107;  // 64 MB host
  bool reserve_references = true;
  bool dirty_on_load = true;
  /// Reserved frames enter the LRU hot (Linux 2.0 behaviour).
  bool reservations_enter_hot = true;
  storage::PlacementPolicy placement =
      storage::PlacementPolicy::kOptimizedSequential;
  double storage_overhead = 1.0;

  /// Frames for `memory_mb` megabytes of physical RAM.
  static uint64_t FramesForMemory(double memory_mb, uint32_t page_size);
};

/// Result of a DSTC reorganization inside Texas.
struct TexasClusteringMetrics {
  bool reorganized = false;
  uint64_t num_clusters = 0;
  double mean_cluster_size = 0.0;
  /// Total overhead I/Os = scan reads + reference-patch writes + cluster
  /// writes (physical OIDs!).
  uint64_t overhead_ios = 0;
  uint64_t scan_reads = 0;
  uint64_t patch_writes = 0;
  uint64_t cluster_writes = 0;
};

/// The emulated Texas store.
class TexasEmulator {
 public:
  TexasEmulator(TexasConfig config, const ocb::ObjectBase* base,
                uint64_t seed);

  /// Installs a clustering policy that observes subsequent transactions
  /// (DSTC is "integrated in Texas as a collection of new modules").
  void SetClusteringPolicy(std::unique_ptr<cluster::ClusteringPolicy> policy);

  core::PhaseMetrics RunTransactions(ocb::WorkloadSource& workload,
                                     uint64_t n);
  core::PhaseMetrics RunTransactionsOfKind(ocb::WorkloadSource& workload,
                                           ocb::TransactionKind kind,
                                           uint64_t n);

  /// Installs an access-trace recorder (not owned; nullptr detaches):
  /// transaction markers and object accesses from the drive loop, page
  /// accesses from the VM touch loop.
  void SetRecorder(trace::Recorder* recorder) { recorder_ = recorder; }

  /// Runs the installed policy's reorganization with physical-OID cost
  /// accounting (full scan + reference patching).
  TexasClusteringMetrics PerformClustering();

  /// Drops all frames (process restart between phases).
  void DropMemory() { vm_->DropAll(); }

  uint64_t NumPages() const { return placement_->NumPages(); }
  const storage::VirtualMemoryModel& vm() const { return *vm_; }
  const cluster::ClusteringPolicy* policy() const { return policy_.get(); }

  /// Registers the emulator counters with `registry` (obs subsystem).
  void RegisterMetrics(obs::MetricRegistry& registry) const;

 private:
  core::PhaseMetrics Drive(ocb::WorkloadSource& workload,
                           const ocb::TransactionKind* forced, uint64_t n);
  void AccessObject(ocb::Oid oid, bool write);
  void CountIos(const std::vector<storage::PageIo>& ios);
  void RebuildAdjacency();

  TexasConfig config_;
  const ocb::ObjectBase* base_;
  std::unique_ptr<storage::Placement> placement_;
  storage::PageAdjacency adjacency_;
  std::unique_ptr<storage::VirtualMemoryModel> vm_;
  std::unique_ptr<cluster::ClusteringPolicy> policy_;
  trace::Recorder* recorder_ = nullptr;
  /// Reused I/O scratch buffer (the access path never allocates).
  std::vector<storage::PageIo> scratch_ios_;
  uint64_t reads_ = 0;
  uint64_t writes_ = 0;
  uint64_t accesses_ = 0;
};

}  // namespace voodb::emu

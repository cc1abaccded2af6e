/// \file alloc_budget_test.cpp
/// \brief Steady-state heap allocations per committed transaction.
///
/// The simulated access path — admission, CPU grants, concurrency-control
/// decisions, buffer and VM accesses, disk I/O, network shipping, commit
/// and span tracing — runs on pooled state and `SmallFunction`
/// continuations, so once a system is warm it allocates (almost) nothing
/// per transaction.  This binary replaces the global operator new with a
/// counting one (here only, never in a library), warms each system, then
/// counts allocations over a steady window and holds every configuration
/// to a small documented budget.
///
/// The allocations that remain:
///  - the `ocb::Transaction` the public `WorkloadSource` returns by value:
///    the generator grows its access vector by push_back (~8 allocations
///    per transaction).  It is measured on a twin generator and left out
///    of the single-system budgets;
///  - MVCC version chains spilling past their two inline versions, and
///    the dense per-oid arrays reaching the highest oid written;
///  - span exemplar retention: a transaction slower than the retained K
///    copies its span tree out;
///  - pools, rings and index tables still reaching their peak size.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>

#include "cc/kind.hpp"
#include "desp/random.hpp"
#include "ocb/object_base.hpp"
#include "ocb/workload.hpp"
#include "voodb/config.hpp"
#include "voodb/sharded.hpp"
#include "voodb/system.hpp"

namespace {

std::atomic<uint64_t> g_allocations{0};

void* Count(void* p) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return p;
}

void* Allocate(std::size_t size) {
  if (void* p = Count(std::malloc(size == 0 ? 1 : size))) return p;
  throw std::bad_alloc();
}

void* AllocateAligned(std::size_t size, std::align_val_t align) {
  const std::size_t alignment = static_cast<std::size_t>(align);
  // aligned_alloc wants a size that is a multiple of the alignment.
  const std::size_t rounded = (size + alignment - 1) / alignment * alignment;
  if (void* p = Count(std::aligned_alloc(
          alignment, rounded == 0 ? alignment : rounded))) {
    return p;
  }
  throw std::bad_alloc();
}

}  // namespace

// Every replaceable form, so each allocation is counted once and released
// by the matching function.
void* operator new(std::size_t size) { return Allocate(size); }
void* operator new[](std::size_t size) { return Allocate(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return AllocateAligned(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return AllocateAligned(size, align);
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return Count(std::malloc(size == 0 ? 1 : size));
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return Count(std::malloc(size == 0 ? 1 : size));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace voodb {
namespace {

using core::SystemClass;
using core::VoodbConfig;

/// Transactions run to warm a system, then counted.
constexpr uint64_t kWarmup = 600;
constexpr uint64_t kWindow = 600;

ocb::ObjectBase Base() {
  ocb::OcbParameters params;
  params.num_classes = 20;
  params.num_objects = 4000;
  params.p_update = 0.05;     // writes, so the protocols conflict
  params.think_time_ms = 1.0;  // submissions go through scheduled events
  params.seed = 7;
  return ocb::ObjectBase::Generate(params);
}

const ocb::ObjectBase& SharedBase() {
  static const ocb::ObjectBase base = Base();
  return base;
}

/// Three users contending on a buffer smaller than the base, so hits,
/// misses, evictions, write-backs, lock waits and restarts all happen.
/// This measures the steady state, not thrashing: with more users or
/// writes deadlock_detect falls into restart storms (tens of thousands of
/// restarts per hundred commits) whose retry span trees grow until the
/// process runs out of memory.
VoodbConfig Contended() {
  VoodbConfig config;
  config.num_users = 3;
  config.multiprogramming_level = 3;
  config.buffer_pages = 150;
  config.network_throughput_mbps = 10.0;
  return config;
}

/// Allocations per committed transaction over a steady window, split
/// into the workload generator's share and the simulator's.
struct Count {
  double total = 0.0;
  double workload = 0.0;
  double Simulator() const { return total - workload; }
};

/// Allocations of `n` Next() calls on a generator that already drew
/// `skip` transactions — the workload's share of a window, measured on a
/// twin of the generator the system draws from (same stream, same order).
uint64_t WorkloadAllocations(uint64_t seed, uint64_t skip, uint64_t n) {
  ocb::WorkloadGenerator twin(&SharedBase(),
                              desp::RandomStream(seed).Derive(1));
  for (uint64_t i = 0; i < skip; ++i) twin.Next();
  const uint64_t before = g_allocations.load();
  for (uint64_t i = 0; i < n; ++i) twin.Next();
  return g_allocations.load() - before;
}

Count PerTxn(const VoodbConfig& config) {
  constexpr uint64_t kSeed = 11;
  core::VoodbSystem sys(config, &SharedBase(), nullptr, kSeed);
  ocb::WorkloadGenerator gen(&SharedBase(),
                             desp::RandomStream(kSeed).Derive(1));
  sys.RunTransactions(gen, kWarmup);
  const uint64_t before = g_allocations.load();
  const core::PhaseMetrics m = sys.RunTransactions(gen, kWindow);
  const uint64_t total = g_allocations.load() - before;
  EXPECT_EQ(m.transactions, kWindow);
  const double txns = static_cast<double>(kWindow);
  return Count{static_cast<double>(total) / txns,
               static_cast<double>(
                   WorkloadAllocations(kSeed, kWarmup, kWindow)) /
                   txns};
}

struct Budget {
  cc::ProtocolKind protocol;
  double simulator_per_txn;
};

TEST(AllocationBudget, EveryProtocolOnEverySystemClass) {
  // The simulator's share of each window: span exemplar retention (a new
  // top-K transaction copies its tree out) and the span slab adding a
  // chunk for a retry tree larger than any before, ~0.1-0.5 per
  // transaction under every protocol; MVCC adds version chains spilling
  // past their two inline versions while long transactions hold the
  // pruning horizon back (~1 per transaction).  The workload generator's
  // share (~8 per transaction) is measured separately and excluded.
  const Budget budgets[] = {
      {cc::ProtocolKind::kNoWait, 1.0},
      {cc::ProtocolKind::kWaitDie, 1.0},
      {cc::ProtocolKind::kDeadlockDetect, 1.0},
      {cc::ProtocolKind::kMvcc, 2.0},
      {cc::ProtocolKind::kOcc, 1.0},
  };
  for (const SystemClass system_class :
       {SystemClass::kCentralized, SystemClass::kObjectServer,
        SystemClass::kPageServer, SystemClass::kDbServer}) {
    for (const Budget& budget : budgets) {
      VoodbConfig config = Contended();
      config.system_class = system_class;
      config.use_lock_manager = true;
      config.cc_protocol = budget.protocol;
      // The DbServer cases also force the buffer at every commit.
      config.flush_on_commit = system_class == SystemClass::kDbServer;
      const Count count = PerTxn(config);
      std::printf("%-13s %-15s %6.2f per txn (simulator %.2f)\n",
                  core::ToString(system_class),
                  cc::ToString(budget.protocol), count.total,
                  count.Simulator());
      EXPECT_LE(count.Simulator(), budget.simulator_per_txn)
          << core::ToString(system_class) << " / "
          << cc::ToString(budget.protocol);
    }
  }
}

TEST(AllocationBudget, TexasVirtualMemoryPath) {
  // Reserve-on-swizzle faults and swap writes through the flat VM frames
  // (no concurrency control); only exemplar retention remains.
  VoodbConfig config = Contended();
  config.system_class = SystemClass::kCentralized;
  config.use_virtual_memory = true;
  config.vm_reserve_references = true;
  const Count count = PerTxn(config);
  std::printf("texas vm %6.2f per txn (simulator %.2f)\n", count.total,
              count.Simulator());
  EXPECT_LE(count.Simulator(), 1.0);
}

/// Allocations of a fresh 2-shard system running `n` transactions per
/// shard in one phase; `*committed` receives the commits.
uint64_t ShardedRun(const VoodbConfig& config, uint64_t n,
                    uint64_t* committed) {
  const uint64_t before = g_allocations.load();
  core::ShardedVoodb sharded(config, &SharedBase(), /*seed=*/11);
  *committed = sharded.Run(n).transactions;
  return g_allocations.load() - before;
}

TEST(AllocationBudget, TwoShardRun) {
  // The shards' generators are internal, so this budget includes the
  // workload's share (~8 per transaction, plus the remote
  // sub-transactions' own) beside MVCC chain growth and exemplars.  Set-up
  // and warm-up cancel out: the window is the difference between a run
  // of 2n and a run of n transactions per shard.  (Two phases on one
  // system would be simpler, but a second Run() with cross-shard traffic
  // can mail an event into a partition's past.)
  VoodbConfig config = Contended();
  config.system_class = SystemClass::kCentralized;
  config.use_lock_manager = true;
  config.cc_protocol = cc::ProtocolKind::kMvcc;
  config.shards = 2;
  config.multi_partition_pct = 0.2;
  uint64_t short_commits = 0;
  uint64_t long_commits = 0;
  ShardedRun(config, 10, &short_commits);  // one-time statics
  const uint64_t short_run = ShardedRun(config, kWarmup / 2, &short_commits);
  const uint64_t long_run =
      ShardedRun(config, (kWarmup + kWindow) / 2, &long_commits);
  ASSERT_GT(long_commits, short_commits);
  const double per_txn = static_cast<double>(long_run - short_run) /
                         static_cast<double>(long_commits - short_commits);
  std::printf("2 shards %6.2f per txn (workload included)\n", per_txn);
  EXPECT_LE(per_txn, 12.0);
}

}  // namespace
}  // namespace voodb

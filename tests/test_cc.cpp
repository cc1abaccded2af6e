/// \file test_cc.cpp
/// \brief Tests for the pluggable concurrency-control subsystem (src/cc):
/// per-protocol unit semantics, pooled transaction tables, the factory,
/// and end-to-end VOODB runs under every protocol with determinism.
#include <gtest/gtest.h>

#include "cc/mvcc.hpp"
#include "cc/occ.hpp"
#include "cc/protocol.hpp"
#include "cc/two_phase.hpp"
#include "desp/random.hpp"
#include "ocb/workload.hpp"
#include "voodb/system.hpp"

namespace voodb::cc {
namespace {

// --- Interface / factory -----------------------------------------------------

TEST(CcProtocol, FactoryBuildsEveryKind) {
  desp::Scheduler sched;
  for (const ProtocolKind kind :
       {ProtocolKind::kNoWait, ProtocolKind::kWaitDie,
        ProtocolKind::kDeadlockDetect, ProtocolKind::kMvcc,
        ProtocolKind::kOcc}) {
    const auto protocol = MakeProtocol(kind, &sched);
    ASSERT_NE(protocol, nullptr);
    EXPECT_EQ(protocol->kind(), kind);
    EXPECT_EQ(protocol->ActiveTransactions(), 0u);
  }
}

TEST(CcProtocol, KindNames) {
  EXPECT_STREQ(ToString(ProtocolKind::kNoWait), "no_wait");
  EXPECT_STREQ(ToString(ProtocolKind::kWaitDie), "wait_die");
  EXPECT_STREQ(ToString(ProtocolKind::kDeadlockDetect), "deadlock_detect");
  EXPECT_STREQ(ToString(ProtocolKind::kMvcc), "mvcc");
  EXPECT_STREQ(ToString(ProtocolKind::kOcc), "occ");
}

// --- TxnTable pooling --------------------------------------------------------

struct PooledState {
  std::vector<int> payload;
  void Recycle() { payload.clear(); }
};

TEST(CcTxnTable, CapacityBoundedByConcurrencyNotChurn) {
  TxnTable<PooledState> table;
  // 1000 sequential transactions, at most 3 concurrent: the slab must
  // stop growing at the concurrency peak.
  for (uint64_t t = 0; t < 1000; t += 3) {
    table.Begin(t).payload.push_back(1);
    table.Begin(t + 1).payload.push_back(2);
    table.Begin(t + 2);
    table.End(t);
    table.End(t + 1);
    table.End(t + 2);
  }
  EXPECT_EQ(table.active(), 0u);
  EXPECT_LE(table.capacity(), 3u);
}

TEST(CcTxnTable, RecycleClearsState) {
  TxnTable<PooledState> table;
  table.Begin(1).payload.assign(10, 7);
  table.End(1);
  EXPECT_TRUE(table.Begin(2).payload.empty());
  table.End(2);
}

// --- 2PL no-wait -------------------------------------------------------------

TEST(CcNoWait, SharedCompatibleExclusiveAbortsImmediately) {
  desp::Scheduler sched;
  NoWait2pl cc(&sched);
  cc.Begin(1, 1);
  cc.Begin(2, 2);
  int granted = 0;
  int aborted = 0;
  cc.Access(1, 10, false, [&] { ++granted; }, [] { FAIL(); });
  cc.Access(2, 10, false, [&] { ++granted; }, [] { FAIL(); });
  sched.Run();
  EXPECT_EQ(granted, 2);
  // A writer against two readers dies on the spot — no queue exists.
  cc.Begin(3, 3);
  cc.Access(3, 10, true, [] { FAIL() << "no-wait must not grant"; },
            [&] { ++aborted; });
  sched.Run();
  EXPECT_EQ(aborted, 1);
  EXPECT_EQ(cc.stats().aborts_no_wait, 1u);
  cc.Abort(3);
  cc.Commit(1);
  cc.Commit(2);
  EXPECT_EQ(cc.ActiveTransactions(), 0u);
}

TEST(CcNoWait, ReleaseMakesTheObjectGrantableAgain) {
  desp::Scheduler sched;
  NoWait2pl cc(&sched);
  cc.Begin(1, 1);
  cc.Access(1, 10, true, [] {}, [] { FAIL(); });
  sched.Run();
  cc.Commit(1);
  cc.Begin(2, 2);
  bool ok = false;
  cc.Access(2, 10, true, [&] { ok = true; }, [] { FAIL(); });
  sched.Run();
  EXPECT_TRUE(ok);
  cc.Commit(2);
}

TEST(CcNoWait, UpgradeOfOwnSharedLockSucceedsWhenSoleHolder) {
  desp::Scheduler sched;
  NoWait2pl cc(&sched);
  cc.Begin(1, 1);
  int granted = 0;
  cc.Access(1, 10, false, [&] { ++granted; }, [] { FAIL(); });
  cc.Access(1, 10, true, [&] { ++granted; }, [] { FAIL(); });
  sched.Run();
  EXPECT_EQ(granted, 2);
  cc.Commit(1);
  EXPECT_EQ(cc.ActiveTransactions(), 0u);
}

// --- 2PL wait-die -------------------------------------------------------------

TEST(CcWaitDie, MatchesLockManagerSemantics) {
  desp::Scheduler sched;
  WaitDie2pl cc(&sched);
  cc.Begin(1, 1);  // older
  cc.Begin(2, 2);  // younger
  bool young_granted = false;
  cc.Access(2, 10, true, [&] { young_granted = true; }, [] { FAIL(); });
  sched.Run();
  ASSERT_TRUE(young_granted);
  // Older waits (wait-die lets the senior queue)...
  bool old_granted = false;
  cc.Access(1, 10, true, [&] { old_granted = true; }, [] { FAIL(); });
  sched.Run();
  EXPECT_FALSE(old_granted);
  // ...and a younger conflicting requester dies.
  cc.Begin(3, 3);
  bool died = false;
  cc.Access(3, 10, false, [] { FAIL(); }, [&] { died = true; });
  sched.Run();
  EXPECT_TRUE(died);
  cc.Abort(3);
  cc.Commit(2);
  sched.Run();
  EXPECT_TRUE(old_granted);
  cc.Commit(1);
  EXPECT_EQ(cc.ActiveTransactions(), 0u);
  EXPECT_EQ(cc.stats().aborts_wait_die, 1u);
  EXPECT_EQ(cc.stats().waits, 1u);
}

// --- 2PL deadlock detection --------------------------------------------------

TEST(CcDeadlockDetect, PlainConflictWaitsInsteadOfDying) {
  desp::Scheduler sched;
  DeadlockDetect2pl cc(&sched);
  cc.Begin(1, 1);
  cc.Begin(2, 2);
  cc.Access(1, 10, true, [] {}, [] { FAIL(); });
  sched.Run();
  bool granted = false;
  // A younger waiter would die under wait-die; here it just waits.
  cc.Access(2, 10, true, [&] { granted = true; }, [] { FAIL(); });
  sched.Run();
  EXPECT_FALSE(granted);
  EXPECT_EQ(cc.stats().waits, 1u);
  EXPECT_EQ(cc.stats().TotalAborts(), 0u);
  cc.Commit(1);
  sched.Run();
  EXPECT_TRUE(granted);
  cc.Commit(2);
  EXPECT_EQ(cc.ActiveTransactions(), 0u);
}

TEST(CcDeadlockDetect, TwoTxnCycleAbortsTheClosingRequester) {
  desp::Scheduler sched;
  DeadlockDetect2pl cc(&sched);
  cc.Begin(1, 1);
  cc.Begin(2, 2);
  // T1 holds A, T2 holds B.
  cc.Access(1, 10, true, [] {}, [] { FAIL(); });
  cc.Access(2, 20, true, [] {}, [] { FAIL(); });
  sched.Run();
  // T1 -> B parks (no cycle yet).
  bool t1_b = false;
  cc.Access(1, 20, true, [&] { t1_b = true; }, [] { FAIL(); });
  sched.Run();
  EXPECT_FALSE(t1_b);
  // T2 -> A would close the cycle: T2 must be the victim.
  bool t2_died = false;
  cc.Access(2, 10, true, [] { FAIL() << "cycle must abort"; },
            [&] { t2_died = true; });
  sched.Run();
  EXPECT_TRUE(t2_died);
  EXPECT_EQ(cc.stats().aborts_deadlock, 1u);
  // Aborting T2 releases B and wakes T1.
  cc.Abort(2);
  sched.Run();
  EXPECT_TRUE(t1_b);
  cc.Commit(1);
  EXPECT_EQ(cc.ActiveTransactions(), 0u);
}

TEST(CcDeadlockDetect, ThreeTxnCycleDetectedThroughTheGraph) {
  desp::Scheduler sched;
  DeadlockDetect2pl cc(&sched);
  for (uint64_t t = 1; t <= 3; ++t) cc.Begin(t, t);
  cc.Access(1, 10, true, [] {}, [] { FAIL(); });
  cc.Access(2, 20, true, [] {}, [] { FAIL(); });
  cc.Access(3, 30, true, [] {}, [] { FAIL(); });
  sched.Run();
  // T1 -> B, T2 -> C park; T3 -> A closes the 3-cycle.
  cc.Access(1, 20, true, [] {}, [] { FAIL(); });
  sched.Run();
  cc.Access(2, 30, true, [] {}, [] { FAIL(); });
  sched.Run();
  bool t3_died = false;
  cc.Access(3, 10, true, [] { FAIL(); }, [&] { t3_died = true; });
  sched.Run();
  EXPECT_TRUE(t3_died);
  cc.Abort(3);
  cc.Abort(2);
  cc.Abort(1);
  EXPECT_EQ(cc.ActiveTransactions(), 0u);
}

TEST(CcDeadlockDetect, UpgradeDeadlockBetweenTwoReaders) {
  desp::Scheduler sched;
  DeadlockDetect2pl cc(&sched);
  cc.Begin(1, 1);
  cc.Begin(2, 2);
  cc.Access(1, 10, false, [] {}, [] { FAIL(); });
  cc.Access(2, 10, false, [] {}, [] { FAIL(); });
  sched.Run();
  // T1's upgrade parks on T2's S hold; T2's upgrade would deadlock.
  bool t1_x = false;
  cc.Access(1, 10, true, [&] { t1_x = true; }, [] { FAIL(); });
  sched.Run();
  EXPECT_FALSE(t1_x);
  bool t2_died = false;
  cc.Access(2, 10, true, [] { FAIL(); }, [&] { t2_died = true; });
  sched.Run();
  EXPECT_TRUE(t2_died);
  cc.Abort(2);
  sched.Run();
  EXPECT_TRUE(t1_x);
  cc.Commit(1);
  EXPECT_EQ(cc.ActiveTransactions(), 0u);
}

// --- MVCC --------------------------------------------------------------------

TEST(CcMvcc, ReadersNeverBlockOnWriteIntents) {
  desp::Scheduler sched;
  Mvcc cc(&sched);
  cc.Begin(1, 1);
  cc.Begin(2, 2);
  bool wrote = false;
  bool read = false;
  cc.Access(1, 10, true, [&] { wrote = true; }, [] { FAIL(); });
  cc.Access(2, 10, false, [&] { read = true; }, [] { FAIL(); });
  sched.Run();
  EXPECT_TRUE(wrote);
  EXPECT_TRUE(read);
  EXPECT_EQ(cc.stats().waits, 0u);
  EXPECT_TRUE(cc.ValidateCommit(1));
  cc.Commit(1);
  EXPECT_TRUE(cc.ValidateCommit(2));
  cc.Commit(2);
}

TEST(CcMvcc, ConcurrentWritersConflictImmediately) {
  desp::Scheduler sched;
  Mvcc cc(&sched);
  cc.Begin(1, 1);
  cc.Begin(2, 2);
  cc.Access(1, 10, true, [] {}, [] { FAIL(); });
  sched.Run();
  bool died = false;
  cc.Access(2, 10, true, [] { FAIL() << "second intent must conflict"; },
            [&] { died = true; });
  sched.Run();
  EXPECT_TRUE(died);
  EXPECT_EQ(cc.stats().aborts_write_conflict, 1u);
  cc.Abort(2);
  cc.Commit(1);
  EXPECT_EQ(cc.ActiveTransactions(), 0u);
}

TEST(CcMvcc, FirstCommitterWinsValidation) {
  desp::Scheduler sched;
  Mvcc cc(&sched);
  cc.Begin(1, 1);  // snapshot before T2's commit
  cc.Begin(2, 2);
  cc.Access(2, 10, true, [] {}, [] { FAIL(); });
  sched.Run();
  EXPECT_TRUE(cc.ValidateCommit(2));
  cc.Commit(2);  // installs a version newer than T1's snapshot
  // T1 now writes the same object: its intent is free (T2 released it)
  // but commit-time validation must fail — first committer won.
  bool wrote = false;
  cc.Access(1, 10, true, [&] { wrote = true; }, [] { FAIL(); });
  sched.Run();
  EXPECT_TRUE(wrote);
  EXPECT_FALSE(cc.ValidateCommit(1));
  EXPECT_EQ(cc.stats().validation_failures, 1u);
  cc.Abort(1);
  EXPECT_EQ(cc.ActiveTransactions(), 0u);
}

TEST(CcMvcc, VersionsPrunedBelowOldestSnapshot) {
  desp::Scheduler sched;
  Mvcc cc(&sched);
  // Sequential committed writes to one object: with no concurrent
  // readers the chain must stay short (pruned to the horizon).
  for (uint64_t t = 1; t <= 20; ++t) {
    cc.Begin(t, t);
    cc.Access(t, 10, true, [] {}, [] { FAIL(); });
    sched.Run();
    ASSERT_TRUE(cc.ValidateCommit(t));
    cc.Commit(t);
  }
  EXPECT_GT(cc.stats().versions_installed, 0u);
  EXPECT_GT(cc.stats().versions_pruned, 0u);
  EXPECT_LE(cc.VersionChainLength(10), 2u);
}

// --- OCC ---------------------------------------------------------------------

TEST(CcOcc, AccessesAlwaysGrantImmediately) {
  desp::Scheduler sched;
  Occ cc(&sched);
  cc.Begin(1, 1);
  cc.Begin(2, 2);
  int granted = 0;
  cc.Access(1, 10, true, [&] { ++granted; }, [] { FAIL(); });
  cc.Access(2, 10, true, [&] { ++granted; }, [] { FAIL(); });
  sched.Run();
  EXPECT_EQ(granted, 2);
  EXPECT_EQ(cc.stats().waits, 0u);
  cc.Abort(1);
  cc.Abort(2);
}

TEST(CcOcc, BackwardValidationCatchesStaleReads) {
  desp::Scheduler sched;
  Occ cc(&sched);
  cc.Begin(1, 1);
  cc.Begin(2, 2);
  // T1 reads A; T2 writes A and commits first.
  cc.Access(1, 10, false, [] {}, [] { FAIL(); });
  cc.Access(2, 10, true, [] {}, [] { FAIL(); });
  sched.Run();
  ASSERT_TRUE(cc.ValidateCommit(2));
  cc.Commit(2);
  // T1's read overlaps a write set committed after its start: abort.
  EXPECT_FALSE(cc.ValidateCommit(1));
  EXPECT_EQ(cc.stats().validation_failures, 1u);
  cc.Abort(1);
  EXPECT_EQ(cc.ActiveTransactions(), 0u);
}

TEST(CcOcc, DisjointSetsCommitFreely) {
  desp::Scheduler sched;
  Occ cc(&sched);
  cc.Begin(1, 1);
  cc.Begin(2, 2);
  cc.Access(1, 10, false, [] {}, [] { FAIL(); });
  cc.Access(2, 20, true, [] {}, [] { FAIL(); });
  sched.Run();
  EXPECT_TRUE(cc.ValidateCommit(2));
  cc.Commit(2);
  EXPECT_TRUE(cc.ValidateCommit(1));
  cc.Commit(1);
  EXPECT_EQ(cc.stats().validation_failures, 0u);
}

TEST(CcOcc, CommittedLogTruncatedToActiveHorizon) {
  desp::Scheduler sched;
  Occ cc(&sched);
  for (uint64_t t = 1; t <= 100; ++t) {
    cc.Begin(t, t);
    cc.Access(t, 10 + (t % 7), true, [] {}, [] { FAIL(); });
    sched.Run();
    ASSERT_TRUE(cc.ValidateCommit(t));
    cc.Commit(t);
  }
  // No active transactions: the whole log is below the horizon.
  EXPECT_LE(cc.RetainedCommits(), 1u);
}

// --- End-to-end: every protocol inside the VOODB system ---------------------

ocb::OcbParameters ContendedWorkload() {
  ocb::OcbParameters p;
  p.num_classes = 8;
  p.num_objects = 300;
  p.max_refs_per_class = 3;
  p.base_instance_size = 60;
  p.p_update = 0.5;
  p.root_region = 6;
  p.seed = 111;
  return p;
}

core::VoodbConfig ProtocolConfig(ProtocolKind kind) {
  core::VoodbConfig cfg;
  cfg.system_class = core::SystemClass::kCentralized;
  cfg.page_size = 1024;
  cfg.buffer_pages = 128;
  cfg.multiprogramming_level = 8;
  cfg.num_users = 8;
  cfg.use_lock_manager = true;
  cfg.cc_protocol = kind;
  cfg.get_lock_ms = 0.2;
  cfg.release_lock_ms = 0.2;
  return cfg;
}

TEST(CcSystem, EveryProtocolCompletesAContendedRun) {
  const ocb::ObjectBase base = ocb::ObjectBase::Generate(ContendedWorkload());
  for (const ProtocolKind kind :
       {ProtocolKind::kNoWait, ProtocolKind::kWaitDie,
        ProtocolKind::kDeadlockDetect, ProtocolKind::kMvcc,
        ProtocolKind::kOcc}) {
    core::VoodbSystem sys(ProtocolConfig(kind), &base, nullptr, 13);
    ocb::WorkloadGenerator gen(&base, desp::RandomStream(13));
    const core::PhaseMetrics m = sys.RunTransactions(gen, 120);
    EXPECT_EQ(m.transactions, 120u) << ToString(kind);
    const cc::Protocol* protocol = sys.transaction_manager().cc_protocol();
    ASSERT_NE(protocol, nullptr) << ToString(kind);
    EXPECT_EQ(protocol->kind(), kind);
    // Everything released / forgotten when the run drains.
    EXPECT_EQ(protocol->ActiveTransactions(), 0u) << ToString(kind);
    EXPECT_EQ(sys.transaction_manager().inflight_pool_live(), 0u)
        << ToString(kind);
    // Restart accounting agrees between the TM and the protocol.
    EXPECT_EQ(protocol->stats().TotalAborts(), m.transaction_restarts)
        << ToString(kind);
    if (kind == ProtocolKind::kWaitDie) {
      EXPECT_EQ(protocol->stats().aborts_wait_die, m.transaction_restarts);
    }
  }
}

TEST(CcSystem, WaitDieIsTheDefaultProtocol) {
  const ocb::ObjectBase base = ocb::ObjectBase::Generate(ContendedWorkload());
  core::VoodbConfig cfg = ProtocolConfig(ProtocolKind::kWaitDie);
  cfg.cc_protocol = core::VoodbConfig{}.cc_protocol;
  core::VoodbSystem sys(cfg, &base, nullptr, 13);
  ocb::WorkloadGenerator gen(&base, desp::RandomStream(13));
  sys.RunTransactions(gen, 60);
  const cc::Protocol* protocol = sys.transaction_manager().cc_protocol();
  ASSERT_NE(protocol, nullptr);
  EXPECT_EQ(protocol->kind(), ProtocolKind::kWaitDie);
  EXPECT_GT(protocol->stats().requests, 0u);
}

TEST(CcSystem, RunsAreDeterministicPerProtocol) {
  const ocb::ObjectBase base = ocb::ObjectBase::Generate(ContendedWorkload());
  for (const ProtocolKind kind :
       {ProtocolKind::kNoWait, ProtocolKind::kDeadlockDetect,
        ProtocolKind::kMvcc, ProtocolKind::kOcc}) {
    core::PhaseMetrics runs[2];
    for (int r = 0; r < 2; ++r) {
      core::VoodbSystem sys(ProtocolConfig(kind), &base, nullptr, 13);
      ocb::WorkloadGenerator gen(&base, desp::RandomStream(13));
      runs[r] = sys.RunTransactions(gen, 120);
    }
    EXPECT_EQ(runs[0].transaction_restarts, runs[1].transaction_restarts)
        << ToString(kind);
    EXPECT_EQ(runs[0].total_ios, runs[1].total_ios) << ToString(kind);
    EXPECT_EQ(runs[0].sim_time_ms, runs[1].sim_time_ms) << ToString(kind);
  }
}

TEST(CcSystem, InFlightPoolBoundedByConcurrency) {
  const ocb::ObjectBase base = ocb::ObjectBase::Generate(ContendedWorkload());
  core::VoodbSystem sys(ProtocolConfig(ProtocolKind::kWaitDie), &base,
                        nullptr, 13);
  ocb::WorkloadGenerator gen(&base, desp::RandomStream(13));
  sys.RunTransactions(gen, 100);
  const size_t after_first = sys.transaction_manager().inflight_pool_capacity();
  EXPECT_LE(after_first, 8u);  // num_users
  sys.RunTransactions(gen, 100);
  // Steady state: running more transactions allocates no new slots.
  EXPECT_EQ(sys.transaction_manager().inflight_pool_capacity(), after_first);
  EXPECT_EQ(sys.transaction_manager().inflight_pool_live(), 0u);
}

TEST(CcSystem, MetricsExposeCcCounters) {
  const ocb::ObjectBase base = ocb::ObjectBase::Generate(ContendedWorkload());
  core::VoodbSystem sys(ProtocolConfig(ProtocolKind::kMvcc), &base, nullptr,
                        13);
  ocb::WorkloadGenerator gen(&base, desp::RandomStream(13));
  sys.RunTransactions(gen, 120);
  const obs::MetricSnapshot snapshot = sys.metric_registry().Snapshot();
  ASSERT_EQ(snapshot.counters.count("cc.begins"), 1u);
  EXPECT_GT(snapshot.counters.at("cc.begins"), 0u);
  ASSERT_EQ(snapshot.counters.count("cc.commits"), 1u);
  EXPECT_GT(snapshot.counters.at("cc.commits"), 0u);
  EXPECT_EQ(snapshot.counters.count("cc.aborts.write_conflict"), 1u);
  EXPECT_EQ(snapshot.histograms.count("cc.version_chain"), 1u);
}

}  // namespace
}  // namespace voodb::cc

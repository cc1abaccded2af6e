/// \file test_lock_table.cpp
/// \brief Tests for the shared 2PL lock table and the wait-die protocol
/// over it (paper §5 concurrency-control extension).
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "cc/lock_table.hpp"
#include "cc/two_phase.hpp"
#include "util/check.hpp"

namespace voodb::cc {
namespace {

constexpr bool kRead = false;
constexpr bool kWrite = true;

/// Wait-die 2PL driven through the cc::Protocol interface, with its lock
/// table inspected directly.  The suite keeps its historical name: this
/// protocol is the paper's §5 lock manager.
class LockManagerTest : public ::testing::Test {
 protected:
  const LockTable& locks() const { return wait_die_.locks(); }

  desp::Scheduler sched_;
  WaitDie2pl wait_die_{&sched_};
  Protocol& lm_ = wait_die_;
};

TEST_F(LockManagerTest, SharedLocksAreCompatible) {
  lm_.Begin(1, 1);
  lm_.Begin(2, 2);
  int grants = 0;
  lm_.Access(1, 10, kRead, [&] { ++grants; }, [] { FAIL(); });
  lm_.Access(2, 10, kRead, [&] { ++grants; }, [] { FAIL(); });
  sched_.Run();
  EXPECT_EQ(grants, 2);
  EXPECT_TRUE(locks().Holds(1, 10, LockMode::kShared));
  EXPECT_TRUE(locks().Holds(2, 10, LockMode::kShared));
  EXPECT_EQ(lm_.stats().immediate_grants, 2u);
}

TEST_F(LockManagerTest, ExclusiveConflictsMakeOlderWait) {
  lm_.Begin(1, 1);  // older
  lm_.Begin(2, 2);  // younger
  bool young_granted = false;
  bool old_granted = false;
  lm_.Access(2, 10, kWrite, [&] { young_granted = true; }, [] { FAIL(); });
  sched_.Run();
  ASSERT_TRUE(young_granted);
  // The older transaction may wait for the younger holder.
  lm_.Access(1, 10, kWrite, [&] { old_granted = true; },
             [] { FAIL() << "older transaction must not die"; });
  sched_.Run();
  EXPECT_FALSE(old_granted);
  EXPECT_EQ(lm_.stats().waits, 1u);
  // Release wakes the waiter.
  lm_.Commit(2);
  sched_.Run();
  EXPECT_TRUE(old_granted);
  EXPECT_TRUE(locks().Holds(1, 10, LockMode::kExclusive));
}

TEST_F(LockManagerTest, YoungerRequesterDies) {
  lm_.Begin(1, 1);  // older
  lm_.Begin(2, 2);  // younger
  lm_.Access(1, 10, kWrite, [] {}, [] { FAIL(); });
  sched_.Run();
  bool died = false;
  lm_.Access(2, 10, kRead, [] { FAIL() << "must die"; },
             [&] { died = true; });
  sched_.Run();
  EXPECT_TRUE(died);
  EXPECT_EQ(lm_.stats().aborts_wait_die, 1u);
}

TEST_F(LockManagerTest, UpgradeConflictFollowsWaitDie) {
  lm_.Begin(1, 1);  // older
  lm_.Begin(2, 2);  // younger
  lm_.Access(1, 10, kRead, [] {}, [] { FAIL(); });
  lm_.Access(2, 10, kRead, [] {}, [] { FAIL(); });
  sched_.Run();
  // The younger transaction upgrading against an older S-holder dies.
  bool died = false;
  lm_.Access(2, 10, kWrite, [] { FAIL(); }, [&] { died = true; });
  sched_.Run();
  EXPECT_TRUE(died);
}

TEST_F(LockManagerTest, ReleaseAllWakesQueueInFifoOrder) {
  lm_.Begin(1, 1);
  lm_.Begin(2, 2);
  lm_.Begin(3, 3);
  lm_.Access(3, 10, kWrite, [] {}, [] { FAIL(); });
  sched_.Run();
  std::vector<int> order;
  // Both older transactions wait (3 is youngest).
  lm_.Access(1, 10, kRead, [&] { order.push_back(1); }, [] { FAIL(); });
  lm_.Access(2, 10, kRead, [&] { order.push_back(2); }, [] { FAIL(); });
  sched_.Run();
  EXPECT_TRUE(order.empty());
  lm_.Commit(3);
  sched_.Run();
  // Both shared waiters wake together, FIFO.
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST_F(LockManagerTest, SharedWaitersDoNotStarveBehindExclusive) {
  // Ages: the S requester (1) is older than the X waiter (2) it queues
  // behind, so it may wait (a younger one would die — see below).
  lm_.Begin(1, 1);
  lm_.Begin(2, 2);
  lm_.Begin(3, 3);
  lm_.Access(3, 10, kRead, [] {}, [] { FAIL(); });
  sched_.Run();
  bool x_granted = false;
  bool s_granted = false;
  lm_.Access(2, 10, kWrite, [&] { x_granted = true; }, [] { FAIL(); });
  lm_.Access(1, 10, kRead, [&] { s_granted = true; }, [] { FAIL(); });
  sched_.Run();
  // FIFO head is the X request; the S behind it must not jump the queue.
  EXPECT_FALSE(x_granted);
  EXPECT_FALSE(s_granted);
  lm_.Commit(3);
  sched_.Run();
  EXPECT_TRUE(x_granted);
  EXPECT_FALSE(s_granted);  // still behind the exclusive holder
  lm_.Commit(2);
  sched_.Run();
  EXPECT_TRUE(s_granted);
}

TEST_F(LockManagerTest, YoungerRequesterDiesBehindOlderQueuedExclusive) {
  // Queue positions are wait targets: a younger S request that would
  // park behind an older conflicting X waiter dies immediately (this is
  // what prevents cycles through FIFO ordering).
  lm_.Begin(1, 1);
  lm_.Begin(2, 2);
  lm_.Begin(3, 3);
  lm_.Access(3, 10, kRead, [] {}, [] { FAIL(); });
  sched_.Run();
  lm_.Access(1, 10, kWrite, [] {}, [] { FAIL(); });
  sched_.Run();
  bool died = false;
  lm_.Access(2, 10, kRead, [] { FAIL(); }, [&] { died = true; });
  sched_.Run();
  EXPECT_TRUE(died);
}

TEST_F(LockManagerTest, UpgradeBypassesParkedWaitersWhenSoleHolder) {
  // T1 (younger) is the sole S holder; T2 (older) parks an X request
  // behind it.  T1's S->X upgrade must jump the queue: upgrades are
  // granted ahead of parked waiters when the holders are compatible,
  // otherwise the upgrade and the waiter deadlock forever.
  lm_.Begin(1, 2);  // younger holder
  lm_.Begin(2, 1);  // older waiter
  lm_.Access(1, 10, kRead, [] {}, [] { FAIL(); });
  sched_.Run();
  bool waiter_granted = false;
  lm_.Access(2, 10, kWrite, [&] { waiter_granted = true; },
             [] { FAIL() << "older waiter must not die"; });
  sched_.Run();
  ASSERT_FALSE(waiter_granted);
  bool upgraded = false;
  lm_.Access(1, 10, kWrite, [&] { upgraded = true; },
             [] { FAIL() << "sole-holder upgrade must not die"; });
  sched_.Run();
  EXPECT_TRUE(upgraded);
  EXPECT_TRUE(locks().Holds(1, 10, LockMode::kExclusive));
  EXPECT_FALSE(waiter_granted);  // still parked behind the upgraded X
  lm_.Commit(1);
  sched_.Run();
  EXPECT_TRUE(waiter_granted);
  EXPECT_EQ(lm_.stats().upgrades, 1u);
}

TEST_F(LockManagerTest, ParkedUpgradeCompletesWhenOtherHolderReleases) {
  // Both hold S; the older one's upgrade parks at the queue FRONT and a
  // younger request behind it dies (the parked upgrade is a wait-die
  // target).  Releasing the other S holder completes the upgrade.
  lm_.Begin(1, 1);  // older, will upgrade
  lm_.Begin(2, 2);  // younger co-holder
  lm_.Begin(3, 3);  // youngest, dies behind the upgrade
  lm_.Access(1, 10, kRead, [] {}, [] { FAIL(); });
  lm_.Access(2, 10, kRead, [] {}, [] { FAIL(); });
  sched_.Run();
  bool upgraded = false;
  lm_.Access(1, 10, kWrite, [&] { upgraded = true; },
             [] { FAIL() << "older upgrade must wait, not die"; });
  sched_.Run();
  EXPECT_FALSE(upgraded);
  EXPECT_EQ(lm_.stats().waits, 1u);
  bool died = false;
  lm_.Access(3, 10, kRead, [] { FAIL(); }, [&] { died = true; });
  sched_.Run();
  EXPECT_TRUE(died);  // parked X upgrade ahead is older -> die
  lm_.Commit(2);
  sched_.Run();
  EXPECT_TRUE(upgraded);
  EXPECT_TRUE(locks().Holds(1, 10, LockMode::kExclusive));
  EXPECT_EQ(lm_.stats().upgrades, 1u);
}

TEST_F(LockManagerTest, UpgradeDeathLeavesSharedHoldReleasable) {
  // Wait-die kills a younger upgrade attempt mid-transaction: the S hold
  // must survive the death (the TM aborts and releases explicitly), and
  // the release must then clean it up and unblock the other upgrader.
  lm_.Begin(1, 1);  // older
  lm_.Begin(2, 2);  // younger
  lm_.Access(1, 10, kRead, [] {}, [] { FAIL(); });
  lm_.Access(2, 10, kRead, [] {}, [] { FAIL(); });
  sched_.Run();
  bool died = false;
  lm_.Access(2, 10, kWrite, [] { FAIL(); }, [&] { died = true; });
  sched_.Run();
  ASSERT_TRUE(died);
  EXPECT_TRUE(locks().Holds(2, 10, LockMode::kShared));  // hold survives
  bool upgraded = false;
  lm_.Access(1, 10, kWrite, [&] { upgraded = true; }, [] { FAIL(); });
  sched_.Run();
  EXPECT_FALSE(upgraded);  // still blocked by T2's S
  lm_.Abort(2);            // the TM's abort path
  sched_.Run();
  EXPECT_TRUE(upgraded);
  EXPECT_EQ(lm_.ActiveTransactions(), 1u);
  lm_.Commit(1);
  EXPECT_EQ(lm_.ActiveTransactions(), 0u);
}

TEST_F(LockManagerTest, ReRequestingHeldExclusiveNeverSamplesAWait) {
  // Re-requesting a held X (in either mode) is a pure re-grant: no new
  // holder entry, no wait-time sample, only the immediate-grant counter.
  lm_.Begin(1, 1);
  lm_.Access(1, 10, kWrite, [] {}, [] { FAIL(); });
  sched_.Run();
  const uint64_t samples_after_grant = lm_.stats().wait_times.count();
  int grants = 0;
  lm_.Access(1, 10, kWrite, [&] { ++grants; }, [] { FAIL(); });
  lm_.Access(1, 10, kRead, [&] { ++grants; }, [] { FAIL(); });
  sched_.Run();
  EXPECT_EQ(grants, 2);
  EXPECT_EQ(locks().HeldLocks(1), 1u);
  EXPECT_EQ(lm_.stats().immediate_grants, 3u);
  EXPECT_EQ(lm_.stats().wait_times.count(), samples_after_grant);
  EXPECT_EQ(lm_.stats().upgrades, 0u);
}

TEST_F(LockManagerTest, WaitTimeMeasured) {
  lm_.Begin(1, 1);
  lm_.Begin(2, 2);
  lm_.Access(2, 10, kWrite, [] {}, [] { FAIL(); });
  sched_.Run();
  lm_.Access(1, 10, kWrite, [] {}, [] { FAIL(); });
  sched_.Schedule(25.0, [&] { lm_.Commit(2); });
  sched_.Run();
  EXPECT_DOUBLE_EQ(lm_.stats().wait_times.max(), 25.0);
}

TEST_F(LockManagerTest, UsageErrors) {
  EXPECT_THROW(lm_.Access(9, 1, kRead, [] {}, [] {}), util::Error);
  lm_.Begin(5, 1);
  EXPECT_THROW(lm_.Begin(5, 2), util::Error);
  EXPECT_THROW(lm_.Abort(6), util::Error);
  EXPECT_EQ(locks().HeldLocks(6), 0u);
}

TEST(LockModeNames, ToString) {
  EXPECT_STREQ(ToString(LockMode::kShared), "S");
  EXPECT_STREQ(ToString(LockMode::kExclusive), "X");
}

// --- The lock table on its own ----------------------------------------------

TEST(LockTable, GrantsParksAndPurgesThroughTheTransaction) {
  desp::Scheduler sched;
  CcStats stats;
  LockTable table(&sched, &stats);
  table.Begin(1, 1);
  table.Begin(2, 2);
  int granted = 0;
  LockTable::Action grant = [&] { ++granted; };
  EXPECT_EQ(table.TryAcquire(1, 10, LockMode::kShared, grant),
            LockTable::Request::kGranted);
  LockTable::Action upgrade = [&] { ++granted; };
  EXPECT_EQ(table.TryAcquire(1, 10, LockMode::kExclusive, upgrade),
            LockTable::Request::kStrengthened);
  LockTable::Action blocked = [&] { ++granted; };
  EXPECT_EQ(table.TryAcquire(2, 10, LockMode::kShared, blocked),
            LockTable::Request::kConflict);
  table.Park(2, 10, LockMode::kShared, /*front=*/false, std::move(blocked),
             [] { FAIL(); });
  EXPECT_NE(table.ParkedRequest(2), nullptr);
  EXPECT_EQ(&table.waiter(table.FirstWaiter(10)), table.ParkedRequest(2));
  sched.Run();
  EXPECT_EQ(granted, 2);
  EXPECT_TRUE(table.Holds(1, 10, LockMode::kExclusive));
  EXPECT_EQ(table.HeldLocks(1), 1u);  // the upgrade is not a second lock
  EXPECT_EQ(stats.upgrades, 1u);
  EXPECT_EQ(stats.waits, 1u);

  // Releasing the parked transaction drops its request without a wake.
  std::vector<ocb::Oid> woken;
  table.Release(2, [&](ocb::Oid oid) { woken.push_back(oid); });
  EXPECT_EQ(table.FirstWaiter(10), LockTable::kNone);
  EXPECT_TRUE(woken.empty());
  table.Release(1, [&](ocb::Oid oid) { woken.push_back(oid); });
  sched.Run();
  EXPECT_EQ(granted, 2);
  EXPECT_FALSE(table.Holds(1, 10, LockMode::kShared));
  EXPECT_EQ(table.HeldLocks(1), 0u);
  EXPECT_EQ(table.active(), 0u);
}

TEST(LockTable, HeldLocksCountsDistinctOidsAndReleaseWakesInOidOrder) {
  desp::Scheduler sched;
  CcStats stats;
  LockTable table(&sched, &stats);
  table.Begin(1, 1);
  table.Begin(2, 2);
  for (const ocb::Oid oid : {30, 10, 20}) {
    LockTable::Action grant = [] {};
    ASSERT_EQ(table.TryAcquire(1, oid, LockMode::kExclusive, grant),
              LockTable::Request::kGranted);
  }
  EXPECT_EQ(table.HeldLocks(1), 3u);
  LockTable::Action grant = [] {};
  ASSERT_EQ(table.TryAcquire(2, 20, LockMode::kShared, grant),
            LockTable::Request::kConflict);
  table.Park(2, 20, LockMode::kShared, /*front=*/false, std::move(grant),
             [] { FAIL(); });
  std::vector<ocb::Oid> woken;
  table.Release(1, [&](ocb::Oid oid) { woken.push_back(oid); });
  EXPECT_EQ(woken, (std::vector<ocb::Oid>{20}));
  EXPECT_TRUE(table.Holds(2, 20, LockMode::kShared));
  EXPECT_EQ(table.ParkedRequest(2), nullptr);
  EXPECT_EQ(table.HeldLocks(2), 1u);
}

TEST(LockTable, RejectsTheNullOid) {
  desp::Scheduler sched;
  CcStats stats;
  LockTable table(&sched, &stats);
  table.Begin(1, 1);
  LockTable::Action grant = [] {};
  EXPECT_THROW(table.TryAcquire(1, ocb::kNullOid, LockMode::kShared, grant),
               util::Error);
}

// --- Semantics every 2PL variant shares -------------------------------------
// Each check runs on wait-die under LockManagerTest and on the other
// variants through the value-parameterized suites below.

void ExpectReacquiringHeldLockIsImmediate(desp::Scheduler& sched,
                                          Protocol& cc,
                                          const LockTable& locks) {
  cc.Begin(1, 1);
  int grants = 0;
  cc.Access(1, 10, kWrite, [&] { ++grants; }, [] { FAIL(); });
  cc.Access(1, 10, kRead, [&] { ++grants; }, [] { FAIL(); });
  cc.Access(1, 10, kWrite, [&] { ++grants; }, [] { FAIL(); });
  sched.Run();
  EXPECT_EQ(grants, 3);
  EXPECT_EQ(locks.HeldLocks(1), 1u);
}

void ExpectSharedToExclusiveUpgrade(desp::Scheduler& sched, Protocol& cc,
                                    const LockTable& locks) {
  cc.Begin(1, 1);
  cc.Access(1, 10, kRead, [] {}, [] { FAIL(); });
  sched.Run();
  EXPECT_FALSE(locks.Holds(1, 10, LockMode::kExclusive));
  bool upgraded = false;
  cc.Access(1, 10, kWrite, [&] { upgraded = true; }, [] { FAIL(); });
  sched.Run();
  EXPECT_TRUE(upgraded);
  EXPECT_TRUE(locks.Holds(1, 10, LockMode::kExclusive));
  EXPECT_EQ(cc.stats().upgrades, 1u);
}

/// Only for the variants that queue conflicting requests (no-wait never
/// parks).
void ExpectReleaseAllDropsQueuedRequests(desp::Scheduler& sched,
                                         Protocol& cc) {
  cc.Begin(1, 2);
  cc.Begin(2, 3);  // youngest: the holder
  cc.Begin(3, 1);  // oldest: may wait behind both
  cc.Access(2, 10, kRead, [] {}, [] { FAIL(); });
  sched.Run();
  bool granted = false;
  cc.Access(1, 10, kWrite, [&] { granted = true; }, [] { FAIL(); });
  // A fresh S request never overtakes the parked X, even though it is
  // compatible with the S holder.
  bool behind_granted = false;
  cc.Access(3, 10, kRead, [&] { behind_granted = true; }, [] { FAIL(); });
  sched.Run();
  EXPECT_FALSE(behind_granted);
  // Transaction 1 gives up (external abort) while waiting: its request
  // is purged and the compatible request queued behind it wakes.
  cc.Abort(1);
  sched.Run();
  EXPECT_TRUE(behind_granted);
  cc.Abort(2);
  cc.Abort(3);
  sched.Run();
  EXPECT_FALSE(granted);  // the stale waiter was dropped
  EXPECT_EQ(cc.ActiveTransactions(), 0u);
}

TEST_F(LockManagerTest, ReacquiringHeldLockIsImmediate) {
  ExpectReacquiringHeldLockIsImmediate(sched_, lm_, locks());
}

TEST_F(LockManagerTest, SharedToExclusiveUpgrade) {
  ExpectSharedToExclusiveUpgrade(sched_, lm_, locks());
}

TEST_F(LockManagerTest, ReleaseAllDropsQueuedRequests) {
  ExpectReleaseAllDropsQueuedRequests(sched_, lm_);
}

std::string KindName(const ::testing::TestParamInfo<ProtocolKind>& info) {
  return ToString(info.param);
}

class TwoPhaseSemantics : public ::testing::TestWithParam<ProtocolKind> {
 protected:
  const LockTable& locks() const {
    return static_cast<const TwoPhaseLocking&>(*cc_).locks();
  }

  desp::Scheduler sched_;
  std::unique_ptr<Protocol> cc_ = MakeProtocol(GetParam(), &sched_);
};

TEST_P(TwoPhaseSemantics, ReacquiringHeldLockIsImmediate) {
  ExpectReacquiringHeldLockIsImmediate(sched_, *cc_, locks());
}

TEST_P(TwoPhaseSemantics, SharedToExclusiveUpgrade) {
  ExpectSharedToExclusiveUpgrade(sched_, *cc_, locks());
}

INSTANTIATE_TEST_SUITE_P(OtherTwoPhase, TwoPhaseSemantics,
                         ::testing::Values(ProtocolKind::kNoWait,
                                           ProtocolKind::kDeadlockDetect),
                         KindName);

/// The other variants that queue conflicting requests.
class QueueingTwoPhase : public TwoPhaseSemantics {};

TEST_P(QueueingTwoPhase, ReleaseAllDropsQueuedRequests) {
  ExpectReleaseAllDropsQueuedRequests(sched_, *cc_);
}

INSTANTIATE_TEST_SUITE_P(OtherQueueing, QueueingTwoPhase,
                         ::testing::Values(ProtocolKind::kDeadlockDetect),
                         KindName);

}  // namespace
}  // namespace voodb::cc

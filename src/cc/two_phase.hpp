/// \file two_phase.hpp
/// \brief The three 2PL protocol variants: no-wait, wait-die, and
/// waits-for cycle detection.
///
/// All three run over one cc::LockTable, which owns the shared S/X
/// mechanics (re-requests, upgrades, FIFO queues, release).  They differ
/// only in what a request that cannot be granted right now does:
///
///  - **NoWait2pl** aborts the requester immediately, so nothing ever
///    queues: the highest abort rate under contention.
///  - **WaitDie2pl** lets a requester wait only for younger conflicting
///    holders and queued requests ahead of it; a younger one dies.  This
///    is the paper's §5 extension and the default protocol.
///  - **DeadlockDetect2pl** lets every conflicting request wait FIFO and
///    runs a waits-for cycle search at enqueue time, aborting the
///    requester only when parking it would actually close a cycle —
///    fewer aborts than wait-die, at the cost of the graph walk.
#pragma once

#include <cstdint>
#include <vector>

#include "cc/lock_table.hpp"
#include "cc/protocol.hpp"

namespace voodb::cc {

/// The 2PL front end shared by the three variants: strict two-phase
/// locking over one LockTable, with the conflict policy left to the
/// subclass.
class TwoPhaseLocking : public Protocol {
 public:
  void Begin(uint64_t txn, uint64_t age) override;
  void Access(uint64_t txn, ocb::Oid oid, bool write, Action granted,
              Action aborted) override;
  bool ValidateCommit(uint64_t) override { return true; }
  void Commit(uint64_t txn) override;
  void Abort(uint64_t txn) override;
  size_t ActiveTransactions() const override { return locks_.active(); }

  const LockTable& locks() const { return locks_; }

 protected:
  /// `cause` and `aborts` name the annotation and the CcStats counter of
  /// this variant's abort decisions.
  TwoPhaseLocking(desp::Scheduler* scheduler, obs::AbortCause cause,
                  uint64_t CcStats::*aborts);

  /// The conflict policy: true when a request TryAcquire refused must
  /// abort instead of parking (`upgrade`: it would park at the front).
  virtual bool MustAbort(uint64_t txn, ocb::Oid oid, LockMode mode,
                         bool upgrade) = 0;
  /// Runs after `oid` gained a holder from its queue or a hold was
  /// strengthened S->X in place.
  virtual void OnHoldersChanged(ocb::Oid /*oid*/) {}

  /// Counts an abort decision and annotates the ambient trace with it.
  void NoteDecidedAbort();

  LockTable locks_;

 private:
  void Release(uint64_t txn);

  obs::AbortCause cause_;
  uint64_t CcStats::*aborts_;
};

/// 2PL that never queues: any conflict aborts the requester immediately.
class NoWait2pl final : public TwoPhaseLocking {
 public:
  explicit NoWait2pl(desp::Scheduler* scheduler);

  ProtocolKind kind() const override { return ProtocolKind::kNoWait; }

 private:
  bool MustAbort(uint64_t, ocb::Oid, LockMode, bool) override {
    return true;
  }
};

/// 2PL wait-die (the paper's §5 extension).  Ages are attempt-invariant,
/// so a restarted transaction eventually becomes the oldest and cannot
/// die forever.  Registers the `lock.*` metric names beside `cc.*`.
class WaitDie2pl final : public TwoPhaseLocking {
 public:
  explicit WaitDie2pl(desp::Scheduler* scheduler);

  ProtocolKind kind() const override { return ProtocolKind::kWaitDie; }
  void RegisterMetrics(obs::MetricRegistry& registry) const override;

 private:
  bool MustAbort(uint64_t txn, ocb::Oid oid, LockMode mode,
                 bool upgrade) override;
  /// Re-enforces the wait-die invariant after the holder set of `oid`
  /// changed: every parked waiter that now conflicts with an older
  /// holder, or an older waiter ahead of it, dies.  Without this a
  /// waiter granted from the queue can become an older holder in front
  /// of younger waiters, and an old-young wait cycle forms that
  /// enqueue-time wait-die cannot see.
  void OnHoldersChanged(ocb::Oid oid) override;
  /// True when `txn` is older than every conflicting holder of `oid` and
  /// every conflicting waiter queued before `stop` (kNone: the whole
  /// queue).  Queue positions are wait targets too: ignoring them lets
  /// cycles form through FIFO ordering.
  bool MayWait(uint64_t txn, ocb::Oid oid, LockMode mode,
               uint32_t stop) const;
};

/// 2PL with FIFO waiting and waits-for cycle detection at enqueue time.
class DeadlockDetect2pl final : public TwoPhaseLocking {
 public:
  explicit DeadlockDetect2pl(desp::Scheduler* scheduler);

  ProtocolKind kind() const override {
    return ProtocolKind::kDeadlockDetect;
  }

 private:
  /// True when parking `txn` on `oid` (at the queue front for upgrades,
  /// at the back otherwise) would close a waits-for cycle.  Edges are
  /// derived on the fly from the table: a parked waiter waits on every
  /// conflicting holder and every conflicting waiter ahead of it.  No
  /// re-validation is needed later: the graph only loses edges on
  /// release and grant.
  bool MustAbort(uint64_t txn, ocb::Oid oid, LockMode mode,
                 bool upgrade) override;
  /// DFS helper: true when `start` can reach `origin` through waits-for
  /// edges.
  bool Reaches(uint64_t start, uint64_t origin);

  std::vector<uint64_t> targets_;    // reused across conflict checks
  std::vector<uint64_t> dfs_stack_;  // reused across cycle searches
  uint64_t dfs_search_ = 0;          // current search id (visit stamps)
};

}  // namespace voodb::cc

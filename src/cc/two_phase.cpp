#include "cc/two_phase.hpp"

#include <utility>

#include "obs/metrics.hpp"
#include "obs/spans.hpp"

namespace voodb::cc {

// ---------------------------------------------------------------------------
// TwoPhaseLocking
// ---------------------------------------------------------------------------

TwoPhaseLocking::TwoPhaseLocking(desp::Scheduler* scheduler,
                                 obs::AbortCause cause,
                                 uint64_t CcStats::*aborts)
    : Protocol(scheduler),
      locks_(scheduler, &stats_),
      cause_(cause),
      aborts_(aborts) {}

void TwoPhaseLocking::Begin(uint64_t txn, uint64_t age) {
  locks_.Begin(txn, age);
  ++stats_.begins;
}

void TwoPhaseLocking::Access(uint64_t txn, ocb::Oid oid, bool write,
                             Action granted, Action aborted) {
  VOODB_CHECK_MSG(static_cast<bool>(granted) && static_cast<bool>(aborted),
                  "Access needs both continuations");
  const LockMode mode = write ? LockMode::kExclusive : LockMode::kShared;
  const LockTable::Request request =
      locks_.TryAcquire(txn, oid, mode, granted);
  if (request == LockTable::Request::kGranted) return;
  if (request == LockTable::Request::kStrengthened) {
    OnHoldersChanged(oid);  // the new X may conflict with parked waiters
    return;
  }
  const bool upgrade = request == LockTable::Request::kUpgradeConflict;
  if (MustAbort(txn, oid, mode, upgrade)) {
    NoteDecidedAbort();  // the ambient trace context is the requester's
    Fire(std::move(aborted));
    return;
  }
  locks_.Park(txn, oid, mode, upgrade, std::move(granted),
              std::move(aborted));
}

void TwoPhaseLocking::Commit(uint64_t txn) {
  ++stats_.commits;
  Release(txn);
}

void TwoPhaseLocking::Abort(uint64_t txn) { Release(txn); }

void TwoPhaseLocking::Release(uint64_t txn) {
  locks_.Release(txn, [this](ocb::Oid oid) { OnHoldersChanged(oid); });
}

void TwoPhaseLocking::NoteDecidedAbort() {
  ++(stats_.*aborts_);
  NoteAbort(cause_);
}

// ---------------------------------------------------------------------------
// NoWait2pl
// ---------------------------------------------------------------------------

NoWait2pl::NoWait2pl(desp::Scheduler* scheduler)
    : TwoPhaseLocking(scheduler, obs::AbortCause::kNoWait,
                      &CcStats::aborts_no_wait) {}

// ---------------------------------------------------------------------------
// WaitDie2pl
// ---------------------------------------------------------------------------

WaitDie2pl::WaitDie2pl(desp::Scheduler* scheduler)
    : TwoPhaseLocking(scheduler, obs::AbortCause::kWaitDie,
                      &CcStats::aborts_wait_die) {}

bool WaitDie2pl::MayWait(uint64_t txn, ocb::Oid oid, LockMode mode,
                         uint32_t stop) const {
  // Wait-die: the requester may wait only for younger transactions; a
  // younger (or tied) requester dies.
  const uint64_t age = locks_.AgeOf(txn);
  for (const LockTable::Holder& h : locks_.HoldersOf(oid)) {
    if (h.txn != txn && Conflicting(mode, h.mode) &&
        age >= locks_.AgeOf(h.txn)) {
      return false;
    }
  }
  for (uint32_t id = locks_.FirstWaiter(oid); id != stop;
       id = locks_.waiter(id).next) {
    const LockTable::Waiter& w = locks_.waiter(id);
    if (w.txn != txn && Conflicting(mode, w.mode) &&
        age >= locks_.AgeOf(w.txn)) {
      return false;
    }
  }
  return true;
}

bool WaitDie2pl::MustAbort(uint64_t txn, ocb::Oid oid, LockMode mode,
                           bool /*upgrade*/) {
  // Fresh requests queue at the back, so every parked waiter is ahead;
  // upgrades jump to the front, but overtake the whole queue, so they
  // must be older than every conflicting waiter too.
  return !MayWait(txn, oid, mode, LockTable::kNone);
}

void WaitDie2pl::OnHoldersChanged(ocb::Oid oid) {
  // Each waiter is re-checked against the holders and the waiters still
  // ahead of it.
  for (uint32_t id = locks_.FirstWaiter(oid); id != LockTable::kNone;) {
    const LockTable::Waiter& w = locks_.waiter(id);
    const uint32_t next = w.next;
    if (!MayWait(w.txn, oid, w.mode, id)) {
      locks_.Evict(id, [this] { NoteDecidedAbort(); });
    }
    id = next;
  }
}

void WaitDie2pl::RegisterMetrics(obs::MetricRegistry& registry) const {
  Protocol::RegisterMetrics(registry);
  // The §5 extension's `lock.*` names, over the same cells as `cc.*`.
  registry.RegisterCounter("lock.requests", &stats_.requests);
  registry.RegisterCounter("lock.immediate_grants", &stats_.immediate_grants);
  registry.RegisterCounter("lock.waits", &stats_.waits);
  registry.RegisterCounter("lock.deadlock_aborts", &stats_.aborts_wait_die);
  registry.RegisterCounter("lock.upgrades", &stats_.upgrades);
  registry.RegisterHistogram("lock.wait_ms", &stats_.wait_histogram);
}

// ---------------------------------------------------------------------------
// DeadlockDetect2pl
// ---------------------------------------------------------------------------

DeadlockDetect2pl::DeadlockDetect2pl(desp::Scheduler* scheduler)
    : TwoPhaseLocking(scheduler, obs::AbortCause::kDeadlock,
                      &CcStats::aborts_deadlock) {}

bool DeadlockDetect2pl::Reaches(uint64_t start, uint64_t origin) {
  // Iterative DFS over the waits-for graph.  Push order follows holder
  // then queue order, so the walk is deterministic.
  dfs_stack_.clear();
  dfs_stack_.push_back(start);
  ++dfs_search_;
  while (!dfs_stack_.empty()) {
    const uint64_t txn = dfs_stack_.back();
    dfs_stack_.pop_back();
    if (txn == origin) return true;
    uint64_t* mark = locks_.VisitMark(txn);
    if (mark == nullptr || *mark == dfs_search_) continue;
    *mark = dfs_search_;
    const LockTable::Waiter* parked = locks_.ParkedRequest(txn);
    if (parked == nullptr) continue;
    for (const LockTable::Holder& h : locks_.HoldersOf(parked->oid)) {
      if (h.txn != txn && Conflicting(parked->mode, h.mode)) {
        dfs_stack_.push_back(h.txn);
      }
    }
    // Only waiters ahead of the parked request are wait targets.
    for (uint32_t id = locks_.FirstWaiter(parked->oid);
         locks_.waiter(id).txn != txn; id = locks_.waiter(id).next) {
      if (Conflicting(parked->mode, locks_.waiter(id).mode)) {
        dfs_stack_.push_back(locks_.waiter(id).txn);
      }
    }
  }
  return false;
}

bool DeadlockDetect2pl::MustAbort(uint64_t txn, ocb::Oid oid, LockMode mode,
                                  bool upgrade) {
  // The prospective wait targets of `txn`: conflicting holders, plus —
  // for back-of-queue requests — every conflicting waiter already parked
  // (they would all be ahead of us).
  targets_.clear();
  for (const LockTable::Holder& h : locks_.HoldersOf(oid)) {
    if (h.txn != txn && Conflicting(mode, h.mode)) targets_.push_back(h.txn);
  }
  if (!upgrade) {
    for (uint32_t id = locks_.FirstWaiter(oid); id != LockTable::kNone;
         id = locks_.waiter(id).next) {
      const LockTable::Waiter& w = locks_.waiter(id);
      if (w.txn != txn && Conflicting(mode, w.mode)) targets_.push_back(w.txn);
    }
  }
  for (const uint64_t target : targets_) {
    if (target == txn || Reaches(target, txn)) return true;
    if (!upgrade) continue;
    // Front insertion adds edges into us from every parked waiter we
    // would overtake; a path ending at such a waiter also closes a cycle.
    for (uint32_t id = locks_.FirstWaiter(oid); id != LockTable::kNone;
         id = locks_.waiter(id).next) {
      const LockTable::Waiter& w = locks_.waiter(id);
      if (w.txn == txn || !Conflicting(mode, w.mode)) continue;
      if (target == w.txn || Reaches(target, w.txn)) return true;
    }
  }
  return false;
}

}  // namespace voodb::cc

#include "cc/lock_table.hpp"

#include <algorithm>

namespace voodb::cc {

const char* ToString(LockMode m) {
  return m == LockMode::kShared ? "S" : "X";
}

const InlineVector<LockTable::Holder, 2> LockTable::kNoHolders;

LockTable::LockTable(desp::Scheduler* scheduler, CcStats* stats)
    : scheduler_(scheduler), stats_(stats) {
  VOODB_CHECK_MSG(scheduler_ != nullptr, "lock table needs a scheduler");
}

void LockTable::Begin(uint64_t txn, uint64_t age) {
  txns_.Begin(txn).age = age;
}

uint64_t LockTable::AgeOf(uint64_t txn) const {
  const TxnLocks* state = txns_.Find(txn);
  VOODB_CHECK_MSG(state != nullptr, "transaction " << txn << " not active");
  return state->age;
}

bool LockTable::Compatible(const Slot& slot, uint64_t txn, LockMode mode) {
  for (const Holder& h : slot.holders) {
    if (h.txn != txn && Conflicting(mode, h.mode)) return false;
  }
  return true;
}

bool LockTable::Grant(Slot& slot, uint64_t txn, LockMode mode) {
  for (Holder& h : slot.holders) {
    if (h.txn != txn) continue;
    if (mode == LockMode::kExclusive && h.mode == LockMode::kShared) {
      h.mode = LockMode::kExclusive;
      ++stats_->upgrades;
    }
    return false;
  }
  slot.holders.push_back(Holder{txn, mode});
  return true;
}

LockTable::Request LockTable::TryAcquire(uint64_t txn, ocb::Oid oid,
                                         LockMode mode, Action& granted) {
  TxnLocks& state = txns_.At(txn);
  ++stats_->requests;
  if (Holds(txn, oid, mode)) {
    // A pure re-grant: no new holder and no wait-time sample.
    ++stats_->immediate_grants;
    scheduler_->Schedule(0.0, std::move(granted));
    return Request::kGranted;
  }
  Slot& slot = SlotOf(oid);
  // Holding the oid without holding it in `mode` means holding S and
  // asking for X.
  const bool upgrade =
      std::any_of(slot.holders.begin(), slot.holders.end(),
                  [txn](const Holder& h) { return h.txn == txn; });
  if (!Compatible(slot, txn, mode) || (!upgrade && slot.head != kNone)) {
    return upgrade ? Request::kUpgradeConflict : Request::kConflict;
  }
  if (Grant(slot, txn, mode)) state.held.push_back(oid);
  ++stats_->immediate_grants;
  stats_->wait_times.Add(0.0);
  stats_->wait_histogram.Add(0.0);
  scheduler_->Schedule(0.0, std::move(granted));
  return upgrade ? Request::kStrengthened : Request::kGranted;
}

void LockTable::Park(uint64_t txn, ocb::Oid oid, LockMode mode, bool front,
                     Action granted, Action aborted) {
  TxnLocks& state = txns_.At(txn);
  VOODB_CHECK_MSG(state.parked == kNone,
                  "transaction " << txn << " already has a parked request");
  ++stats_->waits;
  uint32_t id;
  if (!free_waiters_.empty()) {
    id = free_waiters_.back();
    free_waiters_.pop_back();
  } else {
    id = static_cast<uint32_t>(waiters_.size());
    waiters_.emplace_back();
  }
  Slot& slot = SlotOf(oid);
  Waiter& w = waiters_[id];
  w.txn = txn;
  w.oid = oid;
  w.mode = mode;
  w.enqueued_at = scheduler_->Now();
  w.granted = std::move(granted);
  w.aborted = std::move(aborted);
  w.trace = scheduler_->current_trace();
  if (front) {
    w.prev = kNone;
    w.next = slot.head;
    (slot.head == kNone ? slot.tail : waiters_[slot.head].prev) = id;
    slot.head = id;
  } else {
    w.prev = slot.tail;
    w.next = kNone;
    (slot.tail == kNone ? slot.head : waiters_[slot.tail].next) = id;
    slot.tail = id;
  }
  state.parked = id;
}

void LockTable::FreeWaiter(uint32_t id) {
  Waiter& w = waiters_[id];
  Slot& slot = slots_[w.oid];
  (w.prev == kNone ? slot.head : waiters_[w.prev].next) = w.next;
  (w.next == kNone ? slot.tail : waiters_[w.next].prev) = w.prev;
  txns_.At(w.txn).parked = kNone;
  w.granted = nullptr;
  w.aborted = nullptr;
  free_waiters_.push_back(id);
}

void LockTable::DropHolder(ocb::Oid oid, uint64_t txn) {
  auto& holders = slots_[oid].holders;
  for (Holder* h = holders.begin(); h != holders.end(); ++h) {
    if (h->txn == txn) {
      holders.erase(h);
      return;
    }
  }
}

bool LockTable::Wake(ocb::Oid oid) {
  bool granted_any = false;
  while (slots_[oid].head != kNone) {
    const uint32_t id = slots_[oid].head;
    Waiter& head = waiters_[id];
    if (!Compatible(slots_[oid], head.txn, head.mode)) break;
    if (Grant(slots_[oid], head.txn, head.mode)) {
      txns_.At(head.txn).held.push_back(oid);
    }
    const double waited = scheduler_->Now() - head.enqueued_at;
    stats_->wait_times.Add(waited);
    stats_->wait_histogram.Add(waited);
    {
      desp::TraceScope trace(scheduler_, head.trace);
      scheduler_->Schedule(0.0, std::move(head.granted));
    }
    FreeWaiter(id);
    granted_any = true;
  }
  return granted_any;
}

bool LockTable::Holds(uint64_t txn, ocb::Oid oid, LockMode mode) const {
  for (const Holder& h : HoldersOf(oid)) {
    if (h.txn == txn) {
      return mode == LockMode::kShared || h.mode == LockMode::kExclusive;
    }
  }
  return false;
}

size_t LockTable::HeldLocks(uint64_t txn) const {
  const TxnLocks* state = txns_.Find(txn);
  return state == nullptr ? 0 : state->held.size();
}

}  // namespace voodb::cc

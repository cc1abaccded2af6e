/// \file lock_table.hpp
/// \brief The object-granularity S/X lock table shared by the three 2PL
/// protocols.
///
/// The paper's §5 multi-user extension replaces the fixed GETLOCK and
/// RELLOCK delays with real object locks.  This table owns the 2PL
/// mechanics once: re-request and upgrade detection, compatibility,
/// grants, and FIFO wake-ups.  The protocols in two_phase.hpp add only
/// their conflict policy on top (abort, wait-die's age test, or a
/// waits-for cycle check).
///
/// Layout:
///  - one slot per oid in a dense array grown on demand (oids are dense,
///    as in cluster::DenseStats), holding the holders in a small inline
///    vector and the head/tail of the oid's waiter queue;
///  - parked requests in a pooled slab, linked into a doubly linked FIFO
///    per oid, each keeping its continuations and the requester's trace
///    context;
///  - per-transaction held oids and the parked request in a pooled
///    TxnTable.
///
/// The Transaction Manager issues one access at a time, so a transaction
/// parks at most one request.  Releasing therefore costs O(held locks):
/// the parked request, if any, is unlinked through the transaction's own
/// state, never found by scanning the table.
#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "cc/protocol.hpp"
#include "util/inline_vector.hpp"

namespace voodb::cc {

/// Lock compatibility: shared (read) and exclusive (write).
enum class LockMode : uint8_t { kShared, kExclusive };

const char* ToString(LockMode m);

/// True when locks in modes `a` and `b` cannot be held together.
inline bool Conflicting(LockMode a, LockMode b) {
  return a == LockMode::kExclusive || b == LockMode::kExclusive;
}

/// The 2PL lock table.  Grants and wake-ups fire as zero-delay events on
/// the scheduler; the shared counters (requests, immediate grants, waits,
/// upgrades, wait times) land in the owning protocol's CcStats.
class LockTable {
 public:
  using Action = Protocol::Action;
  static constexpr uint32_t kNone = static_cast<uint32_t>(-1);

  struct Holder {
    uint64_t txn;
    LockMode mode;
  };
  /// A parked request, linked into its oid's FIFO.
  struct Waiter {
    uint64_t txn = 0;
    ocb::Oid oid = 0;
    LockMode mode = LockMode::kShared;
    double enqueued_at = 0.0;
    Action granted;
    Action aborted;
    /// Requester's ambient trace context, restored around the wake or
    /// abort fire so it is attributed to the waiter, not to the event
    /// that releases it.
    uint32_t trace = 0;
    uint32_t prev = kNone;
    uint32_t next = kNone;
  };

  /// Outcome of TryAcquire.
  enum class Request : uint8_t {
    kGranted,          ///< granted now (or already held); `granted` fired
    kStrengthened,     ///< S->X upgrade granted now; `granted` fired
    kConflict,         ///< must park at the back of the queue, or abort
    kUpgradeConflict,  ///< upgrade that must park at the front, or abort
  };

  LockTable(desp::Scheduler* scheduler, CcStats* stats);

  LockTable(const LockTable&) = delete;
  LockTable& operator=(const LockTable&) = delete;

  /// Registers a transaction attempt with its age stamp.
  void Begin(uint64_t txn, uint64_t age);
  uint64_t AgeOf(uint64_t txn) const;

  /// Decides whether `txn` may lock `oid` in `mode` right now, and grants
  /// it if so (moving `granted` into a zero-delay event).  Re-requesting
  /// a held lock in the same or a weaker mode grants immediately.  A
  /// fresh request never overtakes parked waiters, even when compatible;
  /// an S->X upgrade may, because parking it behind a waiter that is
  /// blocked by its own S hold would deadlock.
  Request TryAcquire(uint64_t txn, ocb::Oid oid, LockMode mode,
                     Action& granted);

  /// Parks a request TryAcquire refused: at the queue front for an
  /// upgrade, at the back otherwise.  A transaction parks at most one
  /// request at a time.
  void Park(uint64_t txn, ocb::Oid oid, LockMode mode, bool front,
            Action granted, Action aborted);

  /// Releases every lock of `txn` in ascending oid order and drops its
  /// parked request; wakes each affected queue and calls
  /// `on_grant(oid)` after every wake that granted something.  The
  /// transaction is forgotten (Begin again to retry).
  template <typename OnGrant>
  void Release(uint64_t txn, OnGrant&& on_grant) {
    TxnLocks& state = txns_.At(txn);
    const uint32_t parked = state.parked;
    const ocb::Oid parked_oid = parked == kNone ? 0 : waiters_[parked].oid;
    if (parked != kNone) FreeWaiter(parked);
    std::sort(state.held.begin(), state.held.end());
    for (const ocb::Oid oid : state.held) {
      DropHolder(oid, txn);
      if (Wake(oid)) on_grant(oid);
    }
    // The dropped request may have been all that parked compatible
    // waiters behind it.
    if (parked != kNone && Wake(parked_oid)) on_grant(parked_oid);
    txns_.End(txn);
  }

  /// Aborts the parked request `id`: unlinks it and fires its `aborted`
  /// continuation under the requester's trace context.  `before_fire`
  /// runs inside that context first (policies annotate the abort cause).
  template <typename BeforeFire>
  void Evict(uint32_t id, BeforeFire&& before_fire) {
    Waiter& w = waiters_[id];
    {
      desp::TraceScope trace(scheduler_, w.trace);
      before_fire();
      scheduler_->Schedule(0.0, std::move(w.aborted));
    }
    FreeWaiter(id);
  }

  // --- read access for the conflict policies --------------------------------

  /// Holders of `oid` in grant order (empty for an unknown oid).
  const util::InlineVector<Holder, 2>& HoldersOf(ocb::Oid oid) const {
    return oid < slots_.size() ? slots_[oid].holders : kNoHolders;
  }
  /// First parked request on `oid`, or kNone; follow Waiter::next.
  uint32_t FirstWaiter(ocb::Oid oid) const {
    return oid < slots_.size() ? slots_[oid].head : kNone;
  }
  const Waiter& waiter(uint32_t id) const { return waiters_[id]; }
  /// The request `txn` has parked, or nullptr (also for unknown `txn`).
  const Waiter* ParkedRequest(uint64_t txn) const {
    const TxnLocks* state = txns_.Find(txn);
    return state == nullptr || state->parked == kNone
               ? nullptr
               : &waiters_[state->parked];
  }
  /// Scratch stamp per active transaction for the policies' graph walks
  /// (nullptr for unknown `txn`).
  uint64_t* VisitMark(uint64_t txn) {
    TxnLocks* state = txns_.Find(txn);
    return state == nullptr ? nullptr : &state->visit_mark;
  }

  // --- queries --------------------------------------------------------------

  /// True when `txn` holds `oid` in at least `mode`.
  bool Holds(uint64_t txn, ocb::Oid oid, LockMode mode) const;
  /// Distinct oids `txn` holds (0 for an unknown transaction).
  size_t HeldLocks(uint64_t txn) const;
  size_t active() const { return txns_.active(); }

 private:
  struct Slot {
    util::InlineVector<Holder, 2> holders;
    uint32_t head = kNone;  ///< oldest parked request
    uint32_t tail = kNone;  ///< newest parked request
  };
  struct TxnLocks {
    uint64_t age = 0;
    std::vector<ocb::Oid> held;  ///< distinct oids, in grant order
    uint32_t parked = kNone;     ///< the parked request, if any
    uint64_t visit_mark = 0;
    void Recycle() {
      held.clear();
      parked = kNone;
    }
  };

  Slot& SlotOf(ocb::Oid oid) {
    VOODB_CHECK_MSG(oid != ocb::kNullOid, "cannot lock the null oid");
    if (oid >= slots_.size()) slots_.resize(oid + 1);
    return slots_[oid];
  }
  /// True when `mode` on `slot` is compatible with every other holder.
  static bool Compatible(const Slot& slot, uint64_t txn, LockMode mode);
  /// Adds `txn` as a holder or strengthens its hold in place; true when
  /// `txn` is a new holder.
  bool Grant(Slot& slot, uint64_t txn, LockMode mode);
  void DropHolder(ocb::Oid oid, uint64_t txn);
  /// FIFO wake-up of `oid`'s queue: grants the head while it is
  /// compatible (several shared requests may be granted together).
  /// Returns true when anything was granted.
  bool Wake(ocb::Oid oid);
  /// Unlinks waiter `id` from its queue, clears its transaction's parked
  /// mark, and recycles it.
  void FreeWaiter(uint32_t id);

  static const util::InlineVector<Holder, 2> kNoHolders;

  desp::Scheduler* scheduler_;
  CcStats* stats_;
  std::vector<Slot> slots_;
  std::vector<Waiter> waiters_;
  std::vector<uint32_t> free_waiters_;
  TxnTable<TxnLocks> txns_;
};

}  // namespace voodb::cc

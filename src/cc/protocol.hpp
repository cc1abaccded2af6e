/// \file protocol.hpp
/// \brief The pluggable concurrency-control protocol interface.
///
/// The paper's §5 multi-user extension puts real object locks (2PL with
/// wait-die) in place of the fixed GETLOCK/RELLOCK delays.  This
/// subsystem makes the protocol a first-class axis: the Transaction
/// Manager talks to a `cc::Protocol` — register a transaction attempt,
/// decide each object access, validate at commit, release on
/// commit/abort — and the concrete scheme behind it is swept like any
/// other parameter (`cc_protocol`).
///
/// Five implementations cover the classic protocol families of the
/// many-core concurrency-control literature (DBx1000 lineage): three 2PL
/// variants over one shared lock table (no-wait, wait-die, and waits-for
/// cycle detection; see two_phase.hpp), multiversion timestamp ordering
/// with first-committer-wins writes, and optimistic validate-at-commit
/// with backward validation.
///
/// Determinism contract: a protocol may interact with the run only
/// through its scheduler (decisions fire as zero-delay scheduled events)
/// and must never iterate an unordered container where the order can leak
/// into event order — the whole subsystem stays bit-identical at any
/// `sim_threads`.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "cc/kind.hpp"
#include "desp/histogram.hpp"
#include "desp/scheduler.hpp"
#include "desp/stats.hpp"
#include "ocb/types.hpp"
#include "util/check.hpp"

namespace voodb::obs {
class MetricRegistry;
class SpanTracer;
enum class AbortCause : uint8_t;
}  // namespace voodb::obs

namespace voodb::cc {

/// Counters every protocol exposes (`cc.*` in the metric registry).
/// Abort causes are disjoint: a restarted attempt increments exactly one.
struct CcStats {
  uint64_t begins = 0;    ///< transaction attempts registered
  uint64_t requests = 0;  ///< access decisions requested
  uint64_t immediate_grants = 0;
  uint64_t waits = 0;     ///< requests that had to park
  uint64_t upgrades = 0;  ///< 2PL S->X upgrades granted
  uint64_t commits = 0;
  // --- aborts by cause -----------------------------------------------------
  uint64_t aborts_no_wait = 0;         ///< no-wait conflict aborts
  uint64_t aborts_wait_die = 0;        ///< wait-die "die" decisions
  uint64_t aborts_deadlock = 0;        ///< waits-for cycles detected
  uint64_t aborts_write_conflict = 0;  ///< MVCC write-intent collisions
  uint64_t validation_failures = 0;    ///< commit-time validation aborts
  // --- MVCC version bookkeeping --------------------------------------------
  uint64_t versions_installed = 0;
  uint64_t versions_pruned = 0;
  /// Queueing time per access decision (immediate grants count as 0, so
  /// percentiles cover every acquisition; re-grants of a held lock are
  /// not sampled).
  desp::Tally wait_times;
  desp::LogHistogram wait_histogram;
  /// Version-chain length sampled at every MVCC read.
  desp::LogHistogram version_chain;

  /// Aborts across every cause.
  uint64_t TotalAborts() const {
    return aborts_no_wait + aborts_wait_die + aborts_deadlock +
           aborts_write_conflict + validation_failures;
  }
};

/// Pooled per-transaction state: a slab of `State` slots recycled through
/// a free list, so per-attempt registration reuses the previous attempt's
/// vector capacities instead of allocating (the kernel's zero-allocation
/// discipline applied to protocol bookkeeping).  `State::Recycle()` must
/// clear the slot for reuse while keeping capacity.
template <typename State>
class TxnTable {
 public:
  State& Begin(uint64_t txn) {
    uint32_t slot;
    if (!free_.empty()) {
      slot = free_.back();
      free_.pop_back();
    } else {
      slot = static_cast<uint32_t>(slots_.size());
      slots_.emplace_back();
    }
    const auto [it, inserted] = index_.emplace(txn, slot);
    (void)it;
    VOODB_CHECK_MSG(inserted, "transaction " << txn << " already active");
    return slots_[slot];
  }

  State* Find(uint64_t txn) {
    const auto it = index_.find(txn);
    return it == index_.end() ? nullptr : &slots_[it->second];
  }
  const State* Find(uint64_t txn) const {
    const auto it = index_.find(txn);
    return it == index_.end() ? nullptr : &slots_[it->second];
  }

  State& At(uint64_t txn) {
    State* s = Find(txn);
    VOODB_CHECK_MSG(s != nullptr, "transaction " << txn << " not active");
    return *s;
  }

  /// Recycles the slot (keeps its heap capacity for the next Begin).
  void End(uint64_t txn) {
    const auto it = index_.find(txn);
    VOODB_CHECK_MSG(it != index_.end(),
                    "transaction " << txn << " not active");
    slots_[it->second].Recycle();
    free_.push_back(it->second);
    index_.erase(it);
  }

  /// Applies `fn(txn_id, state)` to every active transaction.  Iteration
  /// order is unspecified — use only for order-insensitive reductions
  /// (minima, counts), never for anything that can reach the scheduler.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const auto& [txn, slot] : index_) fn(txn, slots_[slot]);
  }

  size_t active() const { return index_.size(); }
  /// Slots ever constructed — bounded by peak concurrency, not by the
  /// number of transactions run (the pooling witness micro_cc asserts).
  size_t capacity() const { return slots_.size(); }

 private:
  std::unordered_map<uint64_t, uint32_t> index_;
  std::vector<State> slots_;
  std::vector<uint32_t> free_;
};

/// The protocol interface the Transaction Manager drives.
class Protocol {
 public:
  /// Continuation type (the scheduler's SmallFunction absorbs it without
  /// allocation for small captures).
  using Action = std::function<void()>;

  explicit Protocol(desp::Scheduler* scheduler);
  virtual ~Protocol();

  Protocol(const Protocol&) = delete;
  Protocol& operator=(const Protocol&) = delete;

  virtual ProtocolKind kind() const = 0;
  const char* name() const { return ToString(kind()); }

  /// Registers a transaction attempt.  `age` is the attempt-invariant
  /// age stamp (kept across restarts, wait-die's no-starvation lever);
  /// `txn` is fresh per attempt.
  virtual void Begin(uint64_t txn, uint64_t age) = 0;

  /// Decides one object access.  Exactly one continuation fires, always
  /// as a scheduled event: `granted` once the access may proceed
  /// (possibly after waiting), `aborted` if the protocol kills the
  /// attempt (the caller releases with Abort() and retries).
  virtual void Access(uint64_t txn, ocb::Oid oid, bool write,
                      Action granted, Action aborted) = 0;

  /// Commit-time validation.  True: the caller must go on to Commit().
  /// False: the attempt failed validation (counted in the stats); the
  /// caller must Abort() and retry.  Pure decision — never schedules.
  virtual bool ValidateCommit(uint64_t txn) = 0;

  /// Commits: releases locks / installs versions, wakes waiters, forgets
  /// the transaction.
  virtual void Commit(uint64_t txn) = 0;

  /// Aborts: releases everything, wakes waiters, forgets the transaction
  /// (Begin() again to retry).
  virtual void Abort(uint64_t txn) = 0;

  /// Transactions currently registered (0 when idle — leak witness).
  virtual size_t ActiveTransactions() const = 0;

  const CcStats& stats() const { return stats_; }

  /// Registers the `cc.*` counters and histograms with `registry`.
  virtual void RegisterMetrics(obs::MetricRegistry& registry) const;

  /// Attaches the span tracer (may be null).  Protocols annotate the
  /// requester's open attempt span with the abort cause at decision time
  /// — pure metadata, never visible to the simulation.
  void SetTracer(obs::SpanTracer* tracer) { tracer_ = tracer; }

 protected:
  /// Annotates the ambient trace (the requester's, at decision sites)
  /// with `cause`; no-op without a tracer.
  void NoteAbort(obs::AbortCause cause);
  /// Fires a decision continuation as a zero-delay event (decisions never
  /// run inline, so event order is independent of the protocol's internal
  /// control flow).
  void Fire(Action action) { scheduler_->Schedule(0.0, std::move(action)); }

  desp::Scheduler* scheduler_;
  CcStats stats_;
  obs::SpanTracer* tracer_ = nullptr;
};

/// Builds the protocol selected by `kind` on `scheduler`.
std::unique_ptr<Protocol> MakeProtocol(ProtocolKind kind,
                                       desp::Scheduler* scheduler);

}  // namespace voodb::cc

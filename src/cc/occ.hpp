/// \file occ.hpp
/// \brief Optimistic concurrency control with backward validation.
///
/// The classic Kung–Robinson scheme adapted to the DES: transactions run
/// with no locks at all, recording read and write sets; at commit the
/// read set is validated against the write sets of every transaction
/// that committed after this one began (backward validation).  Any
/// overlap means a read may be stale — the attempt aborts and restarts.
/// Commits are serial inside the simulation (events are), so the
/// validate-then-apply step is atomic by construction.
///
/// The committed-write-set log is truncated below the oldest active
/// transaction's start point, bounding memory by the degree of
/// concurrency rather than the run length.
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "cc/protocol.hpp"

namespace voodb::cc {

class Occ final : public Protocol {
 public:
  explicit Occ(desp::Scheduler* scheduler);

  ProtocolKind kind() const override { return ProtocolKind::kOcc; }
  void Begin(uint64_t txn, uint64_t age) override;
  void Access(uint64_t txn, ocb::Oid oid, bool write, Action granted,
              Action aborted) override;
  bool ValidateCommit(uint64_t txn) override;
  void Commit(uint64_t txn) override;
  void Abort(uint64_t txn) override;
  size_t ActiveTransactions() const override { return table_.active(); }
  size_t PoolCapacity() const { return table_.capacity(); }

  /// Committed write sets currently retained for validation —
  /// test/diagnostic hook for the truncation logic.
  size_t RetainedCommits() const { return log_.size(); }

 private:
  struct TxnState {
    uint64_t start_index = 0;  // committed-log position at Begin
    std::vector<ocb::Oid> reads;
    std::vector<ocb::Oid> writes;
    void Recycle() {
      reads.clear();
      writes.clear();
    }
  };

  /// Oldest start index among active transactions except `except`
  /// (end-of-log when none) — the truncation horizon.
  uint64_t OldestActiveStart(uint64_t except) const;

  /// Committed write sets, sorted and deduplicated, in commit order.
  /// log_[i] holds the writes of the (log_base_ + i)-th commit.
  std::deque<std::vector<ocb::Oid>> log_;
  uint64_t log_base_ = 0;
  /// Cleared buffers of truncated log entries, handed back to
  /// transaction slots at commit so write sets stop reallocating.
  std::vector<std::vector<ocb::Oid>> spare_;
  TxnTable<TxnState> table_;
};

}  // namespace voodb::cc

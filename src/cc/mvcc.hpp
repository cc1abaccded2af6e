/// \file mvcc.hpp
/// \brief Multiversion timestamp concurrency control.
///
/// Each committed write appends a version timestamp to the object's
/// chain; a transaction reads the snapshot as of its begin timestamp
/// (reads are always granted — the snapshot is never invalidated, the
/// paper's fixed object-access cost already charges the lookup).
/// Writes take an in-memory write intent: two concurrent writers of the
/// same object conflict immediately and the later one aborts.  At
/// commit, first-committer-wins validation re-checks every written
/// object: if someone committed a newer version after our snapshot, the
/// attempt fails validation and restarts.  Committed versions below the
/// oldest active snapshot are pruned, keeping chains short.
///
/// Timestamps are drawn from a protocol-local counter — simulation
/// determinism carries over untouched.  Version chains and write intents
/// live in dense per-oid slots grown on demand (oids are dense, as in
/// the LockTable), and a chain keeps its first two versions inline, so a
/// warm protocol allocates only for a chain longer than any before it.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "cc/protocol.hpp"
#include "util/inline_vector.hpp"

namespace voodb::cc {

class Mvcc final : public Protocol {
 public:
  explicit Mvcc(desp::Scheduler* scheduler);

  ProtocolKind kind() const override { return ProtocolKind::kMvcc; }
  void Begin(uint64_t txn, uint64_t age) override;
  void Access(uint64_t txn, ocb::Oid oid, bool write, Action granted,
              Action aborted) override;
  bool ValidateCommit(uint64_t txn) override;
  void Commit(uint64_t txn) override;
  void Abort(uint64_t txn) override;
  size_t ActiveTransactions() const override { return table_.active(); }
  size_t PoolCapacity() const { return table_.capacity(); }

  /// Committed (unpruned) versions of `oid`, counting the implicit
  /// initial version — test/diagnostic hook.
  size_t VersionChainLength(ocb::Oid oid) const;

 private:
  struct TxnState {
    uint64_t begin_ts = 0;
    std::vector<ocb::Oid> writes;  // oids with our write intent, no dups
    void Recycle() { writes.clear(); }
  };

  /// Oldest snapshot among active transactions except `except`
  /// (UINT64_MAX when none) — the pruning horizon.
  uint64_t OldestActiveSnapshot(uint64_t except) const;

  static constexpr uint64_t kNoIntent = std::numeric_limits<uint64_t>::max();

  /// The writing transaction's slot for `oid` (kNoIntent when free),
  /// growing the dense arrays to cover `oid`.
  uint64_t& IntentOf(ocb::Oid oid);

  /// Ascending commit timestamps per object; an empty chain = only the
  /// implicit initial version.
  std::vector<util::InlineVector<uint64_t, 2>> versions_;
  std::vector<uint64_t> intents_;  // oid -> writing txn, or kNoIntent
  TxnTable<TxnState> table_;
  uint64_t next_ts_ = 1;
};

}  // namespace voodb::cc

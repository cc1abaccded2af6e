#include "cc/occ.hpp"

#include <algorithm>
#include <limits>
#include <utility>

#include "obs/spans.hpp"

namespace voodb::cc {
namespace {

void SortUnique(std::vector<ocb::Oid>& oids) {
  std::sort(oids.begin(), oids.end());
  oids.erase(std::unique(oids.begin(), oids.end()), oids.end());
}

/// Any common element between two sorted ranges?
bool Intersects(const std::vector<ocb::Oid>& a,
                const std::vector<ocb::Oid>& b) {
  auto ia = a.begin();
  auto ib = b.begin();
  while (ia != a.end() && ib != b.end()) {
    if (*ia < *ib) {
      ++ia;
    } else if (*ib < *ia) {
      ++ib;
    } else {
      return true;
    }
  }
  return false;
}

}  // namespace

Occ::Occ(desp::Scheduler* scheduler) : Protocol(scheduler) {}

void Occ::Begin(uint64_t txn, uint64_t age) {
  (void)age;  // validation order is commit order, not age
  TxnState& state = table_.Begin(txn);
  state.start_index = log_base_ + log_.size();
  ++stats_.begins;
}

void Occ::Access(uint64_t txn, ocb::Oid oid, bool write, Action granted,
                 Action aborted) {
  (void)aborted;  // optimistic: accesses never fail, only validation does
  TxnState& state = table_.At(txn);
  ++stats_.requests;
  ++stats_.immediate_grants;
  (write ? state.writes : state.reads).push_back(oid);
  stats_.wait_times.Add(0.0);
  stats_.wait_histogram.Add(0.0);
  Fire(std::move(granted));
}

bool Occ::ValidateCommit(uint64_t txn) {
  TxnState& state = table_.At(txn);
  SortUnique(state.reads);
  // Backward validation: our reads against the write set of every commit
  // since we began.  Writes need no check — they are applied atomically
  // here at commit, after everyone earlier has fully committed.
  for (uint64_t index = state.start_index;
       index < log_base_ + log_.size(); ++index) {
    if (Intersects(state.reads, log_[index - log_base_])) {
      ++stats_.validation_failures;
      NoteAbort(obs::AbortCause::kValidation);
      return false;
    }
  }
  return true;
}

uint64_t Occ::OldestActiveStart(uint64_t except) const {
  uint64_t oldest = log_base_ + log_.size();
  table_.ForEach([&](uint64_t txn, const TxnState& state) {
    if (txn != except && state.start_index < oldest) {
      oldest = state.start_index;
    }
  });
  return oldest;
}

void Occ::Commit(uint64_t txn) {
  TxnState& state = table_.At(txn);
  ++stats_.commits;
  SortUnique(state.writes);
  // The write set moves into the log (an empty one keeps commit indices
  // dense); the slot takes a truncated entry's buffer in exchange.
  log_.push_back(std::move(state.writes));
  state.writes.clear();  // moved-from: make the recycle state explicit
  if (!spare_.empty()) {
    state.writes = std::move(spare_.back());
    spare_.pop_back();
  }
  table_.End(txn);
  // Truncate write sets no active transaction can still validate against.
  const uint64_t horizon = OldestActiveStart(txn);
  while (log_base_ < horizon && !log_.empty()) {
    if (log_.front().capacity() > 0) {
      spare_.push_back(std::move(log_.front()));
      spare_.back().clear();
    }
    log_.pop_front();
    ++log_base_;
  }
}

void Occ::Abort(uint64_t txn) { table_.End(txn); }

}  // namespace voodb::cc

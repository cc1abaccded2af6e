/// \file spans.hpp
/// \brief Causal per-transaction tracing: span trees, critical-path
/// attribution, and tail exemplars.
///
/// Every (sampled) transaction owns a slab-pooled span tree covering its
/// whole lifetime — admission, each attempt, per-access concurrency-control
/// waits, buffer/disk work, network round-trips, commit — built from three
/// sources:
///
///  1. the Transaction Manager opens/closes the structural spans (txn
///     root, attempts, buffer accesses, backoffs) by explicit trace id;
///  2. shared actors (disk, network) emit leaf spans against the
///     scheduler's *ambient* trace context (desp::Scheduler::current_trace),
///     which events inherit exactly like profiling tags, so work performed
///     on behalf of a transaction deep inside an event chain is attributed
///     without those actors knowing anything about transactions;
///  3. concurrency-control protocols annotate the open attempt with the
///     abort cause at decision time.
///
/// On commit the tree is folded into a **critical path**: an exclusive
/// per-component decomposition (lock wait, IO, network, CPU, abort/retry,
/// other) whose fixed-order sum equals the recorded response time exactly
/// (enforced), aggregated into mergeable bit-deterministic LogHistograms.
/// The K slowest transactions additionally retain their full span trees as
/// **exemplars**, exportable as Perfetto/Chrome-trace JSON (`voodb
/// explain`).  Cross-shard sub-transactions carry the parent's 64-bit
/// global trace id and stitch into one distributed trace via flow events.
///
/// The tracer is pure metadata: it never schedules events, draws random
/// numbers, or influences simulation state — traced and untraced runs are
/// bit-identical in every simulation output.  Sampling is a deterministic
/// hash of the transaction id (not an RNG stream), so partial sampling is
/// reproducible and stream-neutral too.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "desp/histogram.hpp"
#include "desp/scheduler.hpp"
#include "util/check.hpp"

namespace voodb::obs {

/// What a span measures.  kTxn is the root (admission to retirement),
/// kAttempt one execution attempt; everything else is nested work.
enum class SpanKind : uint8_t {
  kTxn = 0,  ///< root: admission -> commit retirement
  kAttempt,  ///< one execution attempt (aborted ones carry a cause)
  kCcWait,   ///< concurrency-control grant wait for one object access
  kBuffer,   ///< buffer-manager object access (disk IO nests inside)
  kIo,       ///< one physical disk IO (queueing + service)
  kNet,      ///< one network transfer (queueing + wire time)
  kCpu,      ///< CPU resource usage (queueing + service)
  kCommit,   ///< commit-time lock release / bookkeeping CPU
  kBackoff,  ///< randomized restart backoff between attempts
  kAdmission,  ///< db-scheduler (multiprogramming level) admission wait
};

const char* ToString(SpanKind kind);

/// Why an attempt aborted; annotated by the protocol at decision time.
enum class AbortCause : uint8_t {
  kNone = 0,       ///< attempt committed (or annotation unavailable)
  kNoWait,         ///< no-wait 2PL: lock busy
  kWaitDie,        ///< wait-die: younger requester died
  kDeadlock,       ///< deadlock detection: cycle victim
  kWriteConflict,  ///< MVCC first-committer-wins write conflict
  kValidation,     ///< OCC/MVCC backward validation failure
};

const char* ToString(AbortCause cause);

/// Exclusive per-component decomposition of one committed transaction's
/// response time, in ms.  `other_ms` is defined as the exact floating-point
/// remainder so that Sum() == response holds bit-exactly (see Finalize).
struct CriticalPath {
  double lock_wait_ms = 0.0;  ///< cc grant waits (committed attempt)
  double io_ms = 0.0;         ///< buffer + disk work (committed attempt)
  double net_ms = 0.0;        ///< network transfers (committed attempt)
  double cpu_ms = 0.0;        ///< CPU service + queueing (committed attempt)
  double retry_ms = 0.0;      ///< aborted attempts + restart backoffs
  double other_ms = 0.0;      ///< exact remainder (scheduling gaps)

  /// Adds the components in a fixed left-to-right order; after Finalize
  /// this equals the response time exactly.
  double Sum() const;

  /// Sets other_ms so Sum() == response_ms bit-exactly (bounded fix-up of
  /// floating-point rounding); VOODB_CHECKs success and non-negativity up
  /// to rounding noise.
  void Finalize(double response_ms);
};

/// Mergeable per-component response-time histograms (ms).  One Add per
/// committed sampled transaction per component (zeros land in the
/// underflow bucket, so counts match across components).
struct ComponentHistograms {
  desp::LogHistogram lock_wait;
  desp::LogHistogram io;
  desp::LogHistogram net;
  desp::LogHistogram cpu;
  desp::LogHistogram retry;
  desp::LogHistogram other;

  void Add(const CriticalPath& path);
  void Merge(const ComponentHistograms& other_histograms);
  /// Subtracts a baseline snapshot (bucket-exact; see LogHistogram).
  ComponentHistograms DeltaSince(const ComponentHistograms& baseline) const;
};

/// One retained span, flattened in preorder with its tree depth.
struct ExemplarSpan {
  double begin_ms = 0.0;
  double end_ms = 0.0;
  uint64_t label = 0;  ///< oid for accesses, attempt number for attempts
  SpanKind kind = SpanKind::kTxn;
  AbortCause abort_cause = AbortCause::kNone;
  uint8_t depth = 0;
};

/// A retained slow transaction: its identity, critical path, and full
/// span tree (preorder).
struct Exemplar {
  uint64_t global_id = 0;         ///< shard << 48 | first attempt txn id
  uint64_t parent_global_id = 0;  ///< 0, or the cross-shard parent trace
  double admitted_at_ms = 0.0;
  double response_ms = 0.0;
  CriticalPath path;
  std::vector<ExemplarSpan> spans;
};

/// Deterministic exemplar order: slowest first, ties by lower global id.
bool ExemplarBefore(const Exemplar& a, const Exemplar& b);

/// Merges already-sorted exemplar lists (e.g. one per shard, folded in
/// shard order) keeping the `k` slowest; deterministic.
std::vector<Exemplar> MergeExemplars(std::vector<Exemplar> a,
                                     const std::vector<Exemplar>& b, size_t k);

/// The per-system span tracer.  All storage is slab-pooled: span nodes and
/// trace slots are recycled on commit, so steady-state tracing performs no
/// allocation (exemplar retention copies out at most K trees).
class SpanTracer {
 public:
  struct Options {
    uint64_t sample_seed = 0;     ///< hash seed (the system seed)
    double sample_rate = 1.0;     ///< fraction of transactions traced
    uint32_t exemplars = 8;       ///< K slowest span trees retained
    uint64_t global_id_base = 0;  ///< OR-ed onto txn ids (shard << 48)
  };

  SpanTracer(desp::Scheduler* scheduler, Options options);

  SpanTracer(const SpanTracer&) = delete;
  SpanTracer& operator=(const SpanTracer&) = delete;

  /// Pre-sizes the trace and span slabs (n concurrent traces).
  void Reserve(size_t traces);

  /// Deterministic sampling decision: stable hash of (seed, txn_id)
  /// against the rate — no RNG stream is consumed.
  static bool Sampled(uint64_t seed, uint64_t txn_id, double rate);

  // --- Lifecycle (driven by the Transaction Manager) ---------------------

  /// Starts a trace for a newly admitted transaction; opens the kTxn root
  /// at `admitted_at`.  Returns the trace context id to stamp into the
  /// scheduler (0 = not sampled: every later call on id 0 is a no-op).
  /// Consumes a pending cross-shard parent set via SetPendingParent.
  uint32_t BeginTrace(uint64_t txn_id, double admitted_at);

  /// Declares the next BeginTrace a sub-transaction of `parent_global_id`
  /// (a remote shard's trace); used by cross-shard drivers.
  void SetPendingParent(uint64_t parent_global_id);

  /// Takes (and clears) the pending parent.  The Transaction Manager
  /// claims it at Submit time and re-sets it just before BeginTrace, so a
  /// sub-transaction queued at the db scheduler cannot leak its parent to
  /// whatever other transaction is admitted first.
  uint64_t TakePendingParent() {
    const uint64_t parent = pending_parent_;
    pending_parent_ = 0;
    return parent;
  }

  // The per-access hot path (Open/Close/Leaf and the Resolve/slab helpers
  // below) is defined inline: at full sampling these run a few times per
  // object access, and the <3% overhead gate leaves no room for a
  // cross-TU call per span.

  /// Opens a child span under the innermost open span.
  void Open(uint32_t trace, SpanKind kind, uint64_t label, double at) {
    Trace* t = Resolve(trace);
    if (t == nullptr) return;
    t->open = AppendChild(*t, kind, label, at);
  }

  /// Closes the innermost open span.
  void Close(uint32_t trace, double at) {
    Trace* t = Resolve(trace);
    if (t == nullptr) return;
    VOODB_CHECK_MSG(t->open != kNone && t->open != t->root,
                    "span close without a matching open");
    Span& span = SpanAt(t->open);
    span.end = at;
    t->open = span.parent;
  }

  /// Adds an already-closed child span under the innermost open span.
  /// Back-to-back leaves of the same kind and label (e.g. consecutive CPU
  /// slices with nothing between them in simulated time) extend the
  /// previous sibling instead of allocating a new span: component sums are
  /// unchanged, trees stay readable, and full-rate tracing stays cheap.
  void Leaf(uint32_t trace, SpanKind kind, uint64_t label, double begin,
            double end) {
    Trace* t = Resolve(trace);
    if (t == nullptr) return;
    if (t->open != kNone) {
      const uint32_t last = SpanAt(t->open).last_child;
      if (last != kNone) {
        Span& prev = SpanAt(last);
        if (prev.kind == kind && prev.label == label && prev.end == begin &&
            prev.first_child == kNone) {
          prev.end = end;
          return;
        }
      }
    }
    const uint32_t index = AppendChild(*t, kind, label, begin);
    SpanAt(index).end = end;
  }

  /// Annotates the innermost open kAttempt span with an abort cause.
  void NoteAbort(uint32_t trace, AbortCause cause);
  /// Same, against the scheduler's ambient trace context (for protocols,
  /// whose decision sites run inside the requester's event).
  void NoteAbortAmbient(AbortCause cause);

  /// Ambient-context leaf (for shared actors: disk, network).
  void AmbientLeaf(SpanKind kind, uint64_t label, double begin, double end) {
    const uint32_t trace = scheduler_->current_trace();
    if (trace != 0) Leaf(trace, kind, label, begin, end);
  }

  /// Commit retirement: closes any open spans, folds the tree into the
  /// component histograms (Sum()==response enforced), retains the tree as
  /// an exemplar when it ranks among the K slowest, recycles the slab
  /// nodes.  `end` is the retirement time; response = end - admitted_at
  /// as computed by the caller (passed in to match its rounding exactly).
  void FinishCommitted(uint32_t trace, double response_ms, double end);

  /// The global (cross-shard) id for a live trace.
  uint64_t GlobalId(uint32_t trace) const;
  /// Global id of the most recently finished trace (for drivers that
  /// stitch follow-up work to the transaction that just committed).
  uint64_t last_finished_global_id() const {
    return last_finished_global_id_;
  }

  // --- Results -----------------------------------------------------------

  const ComponentHistograms& components() const { return components_; }
  /// Slowest-first, at most Options::exemplars entries.
  const std::vector<Exemplar>& exemplars() const { return exemplars_; }
  uint64_t traces_started() const { return traces_started_; }
  uint64_t traces_finished() const { return traces_finished_; }
  const Options& options() const { return options_; }

  // --- Export ------------------------------------------------------------

  /// Chrome-trace ("Perfetto") JSON: one thread lane per exemplar, "X"
  /// duration events per span (ms rendered as µs timestamps), flow events
  /// stitching cross-shard sub-transactions to their parents.
  static std::string PerfettoJson(const std::vector<Exemplar>& exemplars);

  /// Human-readable breakdown of one exemplar (indented span tree plus
  /// the critical-path components) to `os`.
  static void WriteBreakdown(std::ostream& os, const Exemplar& exemplar);

 private:
  static constexpr uint32_t kNone = UINT32_MAX;

  struct Span {
    double begin = 0.0;
    double end = 0.0;
    uint64_t label = 0;
    uint32_t parent = kNone;
    uint32_t first_child = kNone;
    uint32_t last_child = kNone;
    uint32_t next_sibling = kNone;
    SpanKind kind = SpanKind::kTxn;
    AbortCause cause = AbortCause::kNone;
  };

  struct Trace {
    uint32_t root = kNone;
    uint32_t open = kNone;  ///< innermost open span (chain via parent)
    uint32_t next_free = kNone;
    uint32_t generation = 0;  ///< survives slot reuse; part of the ctx id
    bool live = false;
    uint64_t txn_id = 0;
    uint64_t parent_global_id = 0;
    double admitted_at = 0.0;
  };

  /// Spans live in fixed-size chunks behind the 32-bit index: growing
  /// appends a chunk and never copies the spans already allocated.
  static constexpr uint32_t kChunkShift = 10;  // 1024 spans (48 KB) per chunk
  static constexpr uint32_t kChunkMask = (1u << kChunkShift) - 1;

  Span& SpanAt(uint32_t span) {
    return span_chunks_[span >> kChunkShift][span & kChunkMask];
  }
  const Span& SpanAt(uint32_t span) const {
    return span_chunks_[span >> kChunkShift][span & kChunkMask];
  }

  uint32_t AllocSpan() {
    if (span_free_head_ != kNone) {
      const uint32_t span = span_free_head_;
      span_free_head_ = SpanAt(span).first_child;  // free-list link (FreeTree)
      return span;
    }
    if (spans_used_ == span_chunks_.size() << kChunkShift) AddSpanChunk();
    return spans_used_++;
  }
  void AddSpanChunk();

  void FreeTree(uint32_t span);

  uint32_t AppendChild(Trace& t, SpanKind kind, uint64_t label, double begin) {
    const uint32_t index = AllocSpan();
    Span& span = SpanAt(index);
    span = Span{};
    span.begin = begin;
    span.kind = kind;
    span.label = label;
    span.parent = t.open;
    if (t.open != kNone) {
      Span& parent = SpanAt(t.open);
      if (parent.last_child == kNone) {
        parent.first_child = index;
      } else {
        SpanAt(parent.last_child).next_sibling = index;
      }
      parent.last_child = index;
    }
    return index;
  }

  Trace* Resolve(uint32_t trace) {
    if (trace == 0) return nullptr;
    const uint32_t index = (trace & 0xFFFFu) - 1u;
    const uint32_t generation = trace >> 16;
    if (index >= traces_.size()) return nullptr;
    Trace& t = traces_[index];
    if (!t.live || t.generation != generation) return nullptr;
    return &t;
  }
  /// Exclusive critical-path walk of a committed attempt subtree.
  void WalkExclusive(uint32_t span, CriticalPath* path) const;
  void FoldTrace(const Trace& t, double response_ms, CriticalPath* path) const;
  void MaybeRetain(const Trace& t, double response_ms,
                   const CriticalPath& path);
  void Flatten(uint32_t span, uint8_t depth,
               std::vector<ExemplarSpan>* out) const;

  desp::Scheduler* scheduler_;
  Options options_;
  std::vector<std::unique_ptr<Span[]>> span_chunks_;
  uint32_t spans_used_ = 0;  ///< spans ever handed out (the slab's high mark)
  uint32_t span_free_head_ = kNone;
  std::vector<Trace> traces_;
  uint32_t trace_free_head_ = kNone;
  uint64_t pending_parent_ = 0;
  uint64_t last_finished_global_id_ = 0;
  uint64_t traces_started_ = 0;
  uint64_t traces_finished_ = 0;
  ComponentHistograms components_;
  std::vector<Exemplar> exemplars_;  ///< kept sorted (ExemplarBefore)
};

}  // namespace voodb::obs

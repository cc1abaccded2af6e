/// \file format.hpp
/// \brief The VOODB access-trace binary format (version 2).
///
/// A trace is one versioned fixed-size header followed by a stream of
/// self-describing chunks.  Records are stored *columnar* inside each
/// chunk — one kind column, one id column, one flag column — so the
/// decoder touches homogeneous arrays and the id column compresses well
/// (zigzag varint deltas between consecutive ids).  The header carries
/// the recorded run's configuration (enough to rebuild an identical
/// buffer manager for bit-exact replay) and, once `Writer::Finish` has
/// patched it, the run's own hit/miss/eviction counters so a replay can
/// verify it reproduced the recording.
///
/// Layout (all integers little-endian):
///
///   Header   (fixed size, see `Header`)
///   Chunk*   each: u32 record_count, u32 payload_bytes, then
///            kinds[record_count] (u8), ids (zigzag varint deltas),
///            flags (record_count bits, LSB-first)
///
/// The format is append-only except for the single header patch at
/// `Finish`; a trace whose header still has `kFlagFinished` clear was
/// truncated mid-recording and is rejected by the reader.
#pragma once

#include <cstdint>

namespace voodb::trace {

/// "VTRC" little-endian.
inline constexpr uint32_t kMagic = 0x43525456u;

/// Version 2 packs the issuing user's id into kTxnBegin's id column —
/// `(user << kTxnUserShift) | kind` — so traces of concurrent or
/// sharded runs replay as per-user transaction streams.  The zigzag
/// varint delta coding absorbs the widened ids.  Version 3 adds the
/// kTxnAbort marker (concurrency-control aborts/restarts), so
/// contention runs replay as full transaction streams including the
/// discarded attempts.  The reader still accepts version-1 and -2
/// traces (v1 markers decode as user 0; pre-v3 traces simply contain
/// no abort markers).
inline constexpr uint32_t kFormatVersion = 3;
inline constexpr uint32_t kMinFormatVersion = 1;

/// kTxnBegin id column layout (format v2): low byte = transaction kind
/// ordinal, upper bits = user id.
inline constexpr uint32_t kTxnUserShift = 8;
inline constexpr uint64_t kTxnKindMask = (1u << kTxnUserShift) - 1;

/// Packs a kTxnBegin id (format v2).
inline constexpr uint64_t PackTxnBegin(uint64_t kind, uint32_t user) {
  return (static_cast<uint64_t>(user) << kTxnUserShift) |
         (kind & kTxnKindMask);
}

/// Header flag bits.  The bits above kFlagFinished mark recordings
/// whose buffer behaviour a bare page-stream replay cannot reproduce
/// (replay verification refuses them; MRC analytics and workload replay
/// still apply).
enum : uint32_t {
  kFlagFinished = 1u << 0,       ///< Finish() ran; counters are valid
  kFlagVirtualMemory = 1u << 1,  ///< recorded under the VM model (Texas)
  /// Recorded with flush_on_commit: commit-time FlushInto write-backs
  /// are in the counters but not in the page stream.
  kFlagCommitFlush = 1u << 2,
  /// Recorded with the crash hazard armed: crashes drop the buffer
  /// outside the page stream.
  kFlagCrashHazard = 1u << 3,
  /// The buffer was dropped mid-recording (clustering reorganization,
  /// an explicit DropBuffer between phases) — an event the page stream
  /// does not carry.
  kFlagBufferDrop = 1u << 4,
};

/// True when a page-stream replay under the recorded configuration can
/// reproduce `flags`' recording counter-for-counter.
inline bool ReplayVerifiable(uint32_t flags) {
  return (flags & (kFlagVirtualMemory | kFlagCommitFlush |
                   kFlagCrashHazard | kFlagBufferDrop)) == 0;
}

/// Record kinds.  Transaction markers carry the transaction kind in the
/// id column; object/page records carry the OID / PageId and use the
/// flag column for the write bit.
enum class RecordKind : uint8_t {
  kTxnBegin = 0,
  kTxnEnd = 1,
  kObject = 2,
  kPage = 3,
  /// The in-flight attempt was aborted by concurrency control and will
  /// be retried: accesses recorded since the enclosing kTxnBegin belong
  /// to the discarded attempt (format v3+).
  kTxnAbort = 4,
};

/// One decoded trace record.  The reader normalizes kTxnBegin across
/// format versions: `id` is always the bare TransactionKind ordinal and
/// `user` the issuing user (0 for version-1 traces).
struct Record {
  RecordKind kind = RecordKind::kPage;
  uint64_t id = 0;    ///< OID, PageId, or TransactionKind ordinal
  bool write = false;
  uint32_t user = 0;  ///< issuing user id (kTxnBegin only)
};

/// Counters of the recorded run's buffering layer, embedded in the
/// header by `Writer::Finish` so replays can verify bit-exact
/// reproduction.
struct TraceCounters {
  uint64_t accesses = 0;
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
  uint64_t writebacks = 0;
};

/// The fixed-size trace header.  Plain trivially-copyable struct written
/// and read as bytes; `static_assert`s below pin the layout.
struct Header {
  uint32_t magic = kMagic;
  uint32_t version = kFormatVersion;
  uint32_t flags = 0;
  uint32_t page_size = 0;

  // --- recorded system configuration (for bit-exact replay) ---------------
  uint64_t buffer_pages = 0;
  uint8_t replacement_policy = 0;  ///< storage::ReplacementPolicy ordinal
  uint8_t prefetch_policy = 0;     ///< core::PrefetchPolicy ordinal
  uint8_t reserved0 = 0;
  uint8_t reserved1 = 0;
  uint32_t lru_k = 2;
  uint32_t prefetch_depth = 0;
  uint32_t num_classes = 0;
  uint64_t num_objects = 0;
  uint64_t num_pages = 0;
  uint64_t seed = 0;

  // --- stream summary (patched by Finish) ----------------------------------
  uint64_t num_chunks = 0;
  uint64_t num_records = 0;
  uint64_t txn_records = 0;     ///< kTxnBegin count
  uint64_t object_records = 0;
  uint64_t page_records = 0;
  TraceCounters counters;
};

static_assert(sizeof(TraceCounters) == 40, "TraceCounters layout changed");
static_assert(sizeof(Header) == 144, "trace Header layout changed");

/// Records per chunk: large enough to amortize the chunk header, small
/// enough that the recorder's fixed buffers stay cache-friendly.
inline constexpr uint32_t kChunkRecords = 4096;

}  // namespace voodb::trace

/// \file replacement.hpp
/// \brief Buffer frames, the resident-page index and the replacement
/// policies (Table 3's PGREP parameter).
///
/// The paper lists RANDOM, FIFO, LFU, LRU-K, CLOCK and GCLOCK as the
/// interchangeable policies of the Buffering Manager; LRU-1 is the
/// default.  The buffer is data-oriented: all per-page state — the page
/// id, the dirty bit and the replacement-policy bookkeeping — lives in
/// one `Frame` record of a single flat array, and residency is resolved
/// through the open-addressing `util::HashIndex` that maps PageId to a
/// frame index.  A hit therefore costs one hash probe plus one cache-line
/// update (LRU relinks its intrusive chain, CLOCK bumps a weight, LFU
/// bumps a counter) and evictions recycle frames through a free list
/// without allocating.
///
/// Policies that need an ordered victim scan (LFU, LRU-K) keep
/// lazily-invalidated heaps on the side so all operations stay
/// O(log capacity) amortized; their per-page state still lives in the
/// frame record, and stale heap entries are recognized by comparing the
/// entry against the frame the page currently occupies.
#pragma once

#include <cstdint>
#include <deque>
#include <queue>
#include <vector>

#include "desp/random.hpp"
#include "storage/page.hpp"
#include "util/hash_index.hpp"

namespace voodb::storage {

/// Replacement policy selector (PGREP).
enum class ReplacementPolicy {
  kRandom,
  kFifo,
  kLfu,
  kLru,    ///< LRU-1
  kLruK,   ///< LRU-K with configurable K (default 2)
  kClock,
  kGclock,
};

const char* ToString(ReplacementPolicy p);

/// Sentinel frame index ("no frame").
inline constexpr uint32_t kNoFrame = util::HashIndex::kNone;

/// One buffer frame: the unit of the flat frame array.  Exactly the
/// state the hot path touches — identity, dirty bit and the intrusive
/// replacement-policy fields — packed into one record so an access
/// updates a single cache line.
struct Frame {
  PageId page = kNullPage;   ///< resident page; kNullPage = free frame
  uint64_t count = 0;        ///< LFU: access count
  uint64_t seq = 0;          ///< LFU: admission sequence (tie-break)
  uint64_t version = 0;      ///< LRU-K: touch version (heap staleness)
  uint32_t prev = kNoFrame;  ///< LRU chain toward the MRU end
  uint32_t next = kNoFrame;  ///< LRU chain toward the LRU end
  uint32_t slot = 0;         ///< RANDOM: index into the admission vector
  uint32_t weight = 0;       ///< CLOCK/GCLOCK: second-chance weight
  uint32_t hist_size = 0;    ///< LRU-K: stamps recorded (<= K)
  bool dirty = false;        ///< page modified since load
};

/// The replacement policies, operating intrusively on the shared frame
/// array.  The owning cache guarantees: OnAdmit for frames just bound to
/// a page, OnAccess for resident frames only, PickVictim only when at
/// least one frame is resident, and OnEvict exactly once per eviction
/// (before the frame is unbound).
class ReplacementEngine {
 public:
  /// `rng` is used by kRandom; `lru_k` by kLruK.
  ReplacementEngine(ReplacementPolicy policy, desp::RandomStream rng,
                    uint32_t lru_k = 2);

  void OnAdmit(std::vector<Frame>& frames, uint32_t frame);
  void OnAccess(std::vector<Frame>& frames, uint32_t frame);
  /// Nominates a victim frame (may rotate CLOCK weights).
  uint32_t PickVictim(std::vector<Frame>& frames,
                      const util::HashIndex& table);
  void OnEvict(std::vector<Frame>& frames, uint32_t frame);

  /// Drops all policy history (buffer drop; frame array restarts empty).
  void Reset();

  ReplacementPolicy policy() const { return policy_; }

 private:
  /// Lazily-invalidated heap entry shared by LFU (key1 = count,
  /// key2 = admission seq) and LRU-K (key1 = has-K flag, key2 = stamp,
  /// validated against the frame's touch version).
  struct HeapEntry {
    uint64_t key1;
    uint64_t key2;
    uint64_t version;
    PageId page;
  };
  struct HeapGreater {
    bool operator()(const HeapEntry& a, const HeapEntry& b) const {
      if (a.key1 != b.key1) return a.key1 > b.key1;
      return a.key2 > b.key2;
    }
  };

  void TouchLruK(std::vector<Frame>& frames, uint32_t frame);
  uint64_t* LruKHistory(uint32_t frame);

  ReplacementPolicy policy_;
  desp::RandomStream rng_;
  uint32_t lru_k_;

  // LRU: intrusive chain endpoints (frame indices).
  uint32_t lru_head_ = kNoFrame;  ///< MRU end
  uint32_t lru_tail_ = kNoFrame;  ///< LRU end (victim)

  // RANDOM: resident frames in admission order (swap-remove on evict).
  std::vector<uint32_t> random_frames_;

  // FIFO: admission queue; entries for pages no longer resident are
  // skipped lazily at victim time.
  std::deque<PageId> fifo_queue_;

  // LFU / LRU-K: lazily-invalidated min-heaps.
  std::priority_queue<HeapEntry, std::vector<HeapEntry>, HeapGreater>
      lfu_heap_;
  std::priority_queue<HeapEntry, std::vector<HeapEntry>, HeapGreater>
      lruk_heap_;
  /// LRU-K stamp history, K stamps per frame, most recent first.
  std::vector<uint64_t> lruk_history_;
  uint64_t lfu_next_seq_ = 0;
  uint64_t lruk_clock_ = 0;

  // CLOCK / GCLOCK sweep hand (frame index).
  size_t clock_hand_ = 0;
  uint32_t clock_initial_weight_ = 1;
  uint32_t clock_max_weight_ = 8;
  bool clock_increment_on_access_ = false;
};

}  // namespace voodb::storage

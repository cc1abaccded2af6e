/// \file virtual_memory.hpp
/// \brief OS virtual-memory model for memory-mapped stores (Texas).
///
/// Texas maps its persistent store through the operating system's virtual
/// memory and swizzles pointers at page-fault time.  Two consequences the
/// VOODB paper highlights (§4.3.2) are modelled here:
///
/// 1. **Reserve-on-swizzle.** When an object is reached, Texas reserves
///    address space (and, under Linux 2.0, page frames) for the pages of
///    every object it references *before those pages are actually
///    loaded*.  The host drives this through Reserve(): traversed
///    objects' references are mostly about to be visited anyway, but the
///    fringe beyond the traversal depth is reserved for nothing.  Once
///    the database outgrows main memory this reservation traffic evicts
///    useful pages and the fault rate grows *exponentially* as memory
///    shrinks (Figure 11), unlike the linear degradation of a plain page
///    cache (Figure 8).
/// 2. **Dirty-on-load.** Swizzling rewrites pointers inside a freshly
///    loaded page, so nearly every resident page is dirty and eviction
///    implies a swap write, roughly doubling the I/O bill while
///    thrashing.
///
/// The model is a frame pool with LRU ordering where each page is either
/// Loaded (contents present) or Reserved (frame held, contents absent).
/// Like the BufferManager it is data-oriented: frames live in one flat
/// array linked into an intrusive LRU chain and are found through a
/// `util::HashIndex`, and every access appends its physical I/Os to a
/// caller-owned vector, so a warm model never allocates.
#pragma once

#include <cstdint>
#include <vector>

#include "storage/page.hpp"
#include "util/hash_index.hpp"

namespace voodb::storage {

/// Tunables of the virtual-memory model.
struct VmParameters {
  /// Number of physical page frames available to the store.
  uint64_t memory_pages = 2048;
  /// Pages are dirtied by pointer swizzling as they are loaded.
  bool dirty_on_load = true;
  /// Where reserved frames enter the LRU order.  `false` (default)
  /// inserts them cold (at the LRU tail): never-referenced reservations
  /// are the first frames the OS reclaims, so bursts of reservations
  /// mostly cannibalize each other and only the first few evict real
  /// pages.  `true` inserts them hot (at the MRU head), modelling a
  /// pathological kernel that treats freshly mapped pages as recently
  /// used — the worst case for thrashing (ablation knob).
  bool reservations_enter_hot = false;

  void Validate() const;
};

/// Counters exposed by the VM model.
struct VmStats {
  uint64_t touches = 0;
  uint64_t soft_hits = 0;     ///< page was Loaded
  uint64_t faults = 0;        ///< page needed a disk read
  uint64_t reads = 0;         ///< disk reads (== faults)
  uint64_t swap_writes = 0;   ///< dirty evictions
  uint64_t reservations = 0;  ///< frames handed to Reserved pages
  uint64_t reserved_evictions = 0;
};

/// The OS paging model.
class VirtualMemoryModel {
 public:
  explicit VirtualMemoryModel(VmParameters params);

  /// Touches `page` (reading or writing an object on it): appends the
  /// physical I/O operations implied (swap writes then the read) to `ios`
  /// (not cleared) and returns whether the page was already loaded.
  bool TouchInto(PageId page, bool write, std::vector<PageIo>& ios);

  /// Reserves a frame for `page` without loading it (reserve-on-swizzle).
  /// No read is performed, but making room can evict dirty pages: their
  /// swap writes are appended to `ios`.  No-op when `page` already has a
  /// frame.
  void ReserveInto(PageId page, std::vector<PageIo>& ios);

  /// Discards all frames without write-back (process restart).
  void DropAll();

  /// Changes the amount of physical memory; evicts as needed.
  std::vector<PageIo> Resize(uint64_t memory_pages);

  bool IsLoaded(PageId page) const;
  uint64_t resident_frames() const { return index_.size(); }
  /// Number of dirty loaded frames (O(frames)).
  uint64_t DirtyFrames() const {
    uint64_t n = 0;
    for (const Frame& f : frames_) n += f.page != kNullPage && f.dirty;
    return n;
  }
  const VmStats& stats() const { return stats_; }
  const VmParameters& params() const { return params_; }

 private:
  static constexpr uint32_t kNone = util::HashIndex::kNone;

  enum class State : uint8_t { kLoaded, kReserved };
  struct Frame {
    PageId page = kNullPage;  ///< kNullPage = free frame
    uint32_t prev = kNone;    ///< LRU chain toward the MRU end
    uint32_t next = kNone;    ///< LRU chain toward the LRU end
    State state = State::kLoaded;
    bool dirty = false;
  };

  /// Evicts the LRU frame, appending a swap write when dirty.
  void EvictOne(std::vector<PageIo>& ios);
  /// Binds a frame to `page` (evicting as needed), indexed but unlinked.
  uint32_t TakeFrame(PageId page, State state, bool dirty,
                     std::vector<PageIo>& ios);
  void LinkFront(uint32_t frame);
  void LinkBack(uint32_t frame);
  void Unlink(uint32_t frame);

  VmParameters params_;
  std::vector<Frame> frames_;
  std::vector<uint32_t> free_frames_;
  util::HashIndex index_;  ///< PageId -> frame
  uint32_t mru_ = kNone;
  uint32_t lru_ = kNone;
  VmStats stats_;
};

}  // namespace voodb::storage

/// \file slot_pool.hpp
/// \brief Generation-counted slot pool for state that outlives one event.
///
/// A continuation (`SmallFunction`) cannot hold another continuation
/// inline, so an actor whose work spans several events keeps that work's
/// state — the caller's `done`, a cursor, a reused I/O batch — in a slot
/// of its own pool, and each event captures only `{this, handle}`.
/// Slots are recycled through a free list and keep their heap capacity,
/// so the pool grows to the peak number of concurrent requests and then
/// stops allocating.  A handle is an (index, generation) pair: pool
/// growth never invalidates it, and a stale handle (its slot freed and
/// reused) is caught by the generation check instead of corrupting the
/// new occupant.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/check.hpp"

namespace voodb::desp {

/// Pool of `T` slots.  `T::Recycle()` must clear a slot for reuse while
/// keeping its capacity (and release any continuation it still holds).
template <typename T>
class SlotPool {
 public:
  struct Handle {
    uint32_t index = 0;
    uint32_t generation = 0;
  };

  /// Takes a free slot (growing the pool when none is free).  The slot
  /// holds whatever its last Recycle() left.
  Handle Alloc() {
    uint32_t index;
    if (!free_.empty()) {
      index = free_.back();
      free_.pop_back();
    } else {
      index = static_cast<uint32_t>(slots_.size());
      slots_.emplace_back();
    }
    Slot& slot = slots_[index];
    slot.live = true;
    ++live_;
    return Handle{index, slot.generation};
  }

  T& At(Handle h) {
    return const_cast<T&>(static_cast<const SlotPool&>(*this).At(h));
  }
  const T& At(Handle h) const {
    VOODB_CHECK_MSG(h.index < slots_.size(), "bad slot handle");
    const Slot& slot = slots_[h.index];
    VOODB_CHECK_MSG(slot.live && slot.generation == h.generation,
                    "stale slot handle (slot recycled)");
    return slot.value;
  }

  /// Recycles the slot; any outstanding copy of `h` becomes stale.
  void Free(Handle h) {
    VOODB_CHECK_MSG(h.index < slots_.size(), "bad slot handle");
    Slot& slot = slots_[h.index];
    VOODB_CHECK_MSG(slot.live && slot.generation == h.generation,
                    "double free of slot handle");
    slot.value.Recycle();
    slot.live = false;
    ++slot.generation;
    --live_;
    free_.push_back(h.index);
  }

  /// The handle of live slot `index`, for owners that key slots by index
  /// through their own map (that map, not the generation, guards them).
  Handle HandleAt(uint32_t index) const {
    VOODB_CHECK_MSG(index < slots_.size() && slots_[index].live,
                    "slot " << index << " is not live");
    return Handle{index, slots_[index].generation};
  }

  /// Applies `fn(value)` to every live slot in slot order, which depends
  /// on the pool's reuse history: use only for order-insensitive work.
  template <typename Fn>
  void ForEachLive(Fn&& fn) const {
    for (const Slot& slot : slots_) {
      if (slot.live) fn(slot.value);
    }
  }

  /// Slots in use.
  size_t live() const { return live_; }
  /// Slots ever constructed: the peak concurrency, not the request count.
  size_t capacity() const { return slots_.size(); }

 private:
  struct Slot {
    T value;
    uint32_t generation = 0;
    bool live = false;
  };

  std::vector<Slot> slots_;
  std::vector<uint32_t> free_;
  size_t live_ = 0;
};

}  // namespace voodb::desp

#include "util/hash_index.hpp"

#include <algorithm>
#include <utility>

#include "util/check.hpp"

namespace voodb::util {

namespace {

uint64_t NextPowerOfTwo(uint64_t v) {
  uint64_t p = 16;
  while (p < v) p <<= 1;
  return p;
}

}  // namespace

HashIndex::HashIndex(uint64_t expected_entries) {
  // Cap the load factor at ~1/2 so probe chains stay short.
  const uint64_t capacity = NextPowerOfTwo(expected_entries * 2);
  slots_.assign(capacity, Slot{});
  mask_ = capacity - 1;
}

void HashIndex::Insert(uint64_t key, uint32_t value) {
  VOODB_CHECK_MSG(value != kNone, "cannot index the kNone value");
  if ((size_ + 1) * 2 > slots_.size()) Rehash(slots_.size() * 2);
  uint64_t i = Hash(key) & mask_;
  while (slots_[i].value != kNone) {
    VOODB_CHECK_MSG(slots_[i].key != key, "key " << key << " already indexed");
    i = (i + 1) & mask_;
  }
  slots_[i] = Slot{key, value};
  ++size_;
}

void HashIndex::Erase(uint64_t key) {
  uint64_t i = Hash(key) & mask_;
  while (slots_[i].value == kNone || slots_[i].key != key) {
    VOODB_CHECK_MSG(slots_[i].value != kNone,
                    "erasing unindexed key " << key);
    i = (i + 1) & mask_;
  }
  // Backward-shift deletion: keep every remaining entry reachable from
  // its home slot without tombstones.
  uint64_t hole = i;
  uint64_t j = (i + 1) & mask_;
  while (slots_[j].value != kNone) {
    const uint64_t home = Hash(slots_[j].key) & mask_;
    // Move slot j into the hole when its home position lies at or
    // before the hole (cyclically), i.e. the probe for it would pass
    // through the hole.
    const bool between = ((j - home) & mask_) >= ((j - hole) & mask_);
    if (between) {
      slots_[hole] = slots_[j];
      hole = j;
    }
    j = (j + 1) & mask_;
  }
  slots_[hole] = Slot{};
  --size_;
}

void HashIndex::Clear() {
  std::fill(slots_.begin(), slots_.end(), Slot{});
  size_ = 0;
}

void HashIndex::Rehash(uint64_t capacity) {
  std::vector<Slot> old = std::move(slots_);
  slots_.assign(capacity, Slot{});
  mask_ = capacity - 1;
  size_ = 0;
  for (const Slot& slot : old) {
    if (slot.value != kNone) Insert(slot.key, slot.value);
  }
}

}  // namespace voodb::util

/// \file hash_index.hpp
/// \brief The open-addressing u64 -> u32 index shared by the buffer, the
/// VM model and the concurrency-control transaction tables.
///
/// Linear probing over a power-of-two array of (key, value) slots with
/// backward-shift deletion, so there are no tombstones and a lookup
/// touches one small flat array.  Inserting and erasing never allocate
/// once the table has reached its peak size (it only grows).
#pragma once

#include <cstdint>
#include <vector>

namespace voodb::util {

class HashIndex {
 public:
  /// Value sentinel: "absent" (and the empty-slot marker).
  static constexpr uint32_t kNone = static_cast<uint32_t>(-1);

  explicit HashIndex(uint64_t expected_entries = 16);

  /// Value stored for `key`, or kNone.
  uint32_t Find(uint64_t key) const {
    uint64_t i = Hash(key) & mask_;
    while (true) {
      const Slot& slot = slots_[i];
      if (slot.value == kNone) return kNone;
      if (slot.key == key) return slot.value;
      i = (i + 1) & mask_;
    }
  }

  /// Inserts `key -> value`; `key` must not be present and `value` must
  /// not be kNone.
  void Insert(uint64_t key, uint32_t value);
  /// Removes `key`; must be present.
  void Erase(uint64_t key);
  void Clear();

  uint64_t size() const { return size_; }

 private:
  struct Slot {
    uint64_t key = 0;
    uint32_t value = kNone;  ///< kNone = empty slot
  };

  static uint64_t Hash(uint64_t key) {
    // 64-bit finalizer (splitmix64): cheap and well-distributed for the
    // dense ids (pages, transactions) this indexes.
    uint64_t x = key + 0x9E3779B97F4A7C15ULL;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
    return x ^ (x >> 31);
  }

  void Rehash(uint64_t capacity);

  std::vector<Slot> slots_;
  uint64_t mask_ = 0;
  uint64_t size_ = 0;
};

}  // namespace voodb::util

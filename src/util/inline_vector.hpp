/// \file inline_vector.hpp
/// \brief A small vector that keeps its first few elements in place.
///
/// Per-oid structures of the concurrency-control protocols (a lock's
/// holders, an MVCC version chain) are almost always one or two entries
/// long; keeping those inline means a dense per-oid array of them
/// allocates only for the rare long ones.
#pragma once

#include <algorithm>
#include <cstdint>
#include <type_traits>

namespace voodb::util {

/// A vector of trivially copyable values that keeps its first `N`
/// elements in place and spills to the heap beyond that.
template <typename T, uint32_t N>
class InlineVector {
  static_assert(std::is_trivially_copyable_v<T>, "values are memcpy'd");

 public:
  InlineVector() {}
  InlineVector(InlineVector&& other) noexcept { Steal(other); }
  InlineVector& operator=(InlineVector&& other) noexcept {
    if (this != &other) {
      Free();
      Steal(other);
    }
    return *this;
  }
  InlineVector(const InlineVector&) = delete;
  InlineVector& operator=(const InlineVector&) = delete;
  ~InlineVector() { Free(); }

  T* begin() { return data(); }
  T* end() { return data() + size_; }
  const T* begin() const { return data(); }
  const T* end() const { return data() + size_; }

  uint32_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  T operator[](uint32_t i) const { return data()[i]; }
  T back() const { return data()[size_ - 1]; }

  void push_back(const T& value) {
    if (size_ == capacity_) Grow();
    data()[size_++] = value;
  }
  /// Removes `*it`, keeping the order of the rest.
  void erase(T* it) {
    std::copy(it + 1, end(), it);
    --size_;
  }
  /// Removes the first `n` elements, keeping the order of the rest.
  void EraseFront(uint32_t n) {
    std::copy(begin() + n, end(), begin());
    size_ -= n;
  }

 private:
  T* data() { return capacity_ == N ? inline_ : heap_; }
  const T* data() const { return capacity_ == N ? inline_ : heap_; }
  void Grow() {
    T* bigger = new T[capacity_ * 2];
    std::copy(begin(), end(), bigger);
    Free();
    heap_ = bigger;
    capacity_ *= 2;
  }
  void Free() {
    if (capacity_ != N) delete[] heap_;
  }
  void Steal(InlineVector& other) {
    size_ = other.size_;
    capacity_ = other.capacity_;
    if (capacity_ == N) {
      std::copy(other.inline_, other.inline_ + size_, inline_);
    } else {
      heap_ = other.heap_;
    }
    other.size_ = 0;
    other.capacity_ = N;
  }

  uint32_t size_ = 0;
  uint32_t capacity_ = N;
  union {
    T inline_[N];
    T* heap_;
  };
};

}  // namespace voodb::util

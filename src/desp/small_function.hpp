/// \file small_function.hpp
/// \brief A move-only callable with small-buffer optimization.
///
/// The scheduler fires millions of events per experiment; wrapping every
/// event action in a `std::function` (16-byte inline buffer in libstdc++)
/// forced a heap allocation for any capture beyond two words.
/// SmallFunction stores callables up to `kInlineBytes` in place and falls
/// back to the heap only for outsized captures.  It is the one
/// continuation type of the simulation path: events, resource grants,
/// concurrency-control decisions and the actors' `done` parameters.
///
/// A SmallFunction cannot hold another one inline (it is larger than its
/// own buffer), so no continuation captures a continuation: state that
/// outlives a step — a caller's `done` included — waits in a slot pool
/// owned by the actor (desp/slot_pool.hpp), and each closure captures
/// `{this, handle}` plus a few words.
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace voodb::desp {

/// Move-only `void()` callable with a large inline buffer.
class SmallFunction {
 public:
  /// Inline capture budget, set by the largest closure on the simulation
  /// path: a users driver's think-time submit — driver pointer, user id
  /// and the `ocb::Transaction` it hands over = 8 + 8 + 40.  An
  /// Actor::CallIn binding (object pointer + member-function pointer + a
  /// slot handle) takes 32, a protocol grant 40.
  static constexpr size_t kInlineBytes = 56;

  SmallFunction() = default;
  SmallFunction(std::nullptr_t) {}  // NOLINT(runtime/explicit)

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, SmallFunction> &&
                std::is_invocable_r_v<void, std::decay_t<F>&>>>
  SmallFunction(F&& f) {  // NOLINT(runtime/explicit)
    using Fn = std::decay_t<F>;
    // An empty wrapped callable (default-constructed std::function, null
    // function pointer) becomes an empty SmallFunction, so callers'
    // static_cast<bool> checks keep rejecting it at schedule time instead
    // of throwing bad_function_call when the event fires.
    if constexpr (std::is_constructible_v<bool, Fn&>) {
      if (!f) return;
    }
    if constexpr (sizeof(Fn) <= kInlineBytes &&
                  alignof(Fn) <= alignof(std::max_align_t) &&
                  std::is_nothrow_move_constructible_v<Fn>) {
      ::new (static_cast<void*>(buffer_)) Fn(std::forward<F>(f));
      ops_ = &InlineOps<Fn>::ops;
    } else {
      *reinterpret_cast<Fn**>(buffer_) = new Fn(std::forward<F>(f));
      ops_ = &HeapOps<Fn>::ops;
    }
  }

  SmallFunction(SmallFunction&& other) noexcept { MoveFrom(other); }

  SmallFunction& operator=(SmallFunction&& other) noexcept {
    if (this != &other) {
      Reset();
      MoveFrom(other);
    }
    return *this;
  }

  SmallFunction(const SmallFunction&) = delete;
  SmallFunction& operator=(const SmallFunction&) = delete;

  ~SmallFunction() { Reset(); }

  explicit operator bool() const { return ops_ != nullptr; }

  void operator()() { ops_->invoke(buffer_); }

  /// Destroys the stored callable (releasing captured resources eagerly).
  void Reset() {
    if (ops_ != nullptr) {
      ops_->destroy(buffer_);
      ops_ = nullptr;
    }
  }

 private:
  struct Ops {
    void (*invoke)(void*);
    /// Move-constructs dst from src and destroys src.
    void (*relocate)(void* dst, void* src);
    void (*destroy)(void*);
  };

  template <typename Fn>
  struct InlineOps {
    static void Invoke(void* p) { (*static_cast<Fn*>(p))(); }
    static void Relocate(void* dst, void* src) {
      Fn* from = static_cast<Fn*>(src);
      ::new (dst) Fn(std::move(*from));
      from->~Fn();
    }
    static void Destroy(void* p) { static_cast<Fn*>(p)->~Fn(); }
    static constexpr Ops ops = {&Invoke, &Relocate, &Destroy};
  };

  template <typename Fn>
  struct HeapOps {
    static void Invoke(void* p) { (**static_cast<Fn**>(p))(); }
    static void Relocate(void* dst, void* src) {
      *static_cast<Fn**>(dst) = *static_cast<Fn**>(src);
    }
    static void Destroy(void* p) { delete *static_cast<Fn**>(p); }
    static constexpr Ops ops = {&Invoke, &Relocate, &Destroy};
  };

  void MoveFrom(SmallFunction& other) noexcept {
    ops_ = other.ops_;
    if (ops_ != nullptr) {
      ops_->relocate(buffer_, other.buffer_);
      other.ops_ = nullptr;
    }
  }

  alignas(std::max_align_t) unsigned char buffer_[kInlineBytes];
  const Ops* ops_ = nullptr;
};

}  // namespace voodb::desp

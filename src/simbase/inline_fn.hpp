// InlineFn: a move-only callable wrapper with small-buffer-optimized
// storage, built for the simulator hot path.
//
// Every event the engine fires, every flow completion, every CPU-lane
// wakeup is a closure. std::function heap-allocates any capture larger
// than (typically) two pointers and drags in RTTI + copyability machinery
// we never use. InlineFn stores captures up to `Cap` bytes inline in the
// wrapper itself — the common scheduling closures capture a pointer or
// three and never touch the allocator — and transparently falls back to a
// single heap cell for a rare large capture (the simulator's own hot
// closures all fit: protocol steps capture a pooled record's index, not
// its contents). Move-only by design: simulator callbacks are
// consumed exactly once, so copyability would only force every capture to
// be copyable too.
#pragma once

#include <cstddef>
#include <cstring>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

namespace han::sim {

template <typename Sig, std::size_t Cap = 48>
class InlineFn;

template <typename R, typename... Args, std::size_t Cap>
class InlineFn<R(Args...), Cap> {
 public:
  InlineFn() = default;
  InlineFn(std::nullptr_t) {}  // NOLINT(google-explicit-constructor)

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, InlineFn> &&
                !std::is_same_v<std::decay_t<F>, std::nullptr_t> &&
                std::is_invocable_r_v<R, std::decay_t<F>&, Args...>>>
  InlineFn(F&& f) {  // NOLINT(google-explicit-constructor)
    emplace(std::forward<F>(f));
  }

  InlineFn(InlineFn&& other) noexcept { move_from(other); }

  InlineFn& operator=(InlineFn&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(other);
    }
    return *this;
  }

  InlineFn& operator=(std::nullptr_t) {
    reset();
    return *this;
  }

  InlineFn(const InlineFn&) = delete;
  InlineFn& operator=(const InlineFn&) = delete;

  ~InlineFn() { reset(); }

  explicit operator bool() const { return ops_ != nullptr; }

  R operator()(Args... args) {
    return ops_->invoke(&storage_, std::forward<Args>(args)...);
  }

  /// Replace the stored callable, constructing `f` directly in the buffer
  /// (one construction — no temporary InlineFn, no relocation). The
  /// engine's scheduling path uses this to write a closure straight into
  /// its pooled event record.
  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, InlineFn> &&
                std::is_invocable_r_v<R, std::decay_t<F>&, Args...>>>
  void assign(F&& f) {
    reset();
    emplace(std::forward<F>(f));
  }

  /// True when the callable's capture lives in the inline buffer (no heap
  /// allocation). Exposed so tests can pin the SBO threshold.
  bool is_inline() const { return ops_ != nullptr && ops_->inline_storage; }

  static constexpr std::size_t inline_capacity() { return Cap; }

 private:
  struct Ops {
    R (*invoke)(void*, Args&&...);
    // Move-construct `dst` from `src`, then destroy `src`.
    void (*relocate)(void* dst, void* src) noexcept;
    void (*destroy)(void*) noexcept;
    bool inline_storage;
    // Trivially copyable + destructible capture: relocation is a plain
    // buffer copy and destruction a no-op, so the hot move/reset paths
    // skip the indirect call entirely (most scheduling closures capture
    // only pointers and integers).
    bool trivial;
  };

  template <typename F>
  static constexpr bool fits_inline() {
    return sizeof(F) <= Cap && alignof(F) <= alignof(std::max_align_t) &&
           std::is_nothrow_move_constructible_v<F>;
  }

  template <typename F>
  struct InlineOps {
    static R invoke(void* p, Args&&... args) {
      return (*std::launder(reinterpret_cast<F*>(p)))(
          std::forward<Args>(args)...);
    }
    static void relocate(void* dst, void* src) noexcept {
      F* from = std::launder(reinterpret_cast<F*>(src));
      ::new (dst) F(std::move(*from));
      from->~F();
    }
    static void destroy(void* p) noexcept {
      std::launder(reinterpret_cast<F*>(p))->~F();
    }
    static constexpr Ops ops{&invoke, &relocate, &destroy, true,
                             std::is_trivially_copyable_v<F> &&
                                 std::is_trivially_destructible_v<F>};
  };

  template <typename F>
  struct HeapOps {
    static F*& slot(void* p) { return *std::launder(reinterpret_cast<F**>(p)); }
    static R invoke(void* p, Args&&... args) {
      return (*slot(p))(std::forward<Args>(args)...);
    }
    static void relocate(void* dst, void* src) noexcept {
      ::new (dst) F*(slot(src));
    }
    static void destroy(void* p) noexcept { delete slot(p); }
    static constexpr Ops ops{&invoke, &relocate, &destroy, false, false};
  };

  template <typename F>
  void emplace(F&& f) {
    using D = std::decay_t<F>;
    if constexpr (fits_inline<D>()) {
      ::new (&storage_) D(std::forward<F>(f));
      ops_ = &InlineOps<D>::ops;
    } else {
      ::new (&storage_) D*(new D(std::forward<F>(f)));
      ops_ = &HeapOps<D>::ops;
    }
  }

  void move_from(InlineFn& other) noexcept {
    ops_ = other.ops_;
    if (ops_ != nullptr) {
      if (ops_->trivial) {
        // Fixed-size copy: compiles to a few vector moves, no indirect
        // call. Trailing bytes past the capture are never read back.
        std::memcpy(&storage_, &other.storage_, Cap);
      } else {
        ops_->relocate(&storage_, &other.storage_);
      }
      other.ops_ = nullptr;
    }
  }

  void reset() {
    if (ops_ != nullptr) {
      if (!ops_->trivial) ops_->destroy(&storage_);
      ops_ = nullptr;
    }
  }

  const Ops* ops_ = nullptr;
  alignas(std::max_align_t) std::byte storage_[Cap];
};

}  // namespace han::sim

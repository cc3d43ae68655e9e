// Small-buffer type-erased payload for ev::Message, replacing std::any.
// libstdc++'s std::any heap-allocates anything bigger than a pointer, which
// put one malloc/free pair on every control message carrying a payload
// struct. Payload keeps values up to kInlineBytes (48) in the message
// itself — every steady-state payload (HeartbeatWire, IncreasePayload,
// NeedsPayload, TradeWire, ...) fits — and falls back to the heap only for
// the rare large ones (DonePayload's report), which ride resize rounds, not
// the hot path. See DESIGN.md §16 for the size budget.
//
// Semantics match the std::any subset the codebase used: copyable,
// movable, `p = value` to store, `as<T>()` (exact-type, typeid-based) to
// read, has_value()/reset().
#pragma once

#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <typeinfo>
#include <utility>

namespace ioc::ev {

class Payload {
 public:
  /// Inline capacity. 48 bytes holds every steady-state control payload
  /// while keeping sizeof(Message) within a cache line pair.
  static constexpr std::size_t kInlineBytes = 48;
  static constexpr std::size_t kAlign = 16;

  Payload() = default;

  Payload(const Payload& o) { copy_from(o); }
  Payload(Payload&& o) noexcept { move_from(o); }

  Payload& operator=(const Payload& o) {
    if (this != &o) {
      reset();
      copy_from(o);
    }
    return *this;
  }
  Payload& operator=(Payload&& o) noexcept {
    if (this != &o) {
      reset();
      move_from(o);
    }
    return *this;
  }

  /// Store a value (the `m.payload = SomeWireStruct{...}` idiom).
  template <class T, class D = std::decay_t<T>,
            class = std::enable_if_t<!std::is_same_v<D, Payload>>>
  Payload& operator=(T&& v) {
    reset();
    emplace<D>(std::forward<T>(v));
    return *this;
  }

  template <class T, class D = std::decay_t<T>,
            class = std::enable_if_t<!std::is_same_v<D, Payload>>>
  Payload(T&& v) {
    emplace<D>(std::forward<T>(v));
  }

  ~Payload() { reset(); }

  bool has_value() const { return vt_ != nullptr; }

  void reset() {
    if (vt_ == nullptr) return;
    if (!vt_->trivial) vt_->destroy(slot());
    vt_ = nullptr;
  }

  /// Pointer to the stored T, or nullptr if empty or a different type.
  template <class T>
  const T* as() const {
    if (vt_ == nullptr || *vt_->type != typeid(T)) return nullptr;
    return static_cast<const T*>(slot());
  }
  template <class T>
  T* as() {
    if (vt_ == nullptr || *vt_->type != typeid(T)) return nullptr;
    return static_cast<T*>(slot());
  }

  const std::type_info* type() const { return vt_ ? vt_->type : nullptr; }

 private:
  struct VTable {
    const std::type_info* type;
    bool inline_storage;
    /// Trivially copyable and inline: copy/move/destroy need no call at all
    /// — a fixed-size memcpy of the buffer suffices. Messages are moved
    /// several times per bus hop (into the post frame, into the mailbox
    /// ring, out of it), and every steady-state wire struct is trivial, so
    /// this flag removes an indirect call from each of those moves.
    bool trivial;
    // destroy/copy take the stored *object* (what slot() returns);
    // relocate shuffles raw storage between two Payloads.
    void (*destroy)(void* obj);
    void (*copy)(void* dst_storage, const void* src_obj);
    void (*relocate)(void* dst_storage, void* src_storage);
  };

  template <class T>
  static constexpr bool fits_inline() {
    return sizeof(T) <= kInlineBytes && alignof(T) <= kAlign &&
           std::is_nothrow_move_constructible_v<T>;
  }

  template <class T>
  static const VTable* vtable_for() {
    if constexpr (fits_inline<T>()) {
      static constexpr VTable vt = {
          &typeid(T), true,
          std::is_trivially_copyable_v<T>,
          [](void* p) { static_cast<T*>(p)->~T(); },
          [](void* dst, const void* src) {
            ::new (dst) T(*static_cast<const T*>(src));
          },
          [](void* dst, void* src) {
            T* s = static_cast<T*>(src);
            ::new (dst) T(std::move(*s));
            s->~T();
          }};
      return &vt;
    } else {
      static constexpr VTable vt = {
          &typeid(T), false, false,
          [](void* obj) { delete static_cast<T*>(obj); },
          [](void* dst, const void* src) {
            ::new (dst) (T*)(new T(*static_cast<const T*>(src)));
          },
          [](void* dst, void* src) {
            ::new (dst) (T*)(*static_cast<T**>(src));
          }};
      return &vt;
    }
  }

  template <class T, class... Args>
  void emplace(Args&&... args) {
    if constexpr (fits_inline<T>()) {
      ::new (static_cast<void*>(buf_)) T(std::forward<Args>(args)...);
    } else {
      ::new (static_cast<void*>(buf_)) (T*)(new T(std::forward<Args>(args)...));
    }
    vt_ = vtable_for<T>();
  }

  /// Address of the stored object (dereferences the heap pointer when the
  /// value lives out-of-line).
  void* slot() {
    return vt_ != nullptr && !vt_->inline_storage
               ? static_cast<void*>(*reinterpret_cast<void**>(buf_))
               : static_cast<void*>(buf_);
  }
  const void* slot() const { return const_cast<Payload*>(this)->slot(); }

  void copy_from(const Payload& o) {
    if (o.vt_ == nullptr) return;
    if (o.vt_->trivial) {
      std::memcpy(buf_, o.buf_, kInlineBytes);
    } else {
      o.vt_->copy(buf_, o.slot());
    }
    vt_ = o.vt_;
  }

  void move_from(Payload& o) noexcept {
    if (o.vt_ == nullptr) return;
    if (o.vt_->trivial) {
      std::memcpy(buf_, o.buf_, kInlineBytes);
    } else {
      o.vt_->relocate(buf_, o.buf_);
    }
    vt_ = o.vt_;
    o.vt_ = nullptr;
  }

  alignas(kAlign) unsigned char buf_[kInlineBytes];
  const VTable* vt_ = nullptr;
};

}  // namespace ioc::ev

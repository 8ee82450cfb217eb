/**
 * @file
 * InplaceFunction: a move-only callable wrapper with fixed inline
 * storage — the zero-allocation replacement for std::function on the
 * simulator hot path (DESIGN.md, "Memory management").
 *
 * std::function heap-allocates whenever a closure outgrows its small
 * internal buffer (typically 16 bytes), which turns every scheduled
 * simulator event into a malloc/free pair. InplaceFunction instead
 * embeds the closure in the object itself and refuses to compile when
 * a capture does not fit: the failure mode is a static_assert at the
 * call site, never a silent fallback to the heap. Oversized captures
 * are a design smell on the hot path — move the state into a member
 * of the scheduling object and capture `this`.
 */

#ifndef PROTEUS_COMMON_ALLOC_INPLACE_FUNCTION_H_
#define PROTEUS_COMMON_ALLOC_INPLACE_FUNCTION_H_

#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace proteus {
namespace alloc {

/** Default inline closure capacity in bytes. Sized for the largest
 *  hot-path closure (worker batch completion, fault events) with a
 *  little headroom; raise deliberately, not reflexively. */
inline constexpr std::size_t kInplaceFunctionCapacity = 64;

/**
 * Move-only `void()` callable with @p Capacity bytes of inline
 * storage. Never allocates: construction placement-news the callable
 * into the inline buffer, moves relocate it (a plain memcpy for
 * trivially-copyable closures), destruction destroys it in place.
 */
template <std::size_t Capacity = kInplaceFunctionCapacity>
class InplaceFunction
{
  public:
    InplaceFunction() = default;

    /** Wrap @p fn (must fit in Capacity bytes — enforced at compile
     *  time; see the file comment for the intended fix when it does
     *  not). */
    template <typename F,
              typename = std::enable_if_t<!std::is_same_v<
                  std::decay_t<F>, InplaceFunction>>>
    InplaceFunction(F&& fn)  // NOLINT: implicit by design, like std::function
    {
        construct(std::forward<F>(fn));
    }

    InplaceFunction(InplaceFunction&& other) noexcept { moveFrom(other); }

    InplaceFunction&
    operator=(InplaceFunction&& other) noexcept
    {
        if (this != &other) {
            reset();
            moveFrom(other);
        }
        return *this;
    }

    InplaceFunction(const InplaceFunction&) = delete;
    InplaceFunction& operator=(const InplaceFunction&) = delete;

    ~InplaceFunction() { reset(); }

    /** Destroy the held callable (if any); leaves *this empty. */
    void
    reset()
    {
        if (manage_)
            manage_(Op::Destroy, storage_, nullptr);
        manage_ = nullptr;
        invoke_ = nullptr;
    }

    /** Replace the held callable with @p fn, constructed directly in
     *  the inline buffer (no intermediate InplaceFunction to relocate
     *  from). */
    template <typename F>
    void
    emplace(F&& fn)
    {
        if constexpr (std::is_same_v<std::decay_t<F>, InplaceFunction>) {
            *this = std::forward<F>(fn);
        } else {
            reset();
            construct(std::forward<F>(fn));
        }
    }

    /** @return true when a callable is held. */
    explicit operator bool() const { return invoke_ != nullptr; }

    /** Invoke the held callable (precondition: non-empty). */
    void
    operator()()
    {
        invoke_(storage_);
    }

  private:
    enum class Op { MoveTo, Destroy };
    using Invoke = void (*)(void*);
    using Manage = void (*)(Op, void*, void*);

    template <typename F>
    void
    construct(F&& fn)
    {
        using Fn = std::decay_t<F>;
        static_assert(sizeof(Fn) <= Capacity,
                      "closure too large for InplaceFunction: move "
                      "captured state into a member and capture `this`");
        static_assert(alignof(Fn) <= alignof(std::max_align_t),
                      "over-aligned closure not supported");
        ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(fn));
        invoke_ = [](void* s) { (*static_cast<Fn*>(s))(); };
        // A trivially-copyable closure (pointers and ids captured by
        // value — nearly every simulator event) needs no destructor
        // and relocates by memcpy, so it carries no manage_ hook.
        if constexpr (std::is_trivially_copyable_v<Fn>) {
            manage_ = nullptr;
        } else {
            manage_ = [](Op op, void* self, void* dest) {
                Fn* fn_self = static_cast<Fn*>(self);
                if (op == Op::MoveTo)
                    ::new (dest) Fn(std::move(*fn_self));
                fn_self->~Fn();
            };
        }
    }

    void
    moveFrom(InplaceFunction& other) noexcept
    {
        if (!other.invoke_)
            return;
        if (other.manage_)
            other.manage_(Op::MoveTo, other.storage_, storage_);
        else
            std::memcpy(storage_, other.storage_, Capacity);
        invoke_ = other.invoke_;
        manage_ = other.manage_;
        other.invoke_ = nullptr;
        other.manage_ = nullptr;
    }

    alignas(std::max_align_t) unsigned char storage_[Capacity];
    Invoke invoke_ = nullptr;
    Manage manage_ = nullptr;
};

}  // namespace alloc
}  // namespace proteus

#endif  // PROTEUS_COMMON_ALLOC_INPLACE_FUNCTION_H_

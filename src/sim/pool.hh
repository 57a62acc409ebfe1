/**
 * @file
 * Allocation pools for the simulation hot path.
 *
 * Profiling the sweep engine (see DESIGN.md §4.11) shows ~560 heap
 * allocations per sweep point, dominated by coroutine frames and the
 * per-operation records of the transport — at ~60 us per point the
 * allocator IS the hot path.  Two pools remove almost all of it:
 *
 *  - FramePool: a thread-local size-class freelist that Task's
 *    promise types allocate coroutine frames from.  Frames are
 *    created and destroyed at an enormous rate but only a handful of
 *    distinct sizes exist, so a freelist turns every frame
 *    allocation after warm-up into a pointer pop.
 *
 *  - Pool<T>: an object pool for one type, used by the transport for
 *    its send and receive operation records.  Like the simulator
 *    itself it is single-threaded, and it keeps its live objects
 *    linked, so whatever a failed or deadlocked run leaves live dies
 *    with the pool (the machine's msg::Fabric owns the pools).
 *
 * Under AddressSanitizer, free slots are poisoned while parked on a
 * freelist and unpoisoned on reuse, so use-after-release bugs in
 * pooled objects are still caught.
 */

#ifndef CCSIM_SIM_POOL_HH
#define CCSIM_SIM_POOL_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <new>
#include <utility>

#if defined(__SANITIZE_ADDRESS__)
#define CCSIM_POOL_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define CCSIM_POOL_ASAN 1
#endif
#endif

#ifdef CCSIM_POOL_ASAN
#include <sanitizer/asan_interface.h>
#endif

namespace ccsim::sim {

/** Poison a parked freelist region under ASan (no-op otherwise). */
inline void
poolPoison(void *p, std::size_t n)
{
#ifdef CCSIM_POOL_ASAN
    __asan_poison_memory_region(p, n);
#else
    (void)p;
    (void)n;
#endif
}

/** Re-arm a recycled region for use under ASan (no-op otherwise). */
inline void
poolUnpoison(void *p, std::size_t n)
{
#ifdef CCSIM_POOL_ASAN
    __asan_unpoison_memory_region(p, n);
#else
    (void)p;
    (void)n;
#endif
}

/** Allocation counters of a pool (monotonic over its lifetime). */
struct PoolCounters
{
    std::uint64_t reuses = 0;   //!< served from the freelist
    std::uint64_t allocs = 0;   //!< fell through to the heap
    std::uint64_t oversize = 0; //!< larger than any size class
    /** Block bytes handed out: the size class of a pooled block, the
     *  request of an oversize one. */
    std::uint64_t bytes = 0;
    /** Block bytes handed out and not yet released (FramePool only). */
    std::uint64_t live_bytes = 0;
    /** High-water mark of live_bytes since the pool began or its
     *  mark was last restarted (FramePool only). */
    std::uint64_t peak_bytes = 0;

    PoolCounters &
    operator+=(const PoolCounters &o)
    {
        reuses += o.reuses;
        allocs += o.allocs;
        oversize += o.oversize;
        bytes += o.bytes;
        return *this;
    }
};

/**
 * Thread-local size-class freelist for coroutine frames.
 *
 * Sizes are rounded up to kGranule-byte classes; blocks above the
 * largest class (or over-aligned frames, which never reach a promise
 * operator new without an align_val_t overload) go straight to the
 * global heap.  Every released block is parked, with no per-class
 * bound: ranks run collectives in lockstep, so a stage can finish
 * (and re-enter) thousands of same-sized frames at once, and a bound
 * narrower than that wave sends the surplus through malloc on every
 * stage.  A class's footprint is therefore its peak occupancy; the
 * blocks go back to the heap when the owning thread exits.
 */
class FramePool
{
  public:
    static constexpr std::size_t kGranule = 16;
    static constexpr std::size_t kClasses = 160; //!< up to 2560 bytes

    FramePool() = default;
    FramePool(const FramePool &) = delete;
    FramePool &operator=(const FramePool &) = delete;

    ~FramePool()
    {
        for (std::size_t c = 0; c < kClasses; ++c) {
            Node *n = free_[c];
            while (n) {
                poolUnpoison(n, bytesFor(c));
                Node *next = n->next;
                ::operator delete(n);
                n = next;
            }
        }
    }

    void *
    allocate(std::size_t n)
    {
        std::size_t c = classFor(n);
        if (c >= kClasses) {
            ++counters_.oversize;
            hand(n);
            return ::operator new(n);
        }
        hand(bytesFor(c));
        if (Node *head = free_[c]) {
            free_[c] = head->next;
            ++counters_.reuses;
            poolUnpoison(reinterpret_cast<char *>(head) + sizeof(Node),
                         bytesFor(c) - sizeof(Node));
            return head;
        }
        ++counters_.allocs;
        return ::operator new(bytesFor(c));
    }

    void
    release(void *p, std::size_t n) noexcept
    {
        std::size_t c = classFor(n);
        if (c >= kClasses) {
            counters_.live_bytes -= n;
            ::operator delete(p);
            return;
        }
        counters_.live_bytes -= bytesFor(c);
        Node *node = static_cast<Node *>(p);
        node->next = free_[c];
        free_[c] = node;
        // The link word stays readable; everything past it is armed.
        poolPoison(static_cast<char *>(p) + sizeof(Node),
                   bytesFor(c) - sizeof(Node));
    }

    const PoolCounters &counters() const { return counters_; }

    /** Restart the high-water mark at the bytes live now. */
    void restartPeak() { counters_.peak_bytes = counters_.live_bytes; }

  private:
    struct Node
    {
        Node *next;
    };

    /** Count @p n block bytes handed out. */
    void
    hand(std::size_t n)
    {
        counters_.bytes += n;
        counters_.live_bytes += n;
        counters_.peak_bytes =
            std::max(counters_.peak_bytes, counters_.live_bytes);
    }

    static std::size_t classFor(std::size_t n)
    {
        return n == 0 ? 0 : (n - 1) / kGranule;
    }

    static std::size_t bytesFor(std::size_t c)
    {
        return (c + 1) * kGranule;
    }

    Node *free_[kClasses] = {};
    PoolCounters counters_;
};

/** The calling thread's coroutine-frame pool. */
inline FramePool &
framePool() noexcept
{
    thread_local FramePool pool;
    return pool;
}

/**
 * Standard-allocator shim over the thread-local FramePool, for the
 * small hot-path vectors (event buckets, trigger waiter spill,
 * transport match queues).  All instances compare equal; memory
 * must be released on the thread that will reuse it (true for the
 * simulator, which is single-threaded per Machine).
 */
template <typename T>
struct PoolAlloc
{
    using value_type = T;

    PoolAlloc() noexcept = default;

    template <typename U>
    PoolAlloc(const PoolAlloc<U> &) noexcept
    {
    }

    T *
    allocate(std::size_t n)
    {
        return static_cast<T *>(framePool().allocate(n * sizeof(T)));
    }

    void
    deallocate(T *p, std::size_t n) noexcept
    {
        framePool().release(p, n * sizeof(T));
    }

    template <typename U>
    bool
    operator==(const PoolAlloc<U> &) const noexcept
    {
        return true;
    }
};

/**
 * Object pool for one type.  make() constructs a T in a recycled (or
 * fresh) slot and recycle() destroys it and parks the slot.
 * Single-threaded.
 *
 * The pool links its live objects, so its destructor destroys the
 * ones still live: the operations a failed or deadlocked run left in
 * flight, which nothing else can reach once the run is abandoned.
 * A live object's destructor must therefore not reach into another
 * object of a pool.
 *
 * Slot memory comes from the thread's FramePool rather than the
 * global heap: pools are short-lived (two per Machine, one Machine
 * per sweep point), so without the shared backing every fresh
 * Machine would re-pay one heap allocation per operation in flight.
 * Through the FramePool the slots a destroyed Machine parks are the
 * ones the next Machine's pools pick up.
 */
template <typename T>
class Pool
{
  public:
    Pool() = default;
    Pool(const Pool &) = delete;
    Pool &operator=(const Pool &) = delete;

    ~Pool()
    {
        while (live_)
            recycle(obj(live_));
        while (Slot *s = free_) {
            free_ = s->next;
            poolUnpoison(s->storage, sizeof(T));
            framePool().release(s, sizeof(Slot));
        }
    }

    /** Construct a T in a recycled (or fresh) slot. */
    template <typename... A>
    T *
    make(A &&...args)
    {
        static_assert(alignof(Slot) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__,
                      "Slot must not be over-aligned: the FramePool "
                      "hands out default-aligned blocks");
        Slot *s = free_;
        if (s) {
            free_ = s->next;
            poolUnpoison(s->storage, sizeof(T));
            ++reuses_;
        } else {
            s = static_cast<Slot *>(framePool().allocate(sizeof(Slot)));
            ++allocs_;
        }
        T *t = ::new (static_cast<void *>(s->storage))
            T(std::forward<A>(args)...);
        s->prev = nullptr;
        s->next = live_;
        if (live_)
            live_->prev = s;
        live_ = s;
        return t;
    }

    /** Destroy @p t, made by this pool, and park its slot. */
    void
    recycle(T *t) noexcept
    {
        Slot *s = reinterpret_cast<Slot *>(
            reinterpret_cast<unsigned char *>(t) - offsetof(Slot, storage));
        (s->prev ? s->prev->next : live_) = s->next;
        if (s->next)
            s->next->prev = s->prev;
        t->~T();
        s->next = free_;
        free_ = s;
        poolPoison(s->storage, sizeof(T)); // the links stay readable
    }

    /** Slots handed out, and their bytes (every slot is one size). */
    PoolCounters
    counters() const
    {
        PoolCounters c;
        c.reuses = reuses_;
        c.allocs = allocs_;
        c.bytes = (reuses_ + allocs_) * sizeof(Slot);
        return c;
    }

  private:
    struct Slot
    {
        Slot *prev; //!< live list; unused while parked
        Slot *next; //!< live list, or freelist while parked
        alignas(T) unsigned char storage[sizeof(T)];
    };

    static T *
    obj(Slot *s)
    {
        return std::launder(reinterpret_cast<T *>(s->storage));
    }

    Slot *live_ = nullptr;
    Slot *free_ = nullptr;
    std::uint64_t reuses_ = 0;
    std::uint64_t allocs_ = 0;
};

} // namespace ccsim::sim

#endif // CCSIM_SIM_POOL_HH

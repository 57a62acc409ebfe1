/**
 * @file
 * The discrete-event queue at the heart of the simulator.
 *
 * Events are (time, callback) pairs kept in a radix heap over
 * picosecond time: the monotone priority queue of Ahuja, Mehlhorn,
 * Orlin and Tarjan (1990).  It is exact here because simulated time
 * is monotone.  Scheduling before the last fired time panics, so that
 * time, the *base*, bounds every pending event from below.  Bucket 0
 * holds the events at the base itself, and bucket b >= 1 those whose
 * time first differs from the base at bit b - 1; 64 buckets cover
 * every non-negative Time.  Scheduling appends to the event's bucket.
 * When bucket 0 runs dry, the earliest time in the lowest non-empty
 * bucket becomes the new base, and that bucket's entries move, in
 * order, to lower buckets.  An entry moves at most once per bit, and
 * a burst at one instant (a lockstep stage of ranks) moves in one
 * refill.
 *
 * Ordering contract (pinned by the byte-identity determinism
 * suites): runNext() fires pending events in ascending time order,
 * and the events of one instant in the order they were scheduled, so
 * runs are bit-reproducible.  The radix layout keeps that order by
 * construction, with no sequence number and no sort:
 *
 *  - A bucket's index depends only on the event's time and the base,
 *    and buckets are only appended to, so between refills the
 *    entries of one time share a bucket in schedule order.
 *  - A refill sets the base to the earliest time in the lowest
 *    non-empty bucket b.  That time agrees with the old base on every
 *    bit from b up, so every entry in a bucket above b keeps its
 *    bucket index.  Only bucket b's entries move, front to back.
 *
 * Hence all entries of one time sit in one bucket, in schedule order,
 * and bucket 0, which holds one time only, fires front to back.
 *
 * An entry is 24 bytes and trivially copyable: (when, fire, arg).
 * Most events resume a parked coroutine, and those entries hold the
 * coroutine handle itself.  Any other callback is a sim::SmallFn held
 * in a slot that the queue recycles through its own freelist, so
 * scheduling one costs no allocation after warm-up, and refills and
 * pops move plain words instead of relocating callables.  Slots and
 * bucket storage come from the thread-local frame pool only on a
 * miss; buckets keep their storage across refills.
 */

#ifndef CCSIM_SIM_EVENT_QUEUE_HH
#define CCSIM_SIM_EVENT_QUEUE_HH

#include <array>
#include <bit>
#include <coroutine>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "sim/pool.hh"
#include "sim/small_fn.hh"
#include "util/units.hh"

namespace ccsim::sim {

/** Stable-ordered time-sorted event queue (radix heap). */
class EventQueue
{
  public:
    using Callback = SmallFn;

    EventQueue();

    /** Destroys the callbacks of events still pending. */
    ~EventQueue();

    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /**
     * Enqueue a callback to fire at absolute time @p when.  Scheduling
     * in the past (before the last popped event's time) is a bug in
     * the caller and panics.
     */
    void schedule(Time when, Callback cb);

    /**
     * Enqueue the resumption of the parked coroutine @p h at absolute
     * time @p when.  The entry holds the handle itself: no callback
     * slot.  Scheduling in the past panics, as for schedule().
     */
    void resumeAt(Time when, std::coroutine_handle<> h);

    /**
     * Enqueue the resumption of @p h at the last fired time — the
     * parked-coroutine wake path.  Equivalent to
     * resumeAt(lastFired(), h) but skips the cannot-be-in-the-past
     * check by construction.
     */
    void resumeNow(std::coroutine_handle<> h);

    /** True when no events remain. */
    bool empty() const { return size_ == 0; }

    /** Number of pending events. */
    std::size_t size() const { return size_; }

    /** Time of the earliest pending event; queue must be non-empty. */
    Time nextTime() const;

    /**
     * Pop and run the earliest event.  Returns the time it fired at.
     * Queue must be non-empty.
     */
    Time runNext();

    /** Time of the most recently fired event (0 before any fire). */
    Time lastFired() const { return last_fired_; }

    /** Total events executed over the queue's lifetime. */
    std::uint64_t fired() const { return fired_; }

    /** Largest number of simultaneously pending events ever seen. */
    std::size_t maxDepth() const { return max_depth_; }

  private:
    /** What an entry runs: resume() for a coroutine handle (arg is
     *  its address), runSlot() for a held callback (arg is its
     *  Slot). */
    using Fire = void (*)(EventQueue &, void *);

    struct Entry
    {
        Time when;
        Fire fire;
        void *arg;
    };
    static_assert(std::is_trivially_copyable_v<Entry> &&
                      sizeof(Entry) <= 24,
                  "an event entry is three plain words");

    /** A scheduled callback's storage.  While parked on the freelist
     *  the link word is the active member. */
    union Slot
    {
        Slot() : next(nullptr) {}
        ~Slot() {}

        Slot *next;
        Callback fn;
    };

    /** Bucket storage draws from the thread-local frame pool. */
    using Bucket = std::vector<Entry, PoolAlloc<Entry>>;

    /** Bucket 0 and one per bit of a non-negative Time. */
    static constexpr int kBuckets = 64;

    /** Bucket of @p when against base @p base (when >= base >= 0):
     *  0 for the base itself, else one past the highest bit in which
     *  the two differ. */
    static int
    bucketOf(Time when, Time base)
    {
        return std::bit_width(static_cast<std::uint64_t>(when ^ base));
    }

    void insert(Entry e);
    void refill();

    static void resume(EventQueue &q, void *addr);
    static void runSlot(EventQueue &q, void *slot);
    /** Destroy @p s's callback and park the slot on the freelist. */
    void releaseSlot(Slot *s) noexcept;

    std::array<Bucket, kBuckets> buckets_;
    std::uint64_t occupied_ = 0; //!< bit b: buckets_[b] holds pending
    std::size_t head_ = 0;       //!< fired prefix of buckets_[0]
    std::size_t size_ = 0;
    Slot *free_slots_ = nullptr; //!< recycled callback slots

    std::uint64_t fired_ = 0;
    std::size_t max_depth_ = 0;
    Time last_fired_ = 0; //!< also the radix base
};

} // namespace ccsim::sim

#endif // CCSIM_SIM_EVENT_QUEUE_HH

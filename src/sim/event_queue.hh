/**
 * @file
 * The discrete-event queue at the heart of the simulator.
 *
 * Events are (time, sequence, callback) triples kept in a calendar
 * queue: a window of fixed-width time buckets walked by a cursor,
 * with a spillover list for events beyond the window.  Scheduling
 * appends to a bucket unsorted in O(1); a bucket is sorted lazily,
 * once, when the cursor reaches it.  The sequence number makes
 * ordering *stable*: two events scheduled for the same simulated
 * instant fire in the order they were scheduled, which keeps runs
 * bit-reproducible regardless of queue internals.  (The previous
 * implementation was a binary heap; profiling showed sift-up/down
 * entry shuffling near the top of the sweep profile, and the
 * calendar layout turns the common schedule patterns — "resume at
 * now" and "deliver a short delay ahead" — into plain appends.)
 *
 * Ordering contract (pinned by the byte-identity determinism
 * suites): runNext() fires pending events in ascending (time, seq)
 * order, where seq is assignment order.  Scheduling before the last
 * fired time panics, so simulated time is monotone; the calendar
 * exploits that by never revisiting a bucket it has walked past
 * within a window.
 *
 * An entry is 32 bytes and trivially copyable: (time, seq, fire,
 * arg).  Most events resume a parked coroutine, and those entries
 * hold the coroutine handle itself.  Any other callback is a
 * sim::SmallFn held in a slot that the queue recycles through its
 * own freelist, so scheduling one costs no allocation after warm-up,
 * and sorting, bucket growth and pops move plain words instead of
 * relocating callables.  Slots and bucket storage come from the
 * thread-local frame pool only on a miss.
 */

#ifndef CCSIM_SIM_EVENT_QUEUE_HH
#define CCSIM_SIM_EVENT_QUEUE_HH

#include <coroutine>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "sim/pool.hh"
#include "sim/small_fn.hh"
#include "util/units.hh"

namespace ccsim::sim {

/** Stable-ordered time-sorted event queue (calendar queue). */
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

    /**
     * Capacity hint: the caller expects up to @p events pending at
     * once.  Only effective while the queue is empty (the bucket
     * mapping cannot change mid-flight).
     */
    void reserve(std::size_t events);

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
        std::uint64_t seq;
        Fire fire;
        void *arg;
    };
    static_assert(std::is_trivially_copyable_v<Entry> &&
                      sizeof(Entry) <= 32,
                  "an event entry is four plain words");

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

    /** True when @p a fires strictly before @p b. */
    static bool
    earlier(const Entry &a, const Entry &b)
    {
        if (a.when != b.when)
            return a.when < b.when;
        return a.seq < b.seq;
    }

    /** Bucket index of @p when; entries before the window origin
     *  clamp to bucket 0 (they sort first inside it anyway). */
    std::size_t
    bucketOf(Time when) const
    {
        if (when <= origin_)
            return 0;
        return static_cast<std::size_t>((when - origin_) >> width_bits_);
    }

    void insert(Entry e);
    void insertSortedCur(Entry e);
    void ensureSortedCur();
    void settle();
    void advanceWindow();

    static void resume(EventQueue &q, void *addr);
    static void runSlot(EventQueue &q, void *slot);
    /** Destroy @p s's callback and park the slot on the freelist. */
    void releaseSlot(Slot *s) noexcept;

    std::vector<Bucket> buckets_;
    std::vector<unsigned char> sorted_; //!< per-bucket "is sorted" flag
    Bucket overflow_;                   //!< events beyond the window
    std::size_t nb_ = 0;                //!< bucket count (power of two)
    int width_bits_ = 18;               //!< log2 bucket width (ps)
    Time origin_ = 0;                   //!< window start time
    std::size_t cur_ = 0;               //!< cursor bucket
    std::size_t pos_ = 0;               //!< consumed prefix of cur_
    std::size_t size_ = 0;
    Slot *free_slots_ = nullptr;        //!< recycled callback slots

    std::uint64_t next_seq_ = 0;
    std::uint64_t fired_ = 0;
    std::size_t max_depth_ = 0;
    Time last_fired_ = 0;
};

} // namespace ccsim::sim

#endif // CCSIM_SIM_EVENT_QUEUE_HH

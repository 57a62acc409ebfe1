#include "sim/event_queue.hh"

#include <algorithm>
#include <new>
#include <utility>

#include "util/logging.hh"

namespace ccsim::sim {

namespace {

/** Smallest power of two >= @p n (n >= 1). */
std::size_t
pow2AtLeast(std::size_t n)
{
    std::size_t p = 1;
    while (p < n)
        p <<= 1;
    return p;
}

} // namespace

EventQueue::EventQueue()
{
    nb_ = 64;
    buckets_.resize(nb_);
    sorted_.assign(nb_, 1);
}

void
EventQueue::reserve(std::size_t events)
{
    if (size_ == 0 && events / 4 + 1 > nb_) {
        nb_ = std::min<std::size_t>(pow2AtLeast(events / 4 + 1), 1024);
        buckets_.resize(nb_);
        sorted_.assign(nb_, 1);
        cur_ = 0;
        pos_ = 0;
    }
    overflow_.reserve(events / 4);
}

EventQueue::~EventQueue()
{
    // Pending callbacks die with the queue; resumes hold no storage.
    // Only the cursor bucket has a consumed (already fired) prefix.
    auto drop = [this](const Entry &e) {
        if (e.fire == &runSlot)
            releaseSlot(static_cast<Slot *>(e.arg));
    };
    for (std::size_t b = 0; b < nb_; ++b) {
        const Bucket &bk = buckets_[b];
        for (std::size_t i = b == cur_ ? pos_ : 0; i < bk.size(); ++i)
            drop(bk[i]);
    }
    for (const Entry &e : overflow_)
        drop(e);
    while (Slot *s = free_slots_) {
        poolUnpoison(s, sizeof(Slot));
        free_slots_ = s->next;
        s->~Slot();
        framePool().release(s, sizeof(Slot));
    }
}

void
EventQueue::schedule(Time when, Callback cb)
{
    if (when < last_fired_)
        panic("EventQueue::schedule: time %lld before current time %lld",
              static_cast<long long>(when),
              static_cast<long long>(last_fired_));
    if (!cb)
        panic("EventQueue::schedule: empty callback");
    Slot *s = free_slots_;
    if (s) {
        poolUnpoison(s, sizeof(Slot));
        free_slots_ = s->next;
    } else {
        s = ::new (framePool().allocate(sizeof(Slot))) Slot;
    }
    ::new (static_cast<void *>(&s->fn)) Callback(std::move(cb));
    insert(Entry{when, next_seq_++, &runSlot, s});
}

void
EventQueue::resumeAt(Time when, std::coroutine_handle<> h)
{
    if (when < last_fired_)
        panic("EventQueue::resumeAt: time %lld before current time %lld",
              static_cast<long long>(when),
              static_cast<long long>(last_fired_));
    insert(Entry{when, next_seq_++, &resume, h.address()});
}

void
EventQueue::resumeNow(std::coroutine_handle<> h)
{
    insert(Entry{last_fired_, next_seq_++, &resume, h.address()});
}

void
EventQueue::resume(EventQueue &, void *addr)
{
    std::coroutine_handle<>::from_address(addr).resume();
}

void
EventQueue::runSlot(EventQueue &q, void *slot)
{
    // The slot goes back to the freelist however the callback ends,
    // also when it throws.
    struct Release
    {
        EventQueue &q;
        Slot *s;
        ~Release() { q.releaseSlot(s); }
    } release{q, static_cast<Slot *>(slot)};
    release.s->fn();
}

void
EventQueue::releaseSlot(Slot *s) noexcept
{
    s->fn.~Callback();
    s->next = free_slots_;
    free_slots_ = s;
    // The link word stays readable; everything past it is armed.
    poolPoison(reinterpret_cast<char *>(s) + sizeof(Slot *),
               sizeof(Slot) - sizeof(Slot *));
}

void
EventQueue::insert(Entry e)
{
    if (size_ == 0) {
        // Empty queue: re-anchor the window at this event, bucket 0.
        // All buckets are empty here (the last pop clears its bucket).
        origin_ = e.when;
        cur_ = 0;
        pos_ = 0;
        buckets_[0].push_back(e);
        sorted_[0] = 1;
    } else {
        std::size_t b = bucketOf(e.when);
        if (b >= nb_) {
            overflow_.push_back(e);
        } else if (b == cur_) {
            Bucket &bk = buckets_[cur_];
            if (pos_ == 0) {
                // Nothing consumed from this bucket yet: a plain
                // append suffices, sorting is deferred to first
                // access.  In-order arrivals keep the flag set so
                // the deferred sort is usually skipped entirely.
                if (sorted_[cur_] && !bk.empty() &&
                    earlier(e, bk.back()))
                    sorted_[cur_] = 0;
                bk.push_back(e);
            } else {
                // Mid-consumption the bucket is sorted past pos_;
                // keep it that way.
                insertSortedCur(e);
            }
        } else if (b > cur_) {
            Bucket &bk = buckets_[b];
            bk.push_back(e);
            if (bk.size() > 1)
                sorted_[b] = 0;
        } else {
            // Earlier than the cursor's bucket.  Possible only when
            // nothing has been consumed from the cursor bucket yet
            // (events fired from it would have advanced last_fired_
            // past this one), so pos_ is 0 and walking the cursor
            // back is safe: every bucket in [b, cur_) is empty.
            cur_ = b;
            pos_ = 0;
            buckets_[b].push_back(e);
            sorted_[b] = 1;
        }
    }
    ++size_;
    if (size_ > max_depth_)
        max_depth_ = size_;
}

void
EventQueue::insertSortedCur(Entry e)
{
    // The cursor bucket is always sorted past its consumed prefix;
    // keep it that way.  Same-instant entries carry the largest seq
    // so the common "resume at now" case appends at the tail.
    Bucket &bk = buckets_[cur_];
    auto it = std::upper_bound(
        bk.begin() + static_cast<std::ptrdiff_t>(pos_), bk.end(), e,
        [](const Entry &a, const Entry &b) { return earlier(a, b); });
    bk.insert(it, e);
}

Time
EventQueue::nextTime() const
{
    if (size_ == 0)
        panic("EventQueue::nextTime: queue is empty");
    // The cursor bucket holds the earliest pending entry but may not
    // have been sorted yet (that happens on first pop); peek without
    // mutating.
    const Bucket &bk = buckets_[cur_];
    if (sorted_[cur_])
        return bk[pos_].when;
    auto it = std::min_element(
        bk.begin(), bk.end(),
        [](const Entry &a, const Entry &b) { return earlier(a, b); });
    return it->when;
}

void
EventQueue::ensureSortedCur()
{
    if (sorted_[cur_])
        return;
    // An unsorted cursor bucket has no consumed prefix (consumption
    // sorts first), so the whole bucket is fair game.
    Bucket &bk = buckets_[cur_];
    std::sort(bk.begin(), bk.end(),
              [](const Entry &a, const Entry &b) { return earlier(a, b); });
    sorted_[cur_] = 1;
}

Time
EventQueue::runNext()
{
    if (size_ == 0)
        panic("EventQueue::runNext: queue is empty");
    ensureSortedCur();
    // Copy the earliest entry out and restore the cursor invariant
    // *before* firing it — callbacks routinely schedule new events.
    const Entry e = buckets_[cur_][pos_];
    ++pos_;
    --size_;
    last_fired_ = e.when;
    ++fired_;
    if (size_ == 0) {
        buckets_[cur_].clear();
        sorted_[cur_] = 1;
        pos_ = 0;
    } else {
        settle();
    }
    e.fire(*this, e.arg);
    return e.when;
}

void
EventQueue::settle()
{
    // Post-condition (size_ > 0): buckets_[cur_] holds the earliest
    // pending entries (sorting is deferred to first access).
    for (;;) {
        Bucket &bk = buckets_[cur_];
        if (pos_ < bk.size())
            return;
        bk.clear();
        sorted_[cur_] = 1;
        pos_ = 0;
        if (++cur_ == nb_)
            advanceWindow();
    }
}

void
EventQueue::advanceWindow()
{
    origin_ += static_cast<Time>(nb_) << width_bits_;
    cur_ = 0;
    if (overflow_.empty())
        return;

    // All in-window buckets are empty here, so the window can be
    // re-anchored and re-scaled freely.  Jump the origin straight to
    // the earliest spillover event — overflow times are never below
    // the advanced origin, and later schedules before a jumped
    // origin clamp to bucket 0, which sorts first — and, when the
    // spillover population is dense enough to sample, re-fit the
    // bucket width so the whole span lands inside one window.
    // Without the re-fit a long-horizon machine (SP2's ~100 us
    // software rounds against the default ~17 us window) would pay a
    // full overflow scan per window step instead of ingesting each
    // event exactly once.
    Time min_when = overflow_[0].when;
    Time max_when = min_when;
    for (const Entry &e : overflow_) {
        min_when = std::min(min_when, e.when);
        max_when = std::max(max_when, e.when);
    }
    origin_ = min_when;
    if (overflow_.size() >= 64) {
        Time span = max_when - min_when;
        Time per = span / static_cast<Time>(nb_ / 2) + 1;
        int bits = 4;
        while ((Time(1) << bits) < per && bits < 44)
            ++bits;
        width_bits_ = bits;
    }

    std::size_t keep = 0;
    for (Entry &e : overflow_) {
        std::size_t b = bucketOf(e.when);
        if (b < nb_) {
            Bucket &bk = buckets_[b];
            bk.push_back(e);
            if (bk.size() > 1)
                sorted_[b] = 0;
        } else {
            overflow_[keep++] = e;
        }
    }
    overflow_.resize(keep);
}

} // namespace ccsim::sim

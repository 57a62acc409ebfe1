#include "sim/event_queue.hh"

#include <algorithm>
#include <new>
#include <utility>

#include "util/logging.hh"

namespace ccsim::sim {

EventQueue::EventQueue()
{
    // A few entries of room per bucket, kept for the queue's life, so
    // the first events of each bucket cost no frame-pool block.
    for (Bucket &b : buckets_)
        b.reserve(4);
}

EventQueue::~EventQueue()
{
    // Pending callbacks die with the queue; resumes hold no storage.
    // Only bucket 0 has a fired prefix.
    for (std::size_t b = 0; b < buckets_.size(); ++b) {
        const Bucket &bk = buckets_[b];
        for (std::size_t i = b == 0 ? head_ : 0; i < bk.size(); ++i)
            if (bk[i].fire == &runSlot)
                releaseSlot(static_cast<Slot *>(bk[i].arg));
    }
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
    insert(Entry{when, &runSlot, s});
}

void
EventQueue::resumeAt(Time when, std::coroutine_handle<> h)
{
    if (when < last_fired_)
        panic("EventQueue::resumeAt: time %lld before current time %lld",
              static_cast<long long>(when),
              static_cast<long long>(last_fired_));
    insert(Entry{when, &resume, h.address()});
}

void
EventQueue::resumeNow(std::coroutine_handle<> h)
{
    insert(Entry{last_fired_, &resume, h.address()});
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
    const int b = bucketOf(e.when, last_fired_);
    buckets_[static_cast<std::size_t>(b)].push_back(e);
    occupied_ |= std::uint64_t(1) << b;
    if (++size_ > max_depth_)
        max_depth_ = size_;
}

Time
EventQueue::nextTime() const
{
    if (size_ == 0)
        panic("EventQueue::nextTime: queue is empty");
    if (occupied_ & 1)
        return last_fired_;
    const Bucket &bk = buckets_[static_cast<std::size_t>(
        std::countr_zero(occupied_))];
    return std::min_element(bk.begin(), bk.end(),
                            [](const Entry &a, const Entry &b) {
                                return a.when < b.when;
                            })
        ->when;
}

void
EventQueue::refill()
{
    // Bucket 0 is empty and some entry is pending.  The new base is
    // the earliest time in the lowest non-empty bucket; the entries
    // there move, front to back, to the buckets below it.
    const int b = std::countr_zero(occupied_);
    Bucket &from = buckets_[static_cast<std::size_t>(b)];
    Time base = from.front().when;
    for (const Entry &e : from)
        base = std::min(base, e.when);
    for (const Entry &e : from) {
        const int to = bucketOf(e.when, base);
        buckets_[static_cast<std::size_t>(to)].push_back(e);
        occupied_ |= std::uint64_t(1) << to;
    }
    from.clear();
    occupied_ &= ~(std::uint64_t(1) << b);
}

Time
EventQueue::runNext()
{
    if (size_ == 0)
        panic("EventQueue::runNext: queue is empty");
    if (!(occupied_ & 1))
        refill();
    // Take the earliest entry off bucket 0 *before* firing it —
    // callbacks routinely schedule new events, at this instant too.
    Bucket &now = buckets_[0];
    const Entry e = now[head_];
    if (++head_ == now.size()) {
        now.clear();
        head_ = 0;
        occupied_ &= ~std::uint64_t(1);
    }
    --size_;
    last_fired_ = e.when;
    ++fired_;
    e.fire(*this, e.arg);
    return e.when;
}

} // namespace ccsim::sim

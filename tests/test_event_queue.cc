/** @file Unit tests for the discrete-event queue. */

#include <algorithm>
#include <coroutine>
#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "sim/event_queue.hh"
#include "sim/pool.hh"
#include "sim/task.hh"
#include "util/logging.hh"

namespace ccsim::sim {
namespace {

using namespace time_literals;

TEST(EventQueue, StartsEmpty)
{
    EventQueue q;
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.size(), 0u);
    EXPECT_EQ(q.fired(), 0u);
    EXPECT_EQ(q.lastFired(), 0);
}

TEST(EventQueue, FiresInTimeOrder)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(30, [&] { order.push_back(3); });
    q.schedule(10, [&] { order.push_back(1); });
    q.schedule(20, [&] { order.push_back(2); });
    while (!q.empty())
        q.runNext();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, StableForEqualTimes)
{
    EventQueue q;
    std::vector<int> order;
    for (int i = 0; i < 10; ++i)
        q.schedule(5 * US, [&order, i] { order.push_back(i); });
    while (!q.empty())
        q.runNext();
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(EventQueue, RunNextReturnsFireTime)
{
    EventQueue q;
    q.schedule(7 * NS, [] {});
    EXPECT_EQ(q.nextTime(), 7 * NS);
    EXPECT_EQ(q.runNext(), 7 * NS);
    EXPECT_EQ(q.lastFired(), 7 * NS);
    EXPECT_EQ(q.fired(), 1u);
}

TEST(EventQueue, EventsMayScheduleMoreEvents)
{
    EventQueue q;
    std::vector<Time> fire_times;
    q.schedule(10, [&] {
        fire_times.push_back(q.lastFired());
        q.schedule(25, [&] { fire_times.push_back(q.lastFired()); });
    });
    while (!q.empty())
        q.runNext();
    EXPECT_EQ(fire_times, (std::vector<Time>{10, 25}));
}

TEST(EventQueue, SchedulingAtCurrentTimeAllowed)
{
    EventQueue q;
    int fired = 0;
    q.schedule(10, [&] {
        q.schedule(10, [&] { ++fired; }); // same instant
    });
    while (!q.empty())
        q.runNext();
    EXPECT_EQ(fired, 1);
}

TEST(EventQueue, SchedulingInPastPanics)
{
    throwOnError(true);
    EventQueue q;
    q.schedule(100, [] {});
    q.runNext();
    EXPECT_THROW(q.schedule(50, [] {}), PanicError);
    throwOnError(false);
}

TEST(EventQueue, EmptyCallbackPanics)
{
    throwOnError(true);
    EventQueue q;
    EXPECT_THROW(q.schedule(1, EventQueue::Callback()), PanicError);
    throwOnError(false);
}

TEST(EventQueue, PopOnEmptyPanics)
{
    throwOnError(true);
    EventQueue q;
    EXPECT_THROW(q.runNext(), PanicError);
    EXPECT_THROW(q.nextTime(), PanicError);
    throwOnError(false);
}

TEST(EventQueue, ManyEventsAllFire)
{
    EventQueue q;
    int count = 0;
    for (int i = 0; i < 10000; ++i)
        q.schedule(i % 97, [&] { ++count; });
    while (!q.empty())
        q.runNext();
    EXPECT_EQ(count, 10000);
    EXPECT_EQ(q.fired(), 10000u);
}

TEST(EventQueue, MoveOnlyCallbacksAreAccepted)
{
    // std::function required copyable callables; SmallFn does not.
    EventQueue q;
    auto payload = std::make_unique<int>(42);
    int seen = 0;
    q.schedule(1, [p = std::move(payload), &seen] { seen = *p; });
    q.runNext();
    EXPECT_EQ(seen, 42);
}

TEST(EventQueue, CallbacksFiringDuringRunNextKeepOrder)
{
    // A callback scheduling new events mid-pop must not disturb the
    // stable time/sequence order.
    EventQueue q;
    std::vector<int> order;
    q.schedule(10, [&] {
        order.push_back(1);
        q.schedule(10, [&] { order.push_back(3); });
        q.schedule(20, [&] { order.push_back(4); });
    });
    q.schedule(10, [&] { order.push_back(2); });
    while (!q.empty())
        q.runNext();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
}

TEST(EventQueue, ReanchoredWindowAcceptsEarlierFutureEvents)
{
    // A far event sits in a high bucket, but the base moves only when
    // an event fires.  A schedule that lands *between* the current
    // time and the far event must still fire first.
    EventQueue q;
    std::vector<Time> fired;
    const Time far = Time(1) << 40;
    q.schedule(100, [&] { fired.push_back(100); });
    q.schedule(far, [&] { fired.push_back(far); });
    q.runNext(); // fires 100; `far` is the only entry left
    q.schedule(200, [&] { fired.push_back(200); });
    while (!q.empty())
        q.runNext();
    EXPECT_EQ(fired, (std::vector<Time>{100, 200, far}));
}

TEST(EventQueue, WideTimeSpreadRollsOverInOrder)
{
    // 128 events about 2^33 ps apart, scheduled in reverse time order,
    // share the high buckets: each refill must split its bucket in
    // time order, however the entries arrived.
    EventQueue q;
    std::vector<Time> expect;
    Time t = 1000;
    for (int i = 0; i < 128; ++i) {
        expect.push_back(t);
        t += (Time(1) << 33) + i * 7919;
    }
    std::vector<Time> fired;
    for (int i = 127; i >= 0; --i) {
        Time when = expect[static_cast<std::size_t>(i)];
        q.schedule(when, [&fired, when] { fired.push_back(when); });
    }
    while (!q.empty())
        q.runNext();
    EXPECT_EQ(fired, expect);
}

TEST(EventQueue, StableAcrossBucketRollover)
{
    // Same-instant events far ahead of the current time start in a
    // high bucket and move down through refills; they must keep
    // insertion order.
    EventQueue q;
    std::vector<int> order;
    const Time far = (Time(1) << 30) + 17;
    q.schedule(1, [] {});
    for (int i = 0; i < 8; ++i)
        q.schedule(far, [&order, i] { order.push_back(i); });
    while (!q.empty())
        q.runNext();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
}

/** Deterministic xorshift64 stream for the reference loads. */
struct XorShift
{
    std::uint64_t s = 0x9e3779b97f4a7c15ull;

    std::uint64_t
    operator()()
    {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        return s;
    }
};

/**
 * The order contract as a reference: a load notes every event in
 * schedule order, and the queue must fire them in the stable sort of
 * that order by time.
 */
class ReferenceOrder
{
  public:
    /** Note an event about to be scheduled at @p when; returns its
     *  id, which the event reports through fire() when it runs. */
    int
    note(Time when)
    {
        const int id = static_cast<int>(scheduled_.size());
        scheduled_.emplace_back(when, id);
        return id;
    }

    void fire(int id) { fired_.push_back(id); }

    /** Fire order is a stable sort of schedule order by time. */
    void
    check() const
    {
        ASSERT_EQ(fired_.size(), scheduled_.size());
        std::vector<std::pair<Time, int>> expect = scheduled_;
        std::stable_sort(expect.begin(), expect.end(),
                         [](const auto &a, const auto &b) {
                             return a.first < b.first;
                         });
        for (std::size_t i = 0; i < expect.size(); ++i)
            ASSERT_EQ(fired_[i], expect[i].second) << "at position " << i;
    }

  private:
    std::vector<std::pair<Time, int>> scheduled_; //!< (when, id)
    std::vector<int> fired_;
};

TEST(EventQueue, MatchesReferenceOrderUnderRandomLoad)
{
    // 2,000 times below 10^5 ps; a third of the callbacks schedule a
    // follow-up up to 5,000 ps later.
    EventQueue q;
    XorShift next;
    ReferenceOrder ref;
    std::function<void(Time)> add = [&](Time when) {
        const int my = ref.note(when);
        q.schedule(when, [&, my, when] {
            ref.fire(my);
            if (next() % 3 == 0)
                add(when + static_cast<Time>(next() % 5000));
        });
    };
    for (int i = 0; i < 2000; ++i)
        add(static_cast<Time>(next() % 100000));
    while (!q.empty())
        q.runNext();
    ref.check();
}

TEST(EventQueue, MatchesReferenceOrderUnderLockstepBursts)
{
    // Lockstep stages: two bursts of 4,096 events, each at one
    // instant, the way a dissemination round releases its ranks.
    // Every event reschedules itself for five generations, at +0 (the
    // instant it is draining) or at one of a few fixed delays, so
    // bursts split and merge again at shared instants.
    constexpr int kBurst = 4096;
    constexpr int kGenerations = 5;
    static constexpr Time kDelays[] = {0, 1 * US, 1 * US, 3 * US + 7,
                                       40 * NS};
    EventQueue q;
    ReferenceOrder ref;
    std::function<void(Time, int, int)> add = [&](Time when, int rank,
                                                  int gen) {
        const int my = ref.note(when);
        q.schedule(when, [&, my, when, rank, gen] {
            ref.fire(my);
            if (gen < kGenerations)
                add(when + kDelays[(rank + gen) % 5], rank, gen + 1);
        });
    };
    for (const Time start : {1 * NS, 2 * US + 1 * NS})
        for (int r = 0; r < kBurst; ++r)
            add(start, r, 0);
    while (!q.empty())
        q.runNext();
    ref.check();
}

TEST(EventQueue, MatchesReferenceOrderUnderWideDelays)
{
    // Delays of every magnitude up to 2^40 ps from a base just below
    // 2^61, so entries fill the high buckets and move down through
    // many refills.  One delay in four is an exact power of two:
    // equal times then meet far ahead as well as near.
    const Time base = (Time(1) << 61) - 12345;
    EventQueue q;
    XorShift next;
    ReferenceOrder ref;
    auto delay = [&next]() -> Time {
        const std::uint64_t r = next();
        const int bits = static_cast<int>(r % 41);
        if ((r >> 6) % 4 == 0)
            return Time(1) << bits;
        return static_cast<Time>((r >> 8) &
                                 ((std::uint64_t(1) << bits) - 1));
    };
    std::function<void(Time)> add = [&](Time when) {
        const int my = ref.note(when);
        q.schedule(when, [&, my, when] {
            ref.fire(my);
            if (next() % 3 == 0)
                add(when + delay());
        });
    };
    for (int i = 0; i < 2000; ++i)
        add(base + delay());
    while (!q.empty())
        q.runNext();
    ref.check();
}

/** Parks the awaiting coroutine until @p when: through resumeNow at
 *  the current instant, else through resumeAt. */
struct WakeAt
{
    EventQueue &q;
    Time when;

    bool await_ready() const noexcept { return false; }

    void
    await_suspend(std::coroutine_handle<> h) const
    {
        if (when == q.lastFired())
            q.resumeNow(h);
        else
            q.resumeAt(when, h);
    }

    void await_resume() const noexcept {}
};

TEST(EventQueue, MatchesReferenceOrderWithCoroutineResumes)
{
    // Ranks parked through resumeAt and resumeNow, the way they wait
    // on the wire and on each other, interleaved with callbacks at
    // the same instants.
    constexpr int kRanks = 256;
    constexpr int kSteps = 12;
    static constexpr Time kDelays[] = {0, 0, 5 * NS, 1 * US, 1 * US,
                                       2 * US + 3};
    EventQueue q;
    XorShift next;
    ReferenceOrder ref;
    auto pick = [&next] { return kDelays[next() % 6]; };
    auto rank = [&](int started) -> Task<void> {
        ref.fire(started);
        for (int s = 0; s < kSteps; ++s) {
            if (next() % 2 == 0) {
                const Time at = q.lastFired() + pick();
                const int cb = ref.note(at);
                q.schedule(at, [&ref, cb] { ref.fire(cb); });
            }
            const Time when = q.lastFired() + pick();
            const int my = ref.note(when);
            co_await WakeAt{q, when};
            ref.fire(my);
        }
    };
    std::vector<Task<void>> ranks;
    for (int r = 0; r < kRanks; ++r) {
        const Time start = static_cast<Time>(r % 4) * US;
        ranks.push_back(rank(ref.note(start)));
        q.resumeAt(start, ranks.back().handle());
    }
    while (!q.empty())
        q.runNext();
    ref.check();
}

TEST(EventQueue, ResumesAndCallbacksAtOneInstantFireInScheduleOrder)
{
    // A resume holds only its handle and a callback holds a slot, but
    // both take their place in the one order: by time, then schedule.
    EventQueue q;
    std::vector<int> order;
    auto record = [&order](int id) -> Task<void> {
        order.push_back(id);
        co_return;
    };
    Task<void> first = record(1);
    Task<void> second = record(3);
    Task<void> woken = record(5);
    q.schedule(5, [&] { order.push_back(0); });
    q.resumeAt(5, first.handle());
    q.schedule(5, [&] {
        order.push_back(2);
        q.resumeNow(woken.handle());
        q.schedule(5, [&] { order.push_back(6); });
    });
    q.resumeAt(5, second.handle());
    q.schedule(5, [&] { order.push_back(4); });
    while (!q.empty())
        q.runNext();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6}));
}

TEST(EventQueue, WideWaveGivesItsStorageBack)
{
    // A lockstep stage of 16,384 ranks makes one instant 16,384
    // events wide, twice over.  The wave lands in a high bucket, moves
    // to bucket 0 in one refill, and fires from there; each bucket
    // gives its storage back as the wave leaves it, so once a wave has
    // fired no bucket keeps more than kKeptEntries entries of it.
    constexpr int kWave = 16384;
    EventQueue q;
    int fired = 0;
    auto count = [](EventQueue &, void *arg) { ++*static_cast<int *>(arg); };
    for (int wave = 1; wave <= 2; ++wave) {
        for (int i = 0; i < kWave; ++i)
            q.callAt(wave * US, count, &fired);
        EXPECT_GE(q.storageEntries(), static_cast<std::size_t>(kWave));
        while (!q.empty())
            q.runNext();
        EXPECT_EQ(fired, wave * kWave);
        EXPECT_LE(q.storageEntries(), EventQueue::kKeptEntries);
    }
}

TEST(EventQueue, PendingCallbacksAreDestroyedWithTheQueue)
{
    auto token = std::make_shared<int>(0);
    {
        EventQueue q;
        q.schedule(10, [token] {});
        q.schedule(20, [token] {});
        q.schedule(1000 * MS, [token] {}); // in a high bucket
        EXPECT_EQ(token.use_count(), 4);
        q.runNext();
        EXPECT_EQ(token.use_count(), 3);
    }
    EXPECT_EQ(token.use_count(), 1);
}

TEST(EventQueue, AThrowingCallbackReleasesItsSlot)
{
    throwOnError(true);
    EventQueue q;
    auto token = std::make_shared<int>(0);
    q.schedule(1, [token] { panic("callback failure"); });
    EXPECT_THROW(q.runNext(), PanicError);
    EXPECT_EQ(token.use_count(), 1);

    // The next callback reuses the released slot: no frame-pool block.
    auto poolOps = [] {
        const PoolCounters &c = framePool().counters();
        return c.reuses + c.allocs + c.oversize;
    };
    const std::uint64_t before = poolOps();
    int fired = 0;
    q.schedule(2, [&fired] { ++fired; });
    EXPECT_EQ(poolOps(), before);
    q.runNext();
    EXPECT_EQ(fired, 1);
    throwOnError(false);
}

TEST(SmallFn, SmallCapturesAreStoredInline)
{
    int x = 0;
    SmallFn f([&x] { ++x; });
    EXPECT_TRUE(f.inlined());
    f();
    EXPECT_EQ(x, 1);
}

TEST(SmallFn, OversizedCapturesFallBackToHeapAndStillRun)
{
    struct Big
    {
        char bytes[2 * SmallFn::kInlineBytes] = {};
    };
    int calls = 0;
    SmallFn f([big = Big{}, &calls] {
        (void)big;
        ++calls;
    });
    EXPECT_FALSE(f.inlined());
    f();
    f();
    EXPECT_EQ(calls, 2);
}

TEST(SmallFn, MoveTransfersTheCallable)
{
    int x = 0;
    SmallFn a([&x] { ++x; });
    SmallFn b(std::move(a));
    EXPECT_FALSE(static_cast<bool>(a));
    EXPECT_TRUE(static_cast<bool>(b));
    b();
    EXPECT_EQ(x, 1);

    SmallFn c;
    c = std::move(b);
    c();
    EXPECT_EQ(x, 2);
}

TEST(SmallFn, DestroysHeldCallableExactlyOnce)
{
    struct Probe
    {
        int *live;
        explicit Probe(int *l) : live(l) { ++*live; }
        Probe(Probe &&o) noexcept : live(o.live) { ++*live; }
        Probe(const Probe &o) : live(o.live) { ++*live; }
        ~Probe() { --*live; }
        void operator()() const {}
    };
    int live = 0;
    {
        SmallFn f{Probe(&live)};
        EXPECT_GE(live, 1);
        SmallFn g(std::move(f));
        EXPECT_GE(live, 1);
    }
    EXPECT_EQ(live, 0);
}

} // namespace
} // namespace ccsim::sim

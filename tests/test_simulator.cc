/** @file Unit tests for the Simulator event loop and awaitables. */

#include <coroutine>
#include <memory>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "sim/simulator.hh"
#include "util/logging.hh"

namespace ccsim::sim {
namespace {

using namespace time_literals;

TEST(Simulator, TimeStartsAtZero)
{
    Simulator s;
    EXPECT_EQ(s.now(), 0);
}

TEST(Simulator, DelayAdvancesTime)
{
    Simulator s;
    Time seen = -1;
    auto prog = [&]() -> Task<void> {
        co_await s.delay(5 * US);
        seen = s.now();
    };
    s.spawn(prog());
    s.run();
    EXPECT_EQ(seen, 5 * US);
}

TEST(Simulator, SequentialDelaysAccumulate)
{
    Simulator s;
    std::vector<Time> stamps;
    auto prog = [&]() -> Task<void> {
        co_await s.delay(1 * US);
        stamps.push_back(s.now());
        co_await s.delay(2 * US);
        stamps.push_back(s.now());
        co_await s.delay(0);
        stamps.push_back(s.now());
    };
    s.spawn(prog());
    s.run();
    EXPECT_EQ(stamps, (std::vector<Time>{1 * US, 3 * US, 3 * US}));
}

TEST(Simulator, ZeroDelayDoesNotSuspend)
{
    Simulator s;
    bool done_before_run = false;
    auto prog = [&]() -> Task<void> {
        co_await s.delay(0);
        done_before_run = true;
    };
    s.spawn(prog());
    // spawn runs until the first real block; a zero delay is not one.
    EXPECT_TRUE(done_before_run);
    s.run();
}

TEST(Simulator, ParallelTasksInterleaveByTime)
{
    Simulator s;
    std::vector<int> order;
    auto prog = [&](int id, Time d) -> Task<void> {
        co_await s.delay(d);
        order.push_back(id);
    };
    s.spawn(prog(1, 30 * NS));
    s.spawn(prog(2, 10 * NS));
    s.spawn(prog(3, 20 * NS));
    s.run();
    EXPECT_EQ(order, (std::vector<int>{2, 3, 1}));
}

TEST(Simulator, ManyTasksAllComplete)
{
    Simulator s;
    int done = 0;
    auto prog = [&](int i) -> Task<void> {
        co_await s.delay(i * NS);
        co_await s.delay((128 - i) * NS);
        ++done;
    };
    for (int i = 0; i < 128; ++i)
        s.spawn(prog(i));
    s.run();
    EXPECT_EQ(done, 128);
    EXPECT_EQ(s.pendingTasks(), 0u);
}

TEST(Simulator, NegativeDelayPanics)
{
    throwOnError(true);
    Simulator s;
    auto prog = [&]() -> Task<void> {
        co_await s.delay(-1);
    };
    // The panic is raised inside the coroutine, captured by its
    // promise, and surfaces from run().
    s.spawn(prog());
    EXPECT_THROW(s.run(), PanicError);
    throwOnError(false);
}

TEST(Simulator, TriggerReleasesAllWaiters)
{
    Simulator s;
    Trigger t(s);
    int released = 0;
    auto waiter = [&]() -> Task<void> {
        co_await t.wait();
        ++released;
    };
    auto firer = [&]() -> Task<void> {
        co_await s.delay(10 * US);
        t.fire();
    };
    s.spawn(waiter());
    s.spawn(waiter());
    s.spawn(waiter());
    s.spawn(firer());
    s.run();
    EXPECT_EQ(released, 3);
    EXPECT_TRUE(t.fired());
}

TEST(Simulator, AwaitingFiredTriggerIsImmediate)
{
    Simulator s;
    Trigger t(s);
    t.fire();
    Time when = -1;
    auto prog = [&]() -> Task<void> {
        co_await s.delay(3 * US);
        co_await t.wait(); // already fired: no extra time
        when = s.now();
    };
    s.spawn(prog());
    s.run();
    EXPECT_EQ(when, 3 * US);
}

TEST(Simulator, TriggerFireIsIdempotent)
{
    Simulator s;
    Trigger t(s);
    t.fire();
    t.fire();
    EXPECT_TRUE(t.fired());
    s.run();
}

TEST(Simulator, DeadlockDetected)
{
    throwOnError(true);
    Simulator s;
    Trigger never(s);
    auto prog = [&]() -> Task<void> {
        co_await never.wait();
    };
    auto finisher = [&]() -> Task<void> {
        co_await s.delay(1 * US);
    };
    s.spawn(prog());
    s.spawn(finisher());
    s.spawn(prog());
    EXPECT_THROW(s.run(), PanicError);
    // Only the two stranded roots count; the finished one is gone.
    EXPECT_EQ(s.pendingTasks(), 2u);
    throwOnError(false);
}

TEST(Simulator, FinishedRootIsFreedDuringTheRun)
{
    Simulator s;
    auto sentinel = std::make_shared<int>(0);
    auto holder = [&](std::shared_ptr<int> keep) -> Task<void> {
        co_await s.delay(1 * US);
        (void)keep;
    };
    long uses = 0;
    std::size_t pending = 0;
    auto observer = [&]() -> Task<void> {
        co_await s.delay(2 * US);
        uses = sentinel.use_count();
        pending = s.pendingTasks();
    };
    s.spawn(holder(sentinel));
    s.spawn(observer());
    s.run();
    // The holder's frame, and the parameter copy in it, went when the
    // holder finished at 1 us, not when run() returned.
    EXPECT_EQ(uses, 1);
    EXPECT_EQ(pending, 1u);
}

TEST(Simulator, EarliestSpawnedFailureIsRethrown)
{
    Simulator s;
    auto fail = [&](Time at, const char *what) -> Task<void> {
        co_await s.delay(at);
        throw std::runtime_error(what);
    };
    s.spawn(fail(5 * US, "A"));
    s.spawn(fail(1 * US, "B")); // fails first, but was spawned second
    for (int attempt = 0; attempt < 2; ++attempt) {
        try {
            s.run();
            ADD_FAILURE() << "run() did not rethrow";
        } catch (const std::runtime_error &e) {
            // The failure stays recorded: a second run() rethrows it.
            EXPECT_STREQ(e.what(), "A") << "attempt " << attempt;
        }
    }
}

TEST(Simulator, AValueTaskCanBeARoot)
{
    auto payload = std::make_shared<int>(7);
    auto value = [&payload](Simulator &s,
                            bool fail) -> Task<std::shared_ptr<int>> {
        co_await s.delay(1 * US);
        if (fail)
            throw std::runtime_error("value root failed");
        co_return payload;
    };
    {
        // Runs to completion; the value is dropped with the frame.
        Simulator s;
        s.spawn(value(s, false));
        s.run();
        EXPECT_EQ(s.pendingTasks(), 0u);
        EXPECT_EQ(s.tasksSpawned(), 1u);
        EXPECT_EQ(payload.use_count(), 1);
    }
    {
        // A throwing value root's exception surfaces from run().
        Simulator s;
        s.spawn(value(s, true));
        try {
            s.run();
            ADD_FAILURE() << "run() did not rethrow";
        } catch (const std::runtime_error &e) {
            EXPECT_STREQ(e.what(), "value root failed");
        }
    }
    {
        // An unfinished value root is freed with the simulator.
        auto held = std::make_shared<int>(0);
        {
            Simulator s;
            auto stuck = [&s](std::shared_ptr<int> keep) -> Task<int> {
                co_await std::suspend_always{}; // never resumed
                co_return *keep;
            };
            s.spawn(stuck(held));
            EXPECT_EQ(held.use_count(), 2);
        }
        EXPECT_EQ(held.use_count(), 1);
    }
}

TEST(Simulator, EventLimitGuards)
{
    throwOnError(true);
    Simulator s;
    s.setEventLimit(100);
    auto prog = [&]() -> Task<void> {
        for (;;)
            co_await s.delay(1 * NS);
    };
    s.spawn(prog());
    EXPECT_THROW(s.run(), PanicError);
    throwOnError(false);
}

TEST(Simulator, RunTwiceWithFreshSpawns)
{
    Simulator s;
    int count = 0;
    auto prog = [&]() -> Task<void> {
        co_await s.delay(1 * US);
        ++count;
    };
    s.spawn(prog());
    s.run();
    s.spawn(prog());
    s.run();
    EXPECT_EQ(count, 2);
}

} // namespace
} // namespace ccsim::sim

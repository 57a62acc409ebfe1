/**
 * @file
 * The Simulator: event loop, coroutine spawning, and the blocking
 * primitives rank programs co_await.
 *
 * Usage:
 * @code
 *     sim::Simulator s;
 *     s.spawn(myProgram(s));
 *     s.run();                     // drains the event queue
 * @endcode
 *
 * Spawned tasks run until they block; "blocking" means parking the
 * coroutine handle and scheduling its resumption from an event.  A
 * spawned task's frame is freed the moment it finishes; the simulator
 * tracks only the unfinished ones.  If the queue drains while spawned
 * tasks are still incomplete, the run is deadlocked (e.g. a receive
 * nobody will ever match) and run() panics.
 */

#ifndef CCSIM_SIM_SIMULATOR_HH
#define CCSIM_SIM_SIMULATOR_HH

#include <coroutine>
#include <cstdint>
#include <exception>
#include <utility>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/task.hh"
#include "util/logging.hh"
#include "util/units.hh"

namespace ccsim::sim {

class Simulator;

/** Awaitable that resumes the caller after a fixed simulated delay. */
class DelayAwaiter
{
  public:
    DelayAwaiter(Simulator &sim, Time d) : sim_(sim), delay_(d) {}

    bool await_ready() const noexcept { return delay_ == 0; }
    void await_suspend(std::coroutine_handle<> h) const;
    void await_resume() const noexcept {}

  private:
    Simulator &sim_;
    Time delay_;
};

/**
 * Awaitable built from a callable that receives the suspended
 * coroutine handle; the callable is responsible for arranging the
 * handle's eventual resumption (via Simulator::resumeAt /
 * resumeNow).  This is the hook the messaging layer uses to park a
 * receiver until a matching message arrives.
 */
template <typename F>
class SuspendWith
{
  public:
    explicit SuspendWith(F f) : f_(std::move(f)) {}

    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) { f_(h); }
    void await_resume() const noexcept {}

  private:
    F f_;
};

template <typename F>
SuspendWith<F>
suspendWith(F f)
{
    return SuspendWith<F>(std::move(f));
}

/**
 * One-shot broadcast trigger.  Coroutines co_await wait(); fire()
 * releases all current and future waiters (awaiting a fired trigger
 * completes immediately).  Used for request completion, rendezvous
 * handshakes and the active-message collectives' per-rank releases.
 */
class Trigger
{
  public:
    explicit Trigger(Simulator &sim) : sim_(sim) {}

    Trigger(const Trigger &) = delete;
    Trigger &operator=(const Trigger &) = delete;

    /** True once fire() has been called. */
    bool fired() const { return fired_; }

    /** Release all waiters (resumed via the event queue at now). */
    void fire();

    class Awaiter
    {
      public:
        explicit Awaiter(Trigger &t) : trigger_(t) {}

        bool await_ready() const noexcept { return trigger_.fired_; }
        void await_suspend(std::coroutine_handle<> h);
        void await_resume() const noexcept {}

      private:
        Trigger &trigger_;
    };

    /** Awaitable that completes when (or immediately after) fire(). */
    Awaiter wait() { return Awaiter(*this); }

  private:
    friend class Awaiter;

    Simulator &sim_;
    bool fired_ = false;
    /** Inline slot for the overwhelmingly common single waiter
     *  (request completion, rendezvous CTS/DATA); only several
     *  coroutines awaiting one trigger spill into the vector, whose
     *  storage is pooled.  The hardware barrier parks its ranks
     *  itself and does not fan out through a Trigger. */
    std::coroutine_handle<> first_ = nullptr;
    std::vector<std::coroutine_handle<>,
                PoolAlloc<std::coroutine_handle<>>>
        spill_;
};

/** Event loop + task lifetime management. */
class Simulator
{
  public:
    Simulator() = default;

    /** Frees the frames of tasks a failed or deadlocked run left
     *  unfinished. */
    ~Simulator();

    Simulator(const Simulator &) = delete;
    Simulator &operator=(const Simulator &) = delete;

    /** Current simulated time. */
    Time now() const { return queue_.lastFired(); }

    /** The underlying event queue. */
    EventQueue &queue() { return queue_; }

    /** Schedule a callback at absolute time @p when. */
    void
    scheduleAt(Time when, EventQueue::Callback cb)
    {
        queue_.schedule(when, std::move(cb));
    }

    /** Resume a parked coroutine at absolute time @p when.  The
     *  event holds only the handle. */
    void
    resumeAt(Time when, std::coroutine_handle<> h)
    {
        queue_.resumeAt(when, h);
    }

    /** Resume a parked coroutine at the current time (via the queue,
     *  so ordering against other now-events stays stable).  Uses the
     *  queue's append-at-now fast path rather than re-deriving now()
     *  and re-checking it against itself. */
    void
    resumeNow(std::coroutine_handle<> h)
    {
        queue_.resumeNow(h);
    }

    /** Awaitable: suspend the caller for @p d simulated time. */
    DelayAwaiter delay(Time d) { return DelayAwaiter(*this, d); }

    /**
     * Root a task into the simulator.  The task starts running at the
     * current time (it executes until its first block immediately).
     * The simulator takes over the frame and frees it as soon as the
     * task finishes; a value the task returns is dropped with it.
     */
    template <typename T>
    void
    spawn(Task<T> task)
    {
        if (!task.valid())
            panic("Simulator::spawn: empty task");
        auto handle = std::exchange(task.handle_, nullptr);
        start(handle, handle.promise());
    }

    /**
     * Run until the event queue drains.  Rethrows the exception that
     * escaped the earliest-spawned failed task (it stays recorded, so
     * a later run() rethrows it again); otherwise panics on deadlock
     * (tasks still pending with an empty queue).
     */
    void run();

    /** Number of spawned tasks that have not yet completed. */
    std::size_t pendingTasks() const { return live_.size(); }

    /** Total events executed. */
    std::uint64_t eventsFired() const { return queue_.fired(); }

    /** Total tasks ever spawned (completed ones included). */
    std::uint64_t tasksSpawned() const { return tasks_spawned_; }

    /**
     * Safety valve: panic if a single run() executes more than this
     * many events (runaway-loop guard).  Zero disables the check.
     */
    void setEventLimit(std::uint64_t limit) { event_limit_ = limit; }

  private:
    friend void detail::finishRoot(detail::PromiseBase &root) noexcept;

    /** An unfinished root: its type-erased handle (to destroy it),
     *  its promise (to move its slot on a swap-remove) and its spawn
     *  index. */
    struct Live
    {
        std::coroutine_handle<> handle;
        detail::PromiseBase *promise;
        std::uint64_t index;
    };

    /** List @p promise's root @p handle as unfinished and run it to
     *  its first suspension. */
    void start(std::coroutine_handle<> handle,
               detail::PromiseBase &promise);

    EventQueue queue_;
    /** Unfinished roots in no particular order: a finished root's
     *  entry is swapped with the last one and popped. */
    std::vector<Live> live_;
    /** Exception of the earliest-spawned failed root, and its spawn
     *  index. */
    std::exception_ptr failure_;
    std::uint64_t failure_index_ = 0;
    std::uint64_t event_limit_ = 0;
    std::uint64_t tasks_spawned_ = 0;
};

} // namespace ccsim::sim

#endif // CCSIM_SIM_SIMULATOR_HH

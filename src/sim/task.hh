/**
 * @file
 * Task<T>: the lazy coroutine type all simulated programs are written
 * in.
 *
 * A Task is created suspended; awaiting it starts the child via
 * symmetric transfer, and when the child finishes its final awaiter
 * transfers control straight back to the awaiting parent.  Exceptions
 * thrown inside a task are captured and rethrown from the parent's
 * co_await.  Tasks are move-only and own their coroutine frame until
 * Simulator::spawn takes it over.  Any Task<T> can be a root: it has
 * no parent, and its final awaiter hands any exception to the
 * simulator and frees the frame, and with it any value the root
 * returned, the moment the root finishes.
 *
 * Rank programs block by co_awaiting primitives (delays, message
 * arrivals, barrier releases) that park the coroutine handle and
 * resume it from a scheduled simulator event, so "time passes" for a
 * program exactly when the event queue says it does.
 */

#ifndef CCSIM_SIM_TASK_HH
#define CCSIM_SIM_TASK_HH

#include <coroutine>
#include <cstddef>
#include <exception>
#include <optional>
#include <utility>

#include "sim/pool.hh"
#include "util/logging.hh"

namespace ccsim::sim {

class Simulator;

namespace detail {

struct PromiseBase;

/** Report a finished root to its simulator: keep its exception if it
 *  is the earliest-spawned failure, and drop the root from the
 *  unfinished list (defined in simulator.cc). */
void finishRoot(PromiseBase &root) noexcept;

/** State shared by Task promises independent of the result type. */
struct PromiseBase
{
    /**
     * Coroutine frames come from the thread-local FramePool: rank
     * programs create and destroy frames at the highest rate of
     * anything in the simulator, and only a handful of distinct
     * frame sizes exist, so a size-class freelist turns frame churn
     * into pointer pops.  Only the sized delete is defined — the
     * coroutine machinery prefers it when both are visible, and the
     * pool needs the size to find the class.
     */
    static void *
    operator new(std::size_t n)
    {
        return framePool().allocate(n);
    }

    static void
    operator delete(void *p, std::size_t n) noexcept
    {
        framePool().release(p, n);
    }

    std::coroutine_handle<> continuation;
    std::exception_ptr exception;
    /** Set by Simulator::spawn on a root: the simulator tracking it,
     *  and the root's index in that simulator's unfinished list. */
    Simulator *sim = nullptr;
    std::size_t slot = 0;

    struct FinalAwaiter
    {
        PromiseBase &promise;

        /** A finished root does not suspend: once the simulator has
         *  its result, control runs off the end and the frame (with
         *  the parameters it still holds) is freed. */
        bool
        await_ready() const noexcept
        {
            if (!promise.sim)
                return false;
            finishRoot(promise);
            return true;
        }

        std::coroutine_handle<>
        await_suspend(std::coroutine_handle<>) const noexcept
        {
            if (promise.continuation)
                return promise.continuation;
            return std::noop_coroutine();
        }

        void await_resume() const noexcept {}
    };

    std::suspend_always initial_suspend() const noexcept { return {}; }
    FinalAwaiter final_suspend() noexcept { return {*this}; }

    void unhandled_exception() { exception = std::current_exception(); }
};

/** The result half of a Task<T>'s promise: the value co_return
 *  hands over, moved out by the awaiting parent. */
template <typename T>
struct Result
{
    std::optional<T> value;

    template <typename U>
    void
    return_value(U &&v)
    {
        value.emplace(std::forward<U>(v));
    }

    T take() { return std::move(*value); }
};

/** A Task<void> hands over nothing. */
template <>
struct Result<void>
{
    void return_void() const noexcept {}
    void take() const noexcept {}
};

} // namespace detail

/**
 * A lazily-started coroutine returning a value of type T (or void).
 */
template <typename T>
class Task
{
  public:
    struct promise_type : detail::PromiseBase, detail::Result<T>
    {
        Task
        get_return_object()
        {
            return Task(
                std::coroutine_handle<promise_type>::from_promise(*this));
        }
    };

    Task() = default;

    Task(Task &&other) noexcept
        : handle_(std::exchange(other.handle_, nullptr))
    {
    }

    Task &
    operator=(Task &&other) noexcept
    {
        if (this != &other) {
            destroy();
            handle_ = std::exchange(other.handle_, nullptr);
        }
        return *this;
    }

    Task(const Task &) = delete;
    Task &operator=(const Task &) = delete;

    ~Task() { destroy(); }

    /** True when this Task owns a coroutine frame. */
    bool valid() const { return handle_ != nullptr; }

    /** True once the coroutine has run to completion. */
    bool done() const { return handle_ && handle_.done(); }

    struct Awaiter
    {
        std::coroutine_handle<promise_type> handle;

        bool await_ready() const noexcept { return false; }

        std::coroutine_handle<>
        await_suspend(std::coroutine_handle<> parent) const noexcept
        {
            handle.promise().continuation = parent;
            return handle; // start the child
        }

        T
        await_resume() const
        {
            promise_type &p = handle.promise();
            if (p.exception)
                std::rethrow_exception(p.exception);
            return p.take();
        }
    };

    Awaiter
    operator co_await() &&
    {
        if (!handle_)
            panic("co_await on an empty Task");
        return Awaiter{handle_};
    }

    /** Raw handle access for the spawning machinery. */
    std::coroutine_handle<promise_type> handle() const { return handle_; }

  private:
    friend class Simulator;

    explicit Task(std::coroutine_handle<promise_type> h) : handle_(h) {}

    void
    destroy()
    {
        if (handle_)
            std::exchange(handle_, nullptr).destroy();
    }

    std::coroutine_handle<promise_type> handle_ = nullptr;
};

} // namespace ccsim::sim

#endif // CCSIM_SIM_TASK_HH

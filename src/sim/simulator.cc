#include "sim/simulator.hh"

#include "util/logging.hh"

namespace ccsim::sim {

void
DelayAwaiter::await_suspend(std::coroutine_handle<> h) const
{
    if (delay_ < 0)
        panic("delay: negative duration %lld",
              static_cast<long long>(delay_));
    sim_.resumeAt(sim_.now() + delay_, h);
}

void
Trigger::fire()
{
    if (fired_)
        return;
    fired_ = true;
    if (first_.fn) {
        sim_.callNow(first_.fn, first_.arg);
        first_.fn = nullptr;
    }
    // Broadcast release, in wait order.
    for (const Waiter &w : spill_)
        sim_.callNow(w.fn, w.arg);
    spill_.clear();
}

void
Trigger::addWaiter(EventQueue::Fire fn, void *arg)
{
    if (fired_)
        panic("Trigger::addWaiter: the trigger has fired");
    if (!first_.fn && spill_.empty())
        first_ = Waiter{fn, arg};
    else
        spill_.push_back(Waiter{fn, arg});
}

void
Trigger::Awaiter::await_suspend(std::coroutine_handle<> h)
{
    trigger_.addWaiter(&EventQueue::resume, h.address());
}

Simulator::~Simulator()
{
    for (const Live &r : live_)
        r.handle.destroy();
}

void
Simulator::start(std::coroutine_handle<> handle,
                 detail::PromiseBase &promise)
{
    promise.sim = this;
    promise.slot = live_.size();
    live_.push_back(Live{handle, &promise, tasks_spawned_++});
    // Start the lazily-created coroutine; it runs until its first
    // blocking point.
    handle.resume();
}

void
detail::finishRoot(PromiseBase &root) noexcept
{
    Simulator &s = *root.sim;
    const std::uint64_t index = s.live_[root.slot].index;
    if (root.exception && (!s.failure_ || index < s.failure_index_)) {
        s.failure_ = std::move(root.exception);
        s.failure_index_ = index;
    }
    s.live_[root.slot] = s.live_.back();
    s.live_[root.slot].promise->slot = root.slot;
    s.live_.pop_back();
}

void
Simulator::run()
{
    while (!queue_.empty()) {
        queue_.runNext();
        if (event_limit_ && queue_.fired() > event_limit_)
            panic("Simulator::run: event limit %llu exceeded",
                  static_cast<unsigned long long>(event_limit_));
    }

    // Surface the first task failure before diagnosing deadlock: a
    // dead rank usually strands its peers, and the root cause is the
    // exception, not the resulting starvation.
    if (failure_)
        std::rethrow_exception(failure_);

    if (!live_.empty() || pending_ops_ != 0)
        panic("Simulator::run: deadlock, %zu task(s) and %zu "
              "operation(s) blocked with an empty event queue",
              live_.size(), pending_ops_);
}

} // namespace ccsim::sim

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
    if (first_) {
        sim_.resumeNow(first_);
        first_ = nullptr;
    }
    if (!spill_.empty()) {
        // Broadcast release: one batched reservation for the whole
        // fan-out instead of per-waiter queue growth.
        sim_.queue().scheduleBatchAt(
            sim_.now(), spill_.size(), [this](std::size_t i) {
                auto h = spill_[i];
                return EventQueue::Callback([h] { h.resume(); });
            });
        spill_.clear();
    }
}

void
Trigger::Awaiter::await_suspend(std::coroutine_handle<> h)
{
    if (!trigger_.first_ && trigger_.spill_.empty())
        trigger_.first_ = h;
    else
        trigger_.spill_.push_back(h);
}

Simulator::~Simulator()
{
    for (const Live &r : live_)
        r.handle.destroy();
}

void
Simulator::spawn(Task<void> task)
{
    if (!task.valid())
        panic("Simulator::spawn: empty task");
    auto handle = std::exchange(task.handle_, nullptr);
    handle.promise().sim = this;
    handle.promise().slot = live_.size();
    live_.push_back(Live{handle, tasks_spawned_++});
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
    s.live_[root.slot].handle.promise().slot = root.slot;
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

    if (!live_.empty())
        panic("Simulator::run: deadlock, %zu task(s) blocked with an "
              "empty event queue", live_.size());
}

} // namespace ccsim::sim

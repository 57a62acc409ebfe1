#include "machine/hw_barrier.hh"

#include "util/logging.hh"

namespace ccsim::machine {

HardwareBarrier::HardwareBarrier(sim::Simulator &sim, int ranks,
                                 Time latency)
    : sim_(sim), ranks_(ranks), latency_(latency)
{
    if (ranks < 1)
        fatal("HardwareBarrier: need at least one rank, got %d", ranks);
    if (latency < 0)
        fatal("HardwareBarrier: negative latency");
}

HardwareBarrier::Arrival
HardwareBarrier::arrive(int rank)
{
    if (rank < 0 || rank >= ranks_)
        panic("HardwareBarrier::arrive: rank %d out of range", rank);
    return Arrival(*this);
}

void
HardwareBarrier::park(std::coroutine_handle<> h)
{
    if (waiting_.size() == static_cast<std::size_t>(ranks_))
        panic("HardwareBarrier: arrival while an episode is releasing");
    waiting_.push_back(h);
    if (waiting_.size() < static_cast<std::size_t>(ranks_))
        return;
    ++completed_;
    sim_.scheduleAt(sim_.now() + latency_, [this] {
        for (std::coroutine_handle<> w : waiting_)
            sim_.resumeNow(w);
        waiting_.clear();
    });
}

} // namespace ccsim::machine

/**
 * @file
 * HardwareBarrier: the Cray T3D's dedicated barrier network.
 *
 * The T3D wires a physical AND-tree across the machine: each PE sets
 * a bit on arrival and every PE sees the tree output flip once all
 * have arrived.  The paper measures this at ~3 us regardless of
 * machine size (Table 3: 0.011 log p + 3), at least 30x faster than
 * the software barriers of the SP2/Paragon.
 *
 * The model: an arriving rank parks (an awaiter, no coroutine frame
 * of its own); when the last rank of an episode arrives, one event a
 * fixed latency later releases them all, in arrival order.  A rank
 * stays parked until its episode releases, so it cannot reach the
 * next episode early, and the barrier keeps no per-rank state.
 */

#ifndef CCSIM_MACHINE_HW_BARRIER_HH
#define CCSIM_MACHINE_HW_BARRIER_HH

#include <coroutine>
#include <cstdint>
#include <vector>

#include "sim/simulator.hh"
#include "util/units.hh"

namespace ccsim::machine {

/** Dedicated barrier-tree service shared by all ranks of a machine. */
class HardwareBarrier
{
  public:
    /**
     * @param sim     owning simulator
     * @param ranks   number of participating ranks
     * @param latency release delay once the last rank arrives
     */
    HardwareBarrier(sim::Simulator &sim, int ranks, Time latency);

    HardwareBarrier(const HardwareBarrier &) = delete;
    HardwareBarrier &operator=(const HardwareBarrier &) = delete;

    /** Awaitable arrival of one rank: parks it until its episode
     *  releases. */
    class Arrival
    {
      public:
        explicit Arrival(HardwareBarrier &b) : barrier_(b) {}

        bool await_ready() const noexcept { return false; }
        void await_suspend(std::coroutine_handle<> h) { barrier_.park(h); }
        void await_resume() const noexcept {}

      private:
        HardwareBarrier &barrier_;
    };

    /**
     * Rank @p rank arrives at the current barrier episode; the
     * co_await completes when every rank has arrived, plus the
     * hardware latency.
     */
    Arrival arrive(int rank);

    /** Completed barrier episodes. */
    std::uint64_t episodes() const { return completed_; }

  private:
    /** Park @p h; the last arrival schedules the episode's release. */
    void park(std::coroutine_handle<> h);

    sim::Simulator &sim_;
    int ranks_;
    Time latency_;
    /** The current episode's parked ranks, in arrival order. */
    std::vector<std::coroutine_handle<>> waiting_;
    std::uint64_t completed_ = 0;
};

} // namespace ccsim::machine

#endif // CCSIM_MACHINE_HW_BARRIER_HH

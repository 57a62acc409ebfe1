/**
 * @file
 * Frame budget of the hot path: how many operations on the thread's
 * FramePool (blocks handed out, from the freelist or the heap), and
 * how many bytes, the simulator spends per unit of simulated work,
 * and how many bytes per rank it holds at its peak.  Coroutine frames
 * dominate host time and memory at large p, so these bounds keep the
 * frameless awaiters (Transport::busy, Transport::wait, the send and
 * receive operations, HardwareBarrier::arrive), the by-reference
 * collective context, the fabric's recycled operation records and
 * the event queue's recycled callback slots from quietly growing
 * frames back.
 */

#include <cstdint>

#include <gtest/gtest.h>

#include "harness/measure.hh"
#include "machine/machine.hh"
#include "mpi/comm.hh"
#include "sim/pool.hh"

namespace ccsim::mpi {
namespace {

using machine::Machine;
using namespace time_literals;

/** FramePool blocks handed out on this thread so far. */
std::uint64_t
poolOps()
{
    const sim::PoolCounters &c = sim::framePool().counters();
    return c.reuses + c.allocs + c.oversize;
}

/** Charging the CPU suspends through an awaiter, not a frame. */
TEST(FrameBudget, BusyTakesNoFrame)
{
    constexpr int kIters = 1000;
    Machine m(machine::sp2Config(), 2);
    msg::Transport &tp = m.node(0);
    auto program = [&tp]() -> sim::Task<void> {
        for (int i = 0; i < kIters; ++i)
            co_await tp.busy(1 * US);
    };

    const std::uint64_t before = poolOps();
    m.sim().spawn(program());
    m.run();
    EXPECT_LT(poolOps() - before, 10u);
    EXPECT_EQ(m.sim().now(), kIters * US);
}

/** Frame-pool counters spent by one p = 64 SP2 dissemination
 *  barrier run, per message.  The ranks are spawned, and have reached
 *  their first suspension, before the count starts. */
struct BarrierCost
{
    double ops = 0;   //!< blocks handed out per message
    double bytes = 0; //!< block bytes handed out per message
};

BarrierCost
disseminationBarrierCost()
{
    constexpr int kP = 64;
    machine::MachineConfig cfg = machine::sp2Config();
    cfg.collect_metrics = true;
    Machine m(cfg, kP);
    auto rank = [&m](int r) -> sim::Task<void> {
        Comm comm(m, r);
        co_await comm.barrier(Algo::Dissemination);
    };
    for (int r = 0; r < kP; ++r)
        m.sim().spawn(rank(r));

    const std::uint64_t ops_before = poolOps();
    const std::uint64_t bytes_before = sim::framePool().counters().bytes;
    m.run();
    const std::uint64_t ops = poolOps() - ops_before;
    const std::uint64_t bytes =
        sim::framePool().counters().bytes - bytes_before;

    const std::uint64_t messages =
        m.metricsSnapshot().counters.at("net.messages");
    EXPECT_EQ(messages, static_cast<std::uint64_t>(kP) * 6);
    const auto n = static_cast<double>(messages);
    return {static_cast<double>(ops) / n, static_cast<double>(bytes) / n};
}

/**
 * Frame-pool operations per message of a dissemination barrier.
 * Each message is one sendrecv, a receive record and a send record
 * that the fabric's pools recycle from one round to the next, so only
 * the first round draws blocks; the rest is the event queue's and
 * match queues' occasional growth and its recycled callback slots.
 */
TEST(FrameBudget, DisseminationBarrierPerMessage)
{
    const double ops = disseminationBarrierCost().ops;
    EXPECT_LE(ops, 1.0) << ops << " frame-pool operations per message";
}

/**
 * Frame-pool bytes per message of the same barrier: the first
 * round's operation records, a 224-byte receive class and a 176-byte
 * send class per rank, plus the queues' growth.
 */
TEST(FrameBudget, SendrecvMessageBytes)
{
    const double bytes = disseminationBarrierCost().bytes;
    EXPECT_LE(bytes, 250.0) << bytes << " frame-pool bytes per message";
}

/**
 * Frame-pool operations per call per rank of a size-only binomial
 * bcast, issued through Comm::bcast and through the harness's
 * runCollectiveOnce, rank programs included.  Either way a call costs
 * two frames, Comm::call's and the algorithm's; its 63 messages cost
 * operation records, which the fabric's pools recycle across calls,
 * and the rest is the event queue's recycled callback slots.
 */
TEST(FrameBudget, CollectiveCallFrames)
{
    constexpr int kP = 64;
    constexpr int kCalls = 50;
    auto per_call = [](bool via_harness) {
        Machine m(machine::sp2Config(), kP);
        auto rank = [&m, via_harness](int r) -> sim::Task<void> {
            Comm comm(m, r);
            for (int i = 0; i < kCalls; ++i) {
                if (via_harness)
                    co_await harness::runCollectiveOnce(
                        comm, Coll::Bcast, 1 * KiB, Algo::Binomial);
                else
                    co_await comm.bcast(1 * KiB, 0, Algo::Binomial);
            }
        };
        const std::uint64_t before = poolOps();
        for (int r = 0; r < kP; ++r)
            m.sim().spawn(rank(r));
        m.run();
        return static_cast<double>(poolOps() - before) /
               static_cast<double>(kCalls * kP);
    };
    EXPECT_LE(per_call(false), 2.5) << "through Comm::bcast";
    EXPECT_LE(per_call(true), 2.5) << "through runCollectiveOnce";
}

/**
 * Frame-pool operations per nonblocking pair: an isend is a send
 * record and an irecv a receive record, recycled by the fabric's pools
 * from one pair to the next, and wait() is an awaiter.
 */
TEST(FrameBudget, IrecvPairFrames)
{
    constexpr int kPairs = 1000;
    Machine m(machine::sp2Config(), 2);
    msg::Transport &tx = m.node(0);
    msg::Transport &rx = m.node(1);
    auto sender = [&tx]() -> sim::Task<void> {
        for (int i = 0; i < kPairs; ++i)
            co_await tx.wait(tx.isend(1, 0, 0, 64));
    };
    auto receiver = [&rx]() -> sim::Task<void> {
        for (int i = 0; i < kPairs; ++i)
            co_await rx.wait(rx.irecv(0, 0, 0));
    };
    const std::uint64_t before = poolOps();
    m.sim().spawn(sender());
    m.sim().spawn(receiver());
    m.run();
    const double per_pair =
        static_cast<double>(poolOps() - before) / kPairs;
    EXPECT_LE(per_pair, 0.05)
        << per_pair << " frame-pool operations per pair";
}

/**
 * High-water frame-pool bytes per rank of an SP2 fat-tree
 * dissemination barrier at p = 4096, the lockstep shape of the
 * largest bench/perf scale_out point: each rank's program and
 * collective frames, the two operation records of its one sendrecv
 * in flight, and its share of the event queue's buckets, which give
 * a drained wave's storage back.  The mark restarts after the
 * machine is built.
 */
TEST(FrameBudget, FatTreeBarrierPeakBytesPerRank)
{
    constexpr int kP = 4096;
    machine::MachineConfig cfg = machine::sp2Config();
    cfg.topo_spec = "fattree";
    Machine m(cfg, kP);
    auto rank = [&m](int r) -> sim::Task<void> {
        Comm comm(m, r);
        co_await comm.barrier(Algo::Dissemination);
    };
    sim::FramePool &pool = sim::framePool();
    pool.restartPeak();
    const std::uint64_t base = pool.counters().live_bytes;
    for (int r = 0; r < kP; ++r)
        m.sim().spawn(rank(r));
    m.run();
    const double per_rank =
        static_cast<double>(pool.counters().peak_bytes - base) / kP;
    EXPECT_LE(per_rank, 1700.0) << per_rank << " peak bytes per rank";
}

/**
 * Frame-pool operations per hardware-barrier arrival: an arrival
 * parks its rank through an awaiter, and the last one schedules one
 * release event.  The ranks are spawned, and have reached their first
 * arrival, before the count starts.
 */
TEST(FrameBudget, HardwareBarrierArrivalTakesNoFrame)
{
    constexpr int kP = 64;
    constexpr int kEpisodes = 50;
    Machine m(machine::t3dConfig(), kP);
    machine::HardwareBarrier &hw = *m.hwBarrier();
    auto rank = [&hw](int r) -> sim::Task<void> {
        for (int i = 0; i < kEpisodes; ++i)
            co_await hw.arrive(r);
    };
    for (int r = 0; r < kP; ++r)
        m.sim().spawn(rank(r));
    const std::uint64_t before = poolOps();
    m.run();
    EXPECT_EQ(hw.episodes(), static_cast<std::uint64_t>(kEpisodes));
    const double per_arrival = static_cast<double>(poolOps() - before) /
                               (kP * kEpisodes);
    EXPECT_LE(per_arrival, 0.01)
        << per_arrival << " frame-pool operations per arrival";
}

} // namespace
} // namespace ccsim::mpi

/** @file Tests for the active-message layer and AM collectives. */

#include <gtest/gtest.h>

#include "am/am_collectives.hh"
#include "harness/measure.hh"
#include "machine/machine.hh"
#include "mpi/comm.hh"
#include "util/logging.hh"

namespace ccsim::am {
namespace {

using namespace time_literals;
using machine::Machine;

AmParams
testParams()
{
    AmParams p;
    p.send_overhead = 2 * US;
    p.handler_overhead = 1 * US;
    p.copy_bandwidth_mbs = 100.0;
    return p;
}

TEST(Am, HandlerRunsAtDestinationAfterOverheads)
{
    Machine m(machine::idealConfig(), 4);
    AmFabric fabric(m.sim(), m.network(), 4, testParams());
    Time handled_at = -1;
    std::uint64_t got_arg = 0;
    int got_src = -1;
    int h = fabric.registerHandler([&](const AmArrival &a) {
        handled_at = m.sim().now();
        got_arg = a.arg;
        got_src = a.src;
    });
    auto prog = [&]() -> sim::Task<void> {
        co_await fabric.node(0).send(2, h, 42);
    };
    m.sim().spawn(prog());
    m.run();
    EXPECT_EQ(got_arg, 42u);
    EXPECT_EQ(got_src, 0);
    // send(2us) + hop(10ns) + handler(1us)
    EXPECT_EQ(handled_at, microseconds(3.01));
}

TEST(Am, PayloadCarried)
{
    Machine m(machine::idealConfig(), 2);
    AmFabric fabric(m.sim(), m.network(), 2, testParams());
    std::vector<int> got;
    int h = fabric.registerHandler([&](const AmArrival &a) {
        got = msg::payloadAs<int>(a.payload);
    });
    auto prog = [&]() -> sim::Task<void> {
        std::vector<int> v{7, 8, 9};
        co_await fabric.node(0).send(1, h, 0, 12, msg::makePayload(v));
    };
    m.sim().spawn(prog());
    m.run();
    EXPECT_EQ(got, (std::vector<int>{7, 8, 9}));
}

TEST(Am, HandlersMayChainPosts)
{
    // Relay 0 -> 1 -> 2 -> 3 entirely in handlers.
    Machine m(machine::idealConfig(), 4);
    AmFabric fabric(m.sim(), m.network(), 4, testParams());
    int final_dst = -1;
    int h = -1;
    h = fabric.registerHandler([&](const AmArrival &a) {
        if (a.dst < 3)
            fabric.node(a.dst).post(a.dst + 1, h, a.arg);
        else
            final_dst = a.dst;
    });
    auto prog = [&]() -> sim::Task<void> {
        co_await fabric.node(0).send(1, h, 0);
    };
    m.sim().spawn(prog());
    m.run();
    EXPECT_EQ(final_dst, 3);
}

TEST(Am, SelfPostDelivers)
{
    Machine m(machine::idealConfig(), 2);
    AmFabric fabric(m.sim(), m.network(), 2, testParams());
    int count = 0;
    int h = fabric.registerHandler([&](const AmArrival &) { ++count; });
    auto prog = [&]() -> sim::Task<void> {
        co_await fabric.node(1).send(1, h, 0);
    };
    m.sim().spawn(prog());
    m.run();
    EXPECT_EQ(count, 1);
}

TEST(Am, StatsAndValidation)
{
    throwOnError(true);
    Machine m(machine::idealConfig(), 2);
    AmFabric fabric(m.sim(), m.network(), 2, testParams());
    EXPECT_THROW(fabric.registerHandler({}), FatalError);
    int h = fabric.registerHandler([](const AmArrival &) {});
    auto prog = [&]() -> sim::Task<void> {
        co_await fabric.node(0).send(1, h, 0);
    };
    m.sim().spawn(prog());
    m.run();
    EXPECT_EQ(fabric.node(0).sends(), 1u);
    EXPECT_EQ(fabric.node(1).handled(), 1u);
    EXPECT_THROW(fabric.node(0).post(5, h, 0), PanicError);
    EXPECT_THROW(fabric.node(0).post(1, 99, 0), PanicError);
    throwOnError(false);
}

class AmCollT : public ::testing::TestWithParam<int>
{
};

INSTANTIATE_TEST_SUITE_P(Sizes, AmCollT,
                         ::testing::Values(1, 2, 3, 5, 8, 16));

TEST_P(AmCollT, BarrierHoldsEveryone)
{
    int p = GetParam();
    Machine m(machine::idealConfig(), p);
    AmWorld world(m, testParams());
    Time last_entry = 0;
    Time first_exit = -1;
    auto prog = [&](int rank) -> sim::Task<void> {
        co_await m.sim().delay(Time(rank) * 10 * US);
        last_entry = std::max(last_entry, m.sim().now());
        co_await world.barrier(rank);
        if (first_exit < 0 || m.sim().now() < first_exit)
            first_exit = m.sim().now();
    };
    for (int r = 0; r < p; ++r)
        m.sim().spawn(prog(r));
    m.run();
    EXPECT_GE(first_exit, last_entry);
}

TEST_P(AmCollT, BcastDeliversData)
{
    int p = GetParam();
    int root = p > 2 ? 2 : 0;
    Machine m(machine::idealConfig(), p);
    AmWorld world(m, testParams());
    int checked = 0;
    auto prog = [&](int rank) -> sim::Task<void> {
        std::vector<std::int64_t> v{123, 456};
        msg::PayloadPtr data =
            rank == root ? msg::makePayload(v) : nullptr;
        auto out = co_await world.bcast(rank, 16, root, data);
        EXPECT_EQ(msg::payloadAs<std::int64_t>(out),
                  (std::vector<std::int64_t>{123, 456}))
            << "rank " << rank;
        ++checked;
    };
    for (int r = 0; r < p; ++r)
        m.sim().spawn(prog(r));
    m.run();
    EXPECT_EQ(checked, p);
}

TEST_P(AmCollT, ReduceSumsAtRoot)
{
    int p = GetParam();
    int root = p > 1 ? 1 : 0;
    Machine m(machine::idealConfig(), p);
    AmWorld world(m, testParams(),
                  mpi::makeCombiner(mpi::ReduceOp::Sum,
                                    mpi::Datatype::I64));
    std::int64_t got = -1;
    auto prog = [&](int rank) -> sim::Task<void> {
        std::vector<std::int64_t> v{rank + 1};
        auto out = co_await world.reduce(rank, 8, root,
                                         msg::makePayload(v));
        if (rank == root)
            got = msg::payloadAs<std::int64_t>(out)[0];
        else
            EXPECT_EQ(out, nullptr);
    };
    for (int r = 0; r < p; ++r)
        m.sim().spawn(prog(r));
    m.run();
    EXPECT_EQ(got, std::int64_t(p) * (p + 1) / 2);
}

TEST(AmColl, RepeatedRoundsStayConsistent)
{
    Machine m(machine::idealConfig(), 8);
    AmWorld world(m, testParams(),
                  mpi::makeCombiner(mpi::ReduceOp::Sum,
                                    mpi::Datatype::I64));
    std::vector<std::int64_t> sums;
    auto prog = [&](int rank) -> sim::Task<void> {
        for (int it = 0; it < 5; ++it) {
            co_await world.barrier(rank);
            std::vector<std::int64_t> v{(rank + 1) * (it + 1)};
            auto out = co_await world.reduce(rank, 8, 0,
                                             msg::makePayload(v));
            if (rank == 0)
                sums.push_back(
                    msg::payloadAs<std::int64_t>(out)[0]);
        }
    };
    for (int r = 0; r < 8; ++r)
        m.sim().spawn(prog(r));
    m.run();
    ASSERT_EQ(sums.size(), 5u);
    for (int it = 0; it < 5; ++it)
        EXPECT_EQ(sums[static_cast<size_t>(it)], 36 * (it + 1));
}

TEST(AmColl, WideMachinesAndHighRootsComplete)
{
    // A handler's argument carries only the round number, so neither
    // a root above 255 nor a tree mask above 511 (p > 512) can spill
    // into it and strand ranks.
    const machine::MachineConfig cfg = machine::t3dConfig();
    auto bcast = [&cfg](int p, int root) {
        Machine m(cfg, p);
        AmWorld world(m, amParamsFor(cfg));
        int delivered = 0;
        auto prog = [&](int rank) -> sim::Task<void> {
            std::vector<std::int64_t> v{root, 42};
            msg::PayloadPtr data =
                rank == root ? msg::makePayload(v) : nullptr;
            auto out = co_await world.bcast(rank, 16, root, data);
            if (msg::payloadAs<std::int64_t>(out) == v)
                ++delivered;
        };
        for (int r = 0; r < p; ++r)
            m.sim().spawn(prog(r));
        m.run();
        EXPECT_EQ(delivered, p) << "p " << p << ", root " << root;
    };
    bcast(300, 299);
    bcast(1024, 0);

    {
        constexpr int kP = 300;
        Machine m(cfg, kP);
        AmWorld world(m, amParamsFor(cfg),
                      mpi::makeCombiner(mpi::ReduceOp::Sum,
                                        mpi::Datatype::I64));
        std::int64_t got = -1;
        auto prog = [&](int rank) -> sim::Task<void> {
            std::vector<std::int64_t> v{rank + 1};
            auto out = co_await world.reduce(rank, 8, kP - 1,
                                             msg::makePayload(v));
            if (rank == kP - 1)
                got = msg::payloadAs<std::int64_t>(out)[0];
        };
        for (int r = 0; r < kP; ++r)
            m.sim().spawn(prog(r));
        m.run();
        EXPECT_EQ(got, std::int64_t(kP) * (kP + 1) / 2);
    }

    {
        constexpr int kP = 1024;
        Machine m(cfg, kP);
        AmWorld world(m, amParamsFor(cfg));
        int passed = 0;
        auto prog = [&](int rank) -> sim::Task<void> {
            co_await world.barrier(rank);
            ++passed;
        };
        for (int r = 0; r < kP; ++r)
            m.sim().spawn(prog(r));
        m.run();
        EXPECT_EQ(passed, kP);
    }
}

TEST(AmColl, FasterThanMpiForShortCollectives)
{
    // The experiment the paper proposes: AM strips the matching /
    // buffering layers, so short-message collectives should beat
    // their MPI counterparts on the same machine.
    for (auto cfg : machine::paperMachines()) {
        if (cfg.hardware_barrier) {
            // Compare software against software.
            cfg.hardware_barrier = false;
            cfg.setAlgorithm(machine::Coll::Barrier,
                             machine::Algo::Dissemination);
        }
        // MPI barrier time.
        auto mpi_meas = harness::measureCollective(
            cfg, 16, machine::Coll::Barrier, 0);

        // AM barrier time, measured with the same loop shape.
        Machine m(cfg, 16);
        AmWorld world(m, amParamsFor(cfg));
        Time elapsed = 0;
        auto prog = [&](int rank) -> sim::Task<void> {
            co_await world.barrier(rank); // warm-up
            Time start = m.sim().now();
            for (int i = 0; i < 3; ++i)
                co_await world.barrier(rank);
            if (rank == 0)
                elapsed = (m.sim().now() - start) / 3;
        };
        for (int r = 0; r < 16; ++r)
            m.sim().spawn(prog(r));
        m.run();

        EXPECT_LT(toMicros(elapsed), mpi_meas.us()) << cfg.name;
    }
}

} // namespace
} // namespace ccsim::am

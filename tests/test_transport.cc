/** @file Integration tests for the point-to-point transport. */

#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "msg/transport.hh"
#include "net/fully_connected.hh"
#include "net/network.hh"
#include "sim/simulator.hh"
#include "stats/probe.hh"
#include "util/logging.hh"

namespace ccsim::msg {
namespace {

using namespace time_literals;
using sim::Task;

/** A 4-node ideal-network fixture with easy-to-check numbers. */
class TransportTest : public ::testing::Test
{
  protected:
    TransportTest() { rebuild(defaultParams()); }

    static TransportParams
    defaultParams()
    {
        TransportParams tp;
        tp.send_overhead = 10 * US;
        tp.recv_overhead = 5 * US;
        tp.copy_bandwidth_mbs = 100.0; // 10 ns per byte
        tp.eager_threshold = 4 * KiB;
        tp.rendezvous_overhead = 2 * US;
        return tp;
    }

    /** Fresh simulator + network + fabric (clock back at zero). */
    void
    rebuild(const TransportParams &tp)
    {
        fabric_.reset();
        network_.reset();
        sim_holder_ = std::make_unique<sim::Simulator>();
        net::NetworkParams np;
        np.link_bandwidth_mbs = 100.0; // 10 ns per byte
        np.hop_latency = 100 * NS;
        network_ = std::make_unique<net::Network>(
            std::make_unique<net::FullyConnected>(4), np);
        fabric_ = std::make_unique<Fabric>(*sim_holder_, *network_, 4, tp);
    }

    sim::Simulator &sim() { return *sim_holder_; }

    std::unique_ptr<sim::Simulator> sim_holder_;
    std::unique_ptr<net::Network> network_;
    std::unique_ptr<Fabric> fabric_;
};

TEST_F(TransportTest, EagerDeliveryTimesAreExact)
{
    Time send_done = -1, recv_done = -1;
    auto sender = [&]() -> Task<void> {
        co_await fabric_->node(0).send(1, 7, 0, 1000);
        send_done = sim().now();
    };
    auto receiver = [&]() -> Task<void> {
        Message m = co_await fabric_->node(1).recv(0, 7, 0);
        recv_done = sim().now();
        EXPECT_EQ(m.src, 0);
        EXPECT_EQ(m.bytes, 1000);
        // arrival = o_s(10) + copy(10) + hop(0.1) + wire(10)
        EXPECT_EQ(m.arrival, microseconds(30.1));
    };
    sim().spawn(receiver());
    sim().spawn(sender());
    sim().run();
    // Sender is released after o_s + its full share of the copy.
    EXPECT_EQ(send_done, 20 * US);
    // Receiver: arrival + o_r(5) + copy-out(10).
    EXPECT_EQ(recv_done, microseconds(45.1));
}

TEST_F(TransportTest, LateReceiverPaysNoExtraWireTime)
{
    Time recv_done = -1;
    auto sender = [&]() -> Task<void> {
        co_await fabric_->node(0).send(1, 7, 0, 1000);
    };
    auto receiver = [&]() -> Task<void> {
        co_await sim().delay(100 * US); // message long since arrived
        co_await fabric_->node(1).recv(0, 7, 0);
        recv_done = sim().now();
    };
    sim().spawn(sender());
    sim().spawn(receiver());
    sim().run();
    EXPECT_EQ(recv_done, 115 * US); // 100 + o_r(5) + copy(10)
}

TEST_F(TransportTest, PayloadRoundTrips)
{
    std::vector<float> data{1.5f, -2.0f, 3.25f};
    std::vector<float> got;
    auto sender = [&]() -> Task<void> {
        co_await fabric_->node(0).send(2, 1, 0,
                                       Bytes(data.size() * sizeof(float)),
                                       makePayload(data));
    };
    auto receiver = [&]() -> Task<void> {
        Message m = co_await fabric_->node(2).recv(0, 1, 0);
        got = payloadAs<float>(m.payload);
    };
    sim().spawn(sender());
    sim().spawn(receiver());
    sim().run();
    EXPECT_EQ(got, data);
}

TEST_F(TransportTest, TagsMatchSelectively)
{
    std::vector<int> order;
    auto sender = [&]() -> Task<void> {
        co_await fabric_->node(0).send(1, /*tag=*/20, 0, 8);
        co_await fabric_->node(0).send(1, /*tag=*/10, 0, 8);
    };
    auto receiver = [&]() -> Task<void> {
        Message a = co_await fabric_->node(1).recv(0, 10, 0);
        order.push_back(a.tag);
        Message b = co_await fabric_->node(1).recv(0, 20, 0);
        order.push_back(b.tag);
    };
    sim().spawn(sender());
    sim().spawn(receiver());
    sim().run();
    EXPECT_EQ(order, (std::vector<int>{10, 20}));
}

TEST_F(TransportTest, ContextsIsolateTraffic)
{
    int got_ctx = -1;
    auto sender = [&]() -> Task<void> {
        co_await fabric_->node(0).send(1, 5, /*context=*/3, 8);
    };
    auto receiver = [&]() -> Task<void> {
        Message m = co_await fabric_->node(1).recv(0, 5, 3);
        got_ctx = m.context;
    };
    sim().spawn(sender());
    sim().spawn(receiver());
    sim().run();
    EXPECT_EQ(got_ctx, 3);
}

TEST_F(TransportTest, FifoNonOvertakingSameEnvelope)
{
    std::vector<int> values;
    auto sender = [&]() -> Task<void> {
        std::vector<int> one{111}, two{222};
        co_await fabric_->node(0).send(1, 9, 0, 4, makePayload(one));
        co_await fabric_->node(0).send(1, 9, 0, 4, makePayload(two));
    };
    auto receiver = [&]() -> Task<void> {
        for (int i = 0; i < 2; ++i) {
            Message m = co_await fabric_->node(1).recv(0, 9, 0);
            values.push_back(payloadAs<int>(m.payload)[0]);
        }
    };
    sim().spawn(sender());
    sim().spawn(receiver());
    sim().run();
    EXPECT_EQ(values, (std::vector<int>{111, 222}));
}

TEST_F(TransportTest, AnySourceTakesEarliestArrival)
{
    std::vector<int> sources;
    auto sender = [&](int node, Time start) -> Task<void> {
        co_await sim().delay(start);
        co_await fabric_->node(node).send(3, 1, 0, 8);
    };
    auto receiver = [&]() -> Task<void> {
        for (int i = 0; i < 2; ++i) {
            Message m = co_await fabric_->node(3).recv(kAnySource, 1, 0);
            sources.push_back(m.src);
        }
    };
    sim().spawn(receiver());
    sim().spawn(sender(2, 0));
    sim().spawn(sender(1, 200 * US));
    sim().run();
    EXPECT_EQ(sources, (std::vector<int>{2, 1}));
}

TEST_F(TransportTest, SelfSendIsBufferedAndNeverDeadlocks)
{
    std::vector<int> got;
    auto prog = [&]() -> Task<void> {
        std::vector<int> v{42};
        co_await fabric_->node(2).send(2, 4, 0, 4, makePayload(v));
        Message m = co_await fabric_->node(2).recv(2, 4, 0);
        got = payloadAs<int>(m.payload);
    };
    sim().spawn(prog());
    sim().run();
    EXPECT_EQ(got, (std::vector<int>{42}));
}

TEST_F(TransportTest, RendezvousTimingIncludesHandshake)
{
    Time recv_done = -1;
    auto sender = [&]() -> Task<void> {
        co_await fabric_->node(0).send(1, 7, 0, 8192);
    };
    auto receiver = [&]() -> Task<void> {
        co_await fabric_->node(1).recv(0, 7, 0);
        recv_done = sim().now();
    };
    sim().spawn(receiver());
    sim().spawn(sender());
    sim().run();
    // o_s+rdv(12) -> RTS(0.1) -> rdv(2) -> CTS(0.1) -> copy(81.92)
    // -> wire(0.1 + 81.92) -> o_r(5); no receive copy.
    EXPECT_EQ(recv_done, microseconds(12 + 0.1 + 2 + 0.1 + 81.92 +
                                      0.1 + 81.92 + 5));
}

TEST_F(TransportTest, RendezvousSkipsReceiveCopy)
{
    // Same size straddling the threshold: just below goes eager (two
    // copies), just above goes rendezvous (handshake, one copy).
    auto run = [&](Bytes size) {
        rebuild(defaultParams());
        Time done = -1;
        auto sender = [&]() -> Task<void> {
            co_await fabric_->node(0).send(1, 7, 0, size);
        };
        auto receiver = [&]() -> Task<void> {
            co_await fabric_->node(1).recv(0, 7, 0);
            done = sim().now();
        };
        sim().spawn(receiver());
        sim().spawn(sender());
        sim().run();
        return done;
    };
    Time eager = run(4 * KiB);
    Time rdv = run(4 * KiB + 1);
    // The rendezvous handshake costs ~4.2 us but saves the ~41 us
    // receive copy, so it must win well before 2x the threshold.
    EXPECT_LT(rdv, eager);
}

TEST_F(TransportTest, BltAcceleratesLongMessages)
{
    auto timed = [&](bool blt) {
        auto tp = defaultParams();
        tp.blt_enabled = blt;
        tp.blt_threshold = 8 * KiB;
        tp.blt_setup = 20 * US;
        rebuild(tp);
        Time done = -1;
        auto sender = [&]() -> Task<void> {
            co_await fabric_->node(0).send(1, 7, 0, 64 * KiB);
        };
        auto receiver = [&]() -> Task<void> {
            co_await fabric_->node(1).recv(0, 7, 0);
            done = sim().now();
        };
        sim().spawn(receiver());
        sim().spawn(sender());
        sim().run();
        return done;
    };
    Time without = timed(false);
    Time with = timed(true);
    // BLT replaces the 655.36 us injection copy with 20 us of setup.
    EXPECT_EQ(without - with, microseconds(655.36 - 20));
}

TEST_F(TransportTest, CoprocessorFreesTheSenderEarly)
{
    auto sender_done = [&](double overlap) {
        auto tp = defaultParams();
        tp.coprocessor_overlap = overlap;
        rebuild(tp);
        Time done = -1;
        auto sender = [&]() -> Task<void> {
            co_await fabric_->node(0).send(1, 7, 0, 1000);
            done = sim().now();
        };
        auto receiver = [&]() -> Task<void> {
            co_await fabric_->node(1).recv(0, 7, 0);
        };
        sim().spawn(receiver());
        sim().spawn(sender());
        sim().run();
        return done;
    };
    EXPECT_EQ(sender_done(0.0), 20 * US);  // o_s + full copy
    EXPECT_EQ(sender_done(0.9), 11 * US);  // o_s + 10% of copy
    EXPECT_EQ(sender_done(1.0), 10 * US);  // o_s only
}

TEST_F(TransportTest, ReceiverCpuSerializesCompletions)
{
    std::vector<Time> done;
    auto sender = [&](int node) -> Task<void> {
        co_await fabric_->node(node).send(3, 1, 0, 1000);
    };
    auto receiver = [&]() -> Task<void> {
        co_await fabric_->node(3).recv(kAnySource, 1, 0);
        done.push_back(sim().now());
        co_await fabric_->node(3).recv(kAnySource, 1, 0);
        done.push_back(sim().now());
    };
    sim().spawn(receiver());
    sim().spawn(sender(0));
    sim().spawn(sender(1));
    sim().run();
    ASSERT_EQ(done.size(), 2u);
    // Both messages arrive at 30.1 us; the two (o_r + copy) = 15 us
    // completions must be serialized on node 3's CPU.
    EXPECT_EQ(done[0], microseconds(45.1));
    EXPECT_EQ(done[1], microseconds(60.1));
}

TEST_F(TransportTest, SendrecvExchangesLongMessagesWithoutDeadlock)
{
    // Both ranks push 64 KB at each other simultaneously; blocking
    // rendezvous sends would deadlock here — sendrecv must not.
    int completed = 0;
    auto prog = [&](int me, int other) -> Task<void> {
        Message m = co_await fabric_->node(me).sendrecv(
            other, 5, 64 * KiB, other, 5, 0);
        EXPECT_EQ(m.bytes, 64 * KiB);
        ++completed;
    };
    sim().spawn(prog(0, 1));
    sim().spawn(prog(1, 0));
    sim().run();
    EXPECT_EQ(completed, 2);
}

TEST_F(TransportTest, IsendIrecvWaitCompletes)
{
    Bytes got = 0;
    auto prog0 = [&]() -> Task<void> {
        Request r = fabric_->node(0).isend(1, 2, 0, 512);
        co_await fabric_->node(0).wait(r);
    };
    auto prog1 = [&]() -> Task<void> {
        Request r = fabric_->node(1).irecv(0, 2, 0);
        Message m = co_await fabric_->node(1).wait(r);
        got = m.bytes;
    };
    sim().spawn(prog0());
    sim().spawn(prog1());
    sim().run();
    EXPECT_EQ(got, 512);
}

TEST_F(TransportTest, RequestTestReflectsCompletion)
{
    auto prog = [&]() -> Task<void> {
        Request r = fabric_->node(1).irecv(0, 2, 0);
        EXPECT_FALSE(r.test());
        co_await fabric_->node(0).send(1, 2, 0, 16);
        co_await fabric_->node(1).wait(r);
        EXPECT_TRUE(r.test());
    };
    sim().spawn(prog());
    sim().run();
}

TEST_F(TransportTest, CompletedRequestsReturnTheirSlots)
{
    // A request's state slot goes back to its pool as soon as the
    // operation completes and its Request is dropped, so sequential
    // rounds keep reusing the same slot.
    constexpr int kRounds = 100;
    auto sender = [&]() -> Task<void> {
        for (int i = 0; i < kRounds; ++i) {
            Request r = fabric_->node(0).isend(1, 3, 0, 64);
            co_await fabric_->node(0).wait(r);
        }
    };
    auto receiver = [&]() -> Task<void> {
        for (int i = 0; i < kRounds; ++i) {
            Request r = fabric_->node(1).irecv(0, 3, 0);
            co_await fabric_->node(1).wait(r);
        }
    };
    sim().spawn(sender());
    sim().spawn(receiver());
    sim().run();
    for (int n : {0, 1}) {
        sim::PoolCounters c = fabric_->node(n).poolCounters();
        EXPECT_LE(c.allocs, 2u) << "node " << n;
        EXPECT_GE(c.reuses, 98u) << "node " << n;
    }
}

TEST_F(TransportTest, UnmatchedRecvDeadlocks)
{
    throwOnError(true);
    auto prog = [&]() -> Task<void> {
        co_await fabric_->node(1).recv(0, 99, 0);
    };
    sim().spawn(prog());
    EXPECT_THROW(sim().run(), PanicError);
    throwOnError(false);
}

TEST_F(TransportTest, StatsCountTraffic)
{
    auto sender = [&]() -> Task<void> {
        co_await fabric_->node(0).send(1, 1, 0, 100);
        co_await fabric_->node(0).send(1, 1, 0, 200);
    };
    auto receiver = [&]() -> Task<void> {
        co_await fabric_->node(1).recv(0, 1, 0);
        co_await fabric_->node(1).recv(0, 1, 0);
    };
    stats::Probe probe(network_->topology().numLinks(), true);
    fabric_->setProbe(&probe);
    sim().spawn(sender());
    sim().spawn(receiver());
    sim().run();
    // Both payloads are eager: two sends, 300 bytes, two receives.
    EXPECT_EQ(probe.transport.msg_bytes.count(), 2u);
    EXPECT_EQ(probe.transport.eager_sends.value(), 2u);
    EXPECT_EQ(probe.transport.msg_bytes.weightedSum(), 300.0);
    EXPECT_EQ(probe.transport.recvs.value(), 2u);
}

TEST_F(TransportTest, MismatchedPayloadSizePanics)
{
    throwOnError(true);
    auto prog = [&]() -> Task<void> {
        std::vector<int> v{1, 2, 3};
        co_await fabric_->node(0).send(1, 1, 0, 999, makePayload(v));
    };
    sim().spawn(prog());
    EXPECT_THROW(sim().run(), PanicError);
    throwOnError(false);
}

} // namespace
} // namespace ccsim::msg

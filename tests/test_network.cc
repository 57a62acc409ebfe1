/** @file Unit tests for the link-occupancy network model. */

#include <memory>

#include <gtest/gtest.h>

#include "net/fat_tree.hh"
#include "net/fully_connected.hh"
#include "net/hierarchical.hh"
#include "net/mesh2d.hh"
#include "net/network.hh"
#include "net/torus3d.hh"
#include "stats/probe.hh"
#include "util/logging.hh"

namespace ccsim::net {
namespace {

using namespace time_literals;

NetworkParams
simpleParams()
{
    NetworkParams p;
    p.link_bandwidth_mbs = 100.0; // 10 ns per byte
    p.hop_latency = 100 * NS;
    p.packet_overhead = 0;
    p.contention = true;
    return p;
}

/** A metrics-on probe attached to a network, as a Machine attaches
 *  its own: the probe is where transfers are counted. */
struct Probed : stats::Probe
{
    explicit Probed(Network &net)
        : stats::Probe(net.topology().numLinks(), true)
    {
        net.setProbe(this);
    }
};

TEST(Network, LatencyIsHopsPlusSerialization)
{
    Network net(std::make_unique<Mesh2D>(1, 4), simpleParams());
    // 0 -> 3: 3 hops; 1000 bytes at 100 MB/s = 10 us.
    Time t = net.transfer(0, 3, 1000, 0);
    EXPECT_EQ(t, 3 * (100 * NS) + 10 * US);
}

TEST(Network, ZeroByteControlMessageCostsHopsOnly)
{
    Network net(std::make_unique<Mesh2D>(1, 4), simpleParams());
    EXPECT_EQ(net.transfer(0, 1, 0, 0), 100 * NS);
}

TEST(Network, PacketOverheadAddsWireBytes)
{
    auto p = simpleParams();
    p.packet_overhead = 100; // 1 us at 100 MB/s
    Network net(std::make_unique<Mesh2D>(1, 2), p);
    EXPECT_EQ(net.transfer(0, 1, 0, 0), 100 * NS + 1 * US);
}

TEST(Network, SharedLinkSerializes)
{
    Network net(std::make_unique<Mesh2D>(1, 4), simpleParams());
    // Two messages both crossing link 0->1 at t=0.
    Time t1 = net.transfer(0, 1, 1000, 0);
    Time t2 = net.transfer(0, 1, 1000, 0);
    EXPECT_EQ(t1, 100 * NS + 10 * US);
    EXPECT_EQ(t2, 100 * NS + 20 * US); // waits for the first
}

TEST(Network, DisjointPathsDoNotContend)
{
    Network net(std::make_unique<Mesh2D>(1, 4), simpleParams());
    Time t1 = net.transfer(0, 1, 1000, 0);
    Time t2 = net.transfer(3, 2, 1000, 0);
    EXPECT_EQ(t1, t2); // same shape, different wires
}

TEST(Network, OppositeDirectionsAreFullDuplex)
{
    Network net(std::make_unique<Mesh2D>(1, 2), simpleParams());
    Time t1 = net.transfer(0, 1, 1000, 0);
    Time t2 = net.transfer(1, 0, 1000, 0);
    EXPECT_EQ(t1, t2);
}

TEST(Network, ContentionDisabledIgnoresOccupancy)
{
    auto p = simpleParams();
    p.contention = false;
    Network net(std::make_unique<Mesh2D>(1, 4), p);
    Time t1 = net.transfer(0, 1, 1000, 0);
    Time t2 = net.transfer(0, 1, 1000, 0);
    EXPECT_EQ(t1, t2);
}

TEST(Network, LaterStartDelaysArrival)
{
    Network net(std::make_unique<Mesh2D>(1, 2), simpleParams());
    Time t = net.transfer(0, 1, 1000, 5 * US);
    EXPECT_EQ(t, 5 * US + 100 * NS + 10 * US);
}

TEST(Network, BusyLinkDelaysNewMessagePastItsRequestTime)
{
    Network net(std::make_unique<Mesh2D>(1, 2), simpleParams());
    net.transfer(0, 1, 10000, 0);          // occupies 0->1 until 100 us
    Time t = net.transfer(0, 1, 0, 50 * US); // wants to start at 50 us
    EXPECT_EQ(t, 100 * US + 100 * NS);
}

TEST(Network, StatsAccumulateAndReset)
{
    Network net(std::make_unique<Mesh2D>(1, 4), simpleParams());
    Probed p(net);
    net.transfer(0, 3, 1000, 0); // 3 hops, 10 us each
    net.transfer(1, 0, 500, 0);  // 1 hop, 5 us
    EXPECT_EQ(p.links.transfers, 2u);
    EXPECT_EQ(p.links.payload_bytes, 1500);
    Time busy = 0;
    p.links.load.forEach(
        [&](std::size_t, const stats::LinkLoad &k) { busy += k.busy; });
    EXPECT_EQ(busy, 3 * (10 * US) + 5 * US);
    const auto back =
        static_cast<std::size_t>(net.topology().routeVector(1, 0)[0]);
    EXPECT_EQ(p.links.load.get(back).bytes, 500);
    // Network::reset() frees the links; the probe keeps its books
    // until its own reset.
    net.reset();
    EXPECT_EQ(p.links.transfers, 2u);
    p.reset();
    EXPECT_EQ(p.links.transfers, 0u);
    EXPECT_EQ(p.links.payload_bytes, 0);
    EXPECT_EQ(p.links.load.get(back).bytes, 0);
}

TEST(Network, ResetFreesEveryLink)
{
    Network net(std::make_unique<Mesh2D>(1, 3), simpleParams());
    net.transfer(0, 2, 10000, 0); // both links busy until 100 us
    net.transfer(2, 0, 10000, 0);
    net.reset();
    EXPECT_EQ(net.transfer(0, 2, 0, 0), 2 * (100 * NS));
    EXPECT_EQ(net.transfer(2, 1, 0, 0), 100 * NS);
}

TEST(Network, SelfTransferPanics)
{
    throwOnError(true);
    Network net(std::make_unique<Mesh2D>(1, 4), simpleParams());
    EXPECT_THROW(net.transfer(2, 2, 100, 0), PanicError);
    throwOnError(false);
}

TEST(Network, InvalidParamsFatal)
{
    throwOnError(true);
    auto p = simpleParams();
    p.link_bandwidth_mbs = 0;
    EXPECT_THROW(Network(std::make_unique<Mesh2D>(1, 2), p), FatalError);
    p = simpleParams();
    p.hop_latency = -1;
    EXPECT_THROW(Network(std::make_unique<Mesh2D>(1, 2), p), FatalError);
    throwOnError(false);
}

TEST(Network, TorusBeatsMeshUnderUniformAllToAll)
{
    // Total-exchange-like load: every node sends 4 KB to every other.
    // The 3-D torus has more links and shorter routes than the 2-D
    // mesh, so its last arrival must be earlier.
    auto run = [](std::unique_ptr<Topology> topo) {
        NetworkParams p;
        p.link_bandwidth_mbs = 100.0;
        p.hop_latency = 100 * NS;
        Network net(std::move(topo), p);
        int n = net.topology().numNodes();
        Time last = 0;
        for (int s = 0; s < n; ++s)
            for (int d = 0; d < n; ++d)
                if (s != d)
                    last = std::max(last, net.transfer(s, d, 4096, 0));
        return last;
    };
    Time mesh = run(std::make_unique<Mesh2D>(4, 8));
    Time torus = run(std::make_unique<Torus3D>(4, 4, 2));
    Time ideal = run(std::make_unique<FullyConnected>(32));
    EXPECT_LT(torus, mesh);
    EXPECT_LT(ideal, torus);
}

TEST(Network, RouteWalkCountersAccumulateAndReset)
{
    // A transfer is one route walk; its hops are the links it
    // crossed.
    Network net(std::make_unique<Mesh2D>(2, 2), simpleParams());
    Probed p(net);
    EXPECT_EQ(p.links.transfers, 0u);
    EXPECT_EQ(p.links.hops, 0u);
    net.transfer(0, 3, 100, 0); // 2 hops
    EXPECT_EQ(p.links.transfers, 1u);
    EXPECT_EQ(p.links.hops, 2u);
    net.transfer(0, 1, 100, 0); // 1 hop
    net.transfer(0, 1, 100, 0);
    EXPECT_EQ(p.links.transfers, 3u);
    EXPECT_EQ(p.links.hops, 4u);
    p.reset();
    EXPECT_EQ(p.links.transfers, 0u);
    EXPECT_EQ(p.links.hops, 0u);
}

TEST(Network, TransferViaCountsAsTwoTransfers)
{
    Network net(std::make_unique<Mesh2D>(1, 4), simpleParams());
    Probed p(net);
    net.transferVia(0, 3, 1, 1000, 0); // 0 -> 3 (3 hops), 3 -> 1 (2)
    EXPECT_EQ(p.links.transfers, 2u);
    EXPECT_EQ(p.links.hops, 5u);
    EXPECT_EQ(p.links.payload_bytes, 2000);
}

TEST(Network, RepeatedTransfersMatchFreshNetworkTimes)
{
    // Analytic routing is stateless: the k-th enumeration of a pair's
    // route must produce the same physics as the first.
    Network a(std::make_unique<Torus3D>(2, 2, 2), simpleParams());
    Network b(std::make_unique<Torus3D>(2, 2, 2), simpleParams());
    for (int rep = 0; rep < 3; ++rep) {
        for (int s = 0; s < 8; ++s) {
            int d = (s + 3) % 8;
            EXPECT_EQ(a.transfer(s, d, 4096, 0),
                      b.transfer(s, d, 4096, 0));
        }
    }
}

TEST(Network, LinkBusyAccessorTracksSerialisation)
{
    Network net(std::make_unique<Mesh2D>(1, 3), simpleParams());
    Probed p(net);
    net.transfer(0, 2, 1000, 0); // links 0->1->2, 10 us each
    std::vector<LinkId> path = net.topology().routeVector(0, 2);
    ASSERT_EQ(path.size(), 2u);
    for (LinkId l : path) {
        const stats::LinkLoad k =
            p.links.load.get(static_cast<std::size_t>(l));
        EXPECT_EQ(k.bytes, 1000);
        EXPECT_EQ(k.busy, 10 * US);
    }
    // Busy time is wire time, not the end of the last reservation: a
    // second transfer long after the first adds only its own 10 us.
    net.transfer(0, 1, 1000, 1 * MS);
    EXPECT_EQ(p.links.load.get(static_cast<std::size_t>(path[0])).busy,
              20 * US);
}

TEST(Network, StallIsChargedToTheConstrainingLink)
{
    Network net(std::make_unique<Mesh2D>(1, 3), simpleParams());
    Probed p(net);
    std::vector<LinkId> path = net.topology().routeVector(0, 2);
    ASSERT_EQ(path.size(), 2u);
    net.transfer(1, 2, 10000, 0); // holds link 1->2 until 100 us
    EXPECT_EQ(net.transfer(0, 2, 0, 0), 100 * US + 2 * (100 * NS));
    EXPECT_EQ(p.links.stall.get(static_cast<std::size_t>(path[0])), 0);
    EXPECT_EQ(p.links.stall.get(static_cast<std::size_t>(path[1])),
              100 * US);
    EXPECT_EQ(p.links.total_stall, 100 * US);
    EXPECT_EQ(p.links.stalled_transfers, 1u);
}

TEST(Network, ConstructionIsLazyAtExtremeScale)
{
    // The O(1)-memory guard: a million-rank fat tree must construct
    // a Network and its probe without touching any link page, and a
    // transfer must materialize only the pages its route lands on.
    auto ft = FatTree::balancedFor(1 << 20);
    ASSERT_EQ(ft->numNodes(), 1 << 20);
    Network net(std::move(ft), simpleParams());
    Probed p(net);
    Time t = net.transfer(0, (1 << 20) - 1, 4096, 0);
    EXPECT_GT(t, 0);
    int touched = 0;
    p.links.load.forEach(
        [&](std::size_t, const stats::LinkLoad &) { ++touched; });
    // One route touches a bounded handful of 4096-entry pages, not
    // the multi-million-link fabric.
    EXPECT_LE(touched, 4096 * 8);
    EXPECT_GT(p.links.hops, 0u);
}

TEST(Network, RejectsMoreLinksThanALinkIdCanNumber)
{
    // A fully-connected fabric has p^2 links and routes name them by
    // a 32-bit LinkId: p = 46340 still fits, p = 50000 does not.
    throwOnError(true);
    EXPECT_THROW(Network(std::make_unique<FullyConnected>(50000),
                         simpleParams()),
                 ConfigError);
    Network net(std::make_unique<FullyConnected>(46340), simpleParams());
    EXPECT_EQ(net.topology().numLinks(), std::size_t{46340} * 46340);
    // The highest-numbered link carries traffic like any other.
    EXPECT_EQ(net.transfer(46339, 46338, 0, 0), 100 * NS);
    throwOnError(false);
}

TEST(Network, LinkClassParamsGateHeterogeneousRoutes)
{
    // 2 nodes x 1 chip x 2 cores on a fully-connected wire.  The
    // inter-node route is chip, bus, wire, bus, chip; making the bus
    // (class 2) slower than the wire must slow the whole transfer.
    auto topo = [] {
        return std::make_unique<Hierarchical>(
            std::make_unique<FullyConnected>(2), 1, 2);
    };
    Network base(topo(), simpleParams());
    ASSERT_EQ(base.topology().numLinkClasses(), 3);
    NetworkParams fast = simpleParams();
    fast.link_bandwidth_mbs = 100000.0;
    base.setLinkClassParams(1, fast);
    base.setLinkClassParams(2, fast);
    Time quick = base.transfer(0, 2, 100000, 0);

    Network slow_bus(topo(), simpleParams());
    NetworkParams slow = simpleParams();
    slow.link_bandwidth_mbs = 10.0; // 10x slower than the wire
    slow_bus.setLinkClassParams(1, fast);
    slow_bus.setLinkClassParams(2, slow);
    Time slowed = slow_bus.transfer(0, 2, 100000, 0);
    EXPECT_GT(slowed, quick);

    // Same-chip traffic never crosses the bus: unaffected.  Start
    // well past the earlier transfers so link occupancy cannot skew
    // the comparison.
    Time far = 100 * MS;
    EXPECT_EQ(base.transfer(0, 1, 100000, far),
              slow_bus.transfer(0, 1, 100000, far));
}

TEST(Network, SetLinkClassParamsRejectsMissingClass)
{
    throwOnError(true);
    Network net(std::make_unique<Mesh2D>(2, 2), simpleParams());
    EXPECT_THROW(net.setLinkClassParams(1, simpleParams()),
                 PanicError);
    throwOnError(false);
}

} // namespace
} // namespace ccsim::net

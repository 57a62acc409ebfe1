/** @file Unit tests for machine configs, presets, and hw barrier. */

#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "machine/machine.hh"
#include "machine/machine_config.hh"
#include "util/logging.hh"

namespace ccsim::machine {
namespace {

using namespace time_literals;
using sim::Task;

TEST(MachineConfig, PresetsValidate)
{
    for (const auto &cfg : paperMachines())
        cfg.validate();
    idealConfig().validate();
}

TEST(MachineConfig, PaperPhysicalParameters)
{
    auto sp2 = sp2Config();
    EXPECT_DOUBLE_EQ(sp2.network.link_bandwidth_mbs, 40.0);
    EXPECT_EQ(sp2.network.hop_latency, nanoseconds(125));
    EXPECT_EQ(sp2.topology, "omega");

    auto t3d = t3dConfig();
    EXPECT_DOUBLE_EQ(t3d.network.link_bandwidth_mbs, 300.0);
    EXPECT_EQ(t3d.network.hop_latency, nanoseconds(20));
    EXPECT_EQ(t3d.topology, "torus3d");
    EXPECT_TRUE(t3d.hardware_barrier);
    EXPECT_TRUE(t3d.transport.blt_enabled);

    auto par = paragonConfig();
    EXPECT_DOUBLE_EQ(par.network.link_bandwidth_mbs, 175.0);
    EXPECT_EQ(par.network.hop_latency, nanoseconds(40));
    EXPECT_EQ(par.topology, "mesh2d");
    EXPECT_GT(par.transport.coprocessor_overlap, 0.5);
}

TEST(MachineConfig, EraAlgorithmDefaults)
{
    auto sp2 = sp2Config();
    EXPECT_EQ(sp2.algorithmFor(Coll::Bcast), Algo::Binomial);
    EXPECT_EQ(sp2.algorithmFor(Coll::Gather), Algo::Linear);
    EXPECT_EQ(sp2.algorithmFor(Coll::Alltoall), Algo::Pairwise);
    EXPECT_EQ(sp2.algorithmFor(Coll::Barrier), Algo::Dissemination);
    EXPECT_EQ(t3dConfig().algorithmFor(Coll::Barrier), Algo::Hardware);
}

TEST(MachineConfig, MakeTopologyMatchesKind)
{
    EXPECT_EQ(sp2Config().makeTopology(64)->numNodes(), 64);
    EXPECT_EQ(t3dConfig().makeTopology(64)->name(), "torus3d 4x4x4");
    EXPECT_EQ(paragonConfig().makeTopology(32)->name(), "mesh2d 4x8");
    // Single node degenerates to the trivial topology everywhere.
    EXPECT_EQ(t3dConfig().makeTopology(1)->numNodes(), 1);
}

TEST(MachineConfig, PresetFabricsArePinned)
{
    // Pinned name and link count of every preset's fabric.  One node
    // is a single crossbar node whatever the family.
    struct Pin
    {
        int p;
        const char *name;
        std::size_t links;
    };
    const std::vector<std::pair<MachineConfig, std::vector<Pin>>> pins = {
        {sp2Config(),
         {{1, "fully-connected 1-node", 1},
          {2, "omega 2-node radix-4 (1 stages)", 6},
          {3, "omega 3-node radix-4 (1 stages)", 7},
          {12, "omega 12-node radix-4 (2 stages)", 44},
          {64, "omega 64-node radix-4 (3 stages)", 256},
          {128, "omega 128-node radix-4 (4 stages)", 1152}}},
        {t3dConfig(),
         {{1, "fully-connected 1-node", 1},
          {2, "torus3d 2x1x1", 12},
          {3, "torus3d 3x1x1", 18},
          {12, "torus3d 3x2x2", 72},
          {64, "torus3d 4x4x4", 384},
          {128, "torus3d 8x4x4", 768}}},
        {paragonConfig(),
         {{1, "fully-connected 1-node", 1},
          {2, "mesh2d 1x2", 8},
          {3, "mesh2d 1x3", 12},
          {12, "mesh2d 3x4", 48},
          {64, "mesh2d 8x8", 256},
          {128, "mesh2d 8x16", 512}}},
        {idealConfig(),
         {{1, "fully-connected 1-node", 1},
          {2, "fully-connected 2-node", 4},
          {3, "fully-connected 3-node", 9},
          {12, "fully-connected 12-node", 144},
          {64, "fully-connected 64-node", 4096},
          {128, "fully-connected 128-node", 16384}}},
    };
    for (const auto &[cfg, fabrics] : pins)
        for (const Pin &pin : fabrics) {
            auto topo = cfg.makeTopology(pin.p);
            EXPECT_EQ(topo->name(), pin.name)
                << cfg.name << " p=" << pin.p;
            EXPECT_EQ(topo->numLinks(), pin.links)
                << cfg.name << " p=" << pin.p;
        }
}

TEST(MachineConfig, HardwareAlgoWithoutHardwareIsFatal)
{
    throwOnError(true);
    auto cfg = sp2Config();
    cfg.setAlgorithm(Coll::Barrier, Algo::Hardware);
    EXPECT_THROW(cfg.validate(), FatalError);
    throwOnError(false);
}

TEST(MachineConfig, CollNamesMatchPaperVocabulary)
{
    EXPECT_EQ(collName(Coll::Alltoall), "total exchange");
    EXPECT_EQ(collName(Coll::Bcast), "broadcast");
    EXPECT_EQ(kPaperColls.size(), 7u);
}

TEST(Machine, BuildsAllPresetSizes)
{
    for (const auto &cfg : paperMachines()) {
        for (int p : {2, 4, 8, 16}) {
            Machine m(cfg, p);
            EXPECT_EQ(m.size(), p);
            EXPECT_EQ(m.network().topology().numNodes(), p);
        }
    }
}

TEST(Machine, HwBarrierOnlyWhenConfigured)
{
    Machine t3d(t3dConfig(), 4);
    EXPECT_NE(t3d.hwBarrier(), nullptr);
    Machine sp2(sp2Config(), 4);
    EXPECT_EQ(sp2.hwBarrier(), nullptr);
}

TEST(Machine, ContextRegistryIsDeterministic)
{
    Machine m(idealConfig(), 8);
    std::vector<int> g1{0, 1, 2};
    std::vector<int> g2{3, 4};
    int c1 = m.contextFor(g1);
    int c2 = m.contextFor(g2);
    EXPECT_NE(c1, c2);
    EXPECT_EQ(m.contextFor(g1), c1); // same group -> same context
    EXPECT_NE(c1, 0);                // 0 is the world id
}

TEST(HwBarrier, ReleasesAllAtSameInstant)
{
    Machine m(t3dConfig(), 8);
    std::vector<Time> released(8, -1);
    auto prog = [&](int rank) -> Task<void> {
        co_await m.sim().delay(Time(rank) * US); // staggered arrivals
        co_await m.hwBarrier()->arrive(rank);
        released[static_cast<size_t>(rank)] = m.sim().now();
    };
    for (int r = 0; r < 8; ++r)
        m.sim().spawn(prog(r));
    m.run();
    // Last arrival at 7 us + 3 us hardware latency.
    for (int r = 0; r < 8; ++r)
        EXPECT_EQ(released[static_cast<size_t>(r)], 10 * US) << r;
    EXPECT_EQ(m.hwBarrier()->episodes(), 1u);
}

TEST(HwBarrier, BackToBackEpisodesStayOrdered)
{
    Machine m(t3dConfig(), 4);
    std::vector<int> order;
    auto prog = [&](int rank) -> Task<void> {
        for (int it = 0; it < 5; ++it) {
            co_await m.hwBarrier()->arrive(rank);
            if (rank == 0)
                order.push_back(it);
        }
    };
    for (int r = 0; r < 4; ++r)
        m.sim().spawn(prog(r));
    m.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
    EXPECT_EQ(m.hwBarrier()->episodes(), 5u);
}

TEST(HwBarrier, FastRankCannotCorruptCurrentEpisode)
{
    // Rank 0 races ahead into episode 2 while others are still in
    // episode 1; everyone must still complete both.
    Machine m(t3dConfig(), 4);
    int done = 0;
    auto fast = [&]() -> Task<void> {
        co_await m.hwBarrier()->arrive(0);
        co_await m.hwBarrier()->arrive(0);
        ++done;
    };
    auto slow = [&](int rank) -> Task<void> {
        co_await m.sim().delay(50 * US);
        co_await m.hwBarrier()->arrive(rank);
        co_await m.sim().delay(50 * US);
        co_await m.hwBarrier()->arrive(rank);
        ++done;
    };
    m.sim().spawn(fast());
    m.sim().spawn(slow(1));
    m.sim().spawn(slow(2));
    m.sim().spawn(slow(3));
    m.run();
    EXPECT_EQ(done, 4);
    EXPECT_EQ(m.hwBarrier()->episodes(), 2u);
}

TEST(HwBarrier, SingleRankIsImmediatePlusLatency)
{
    Machine m(t3dConfig(), 1);
    Time when = -1;
    auto prog = [&]() -> Task<void> {
        co_await m.hwBarrier()->arrive(0);
        when = m.sim().now();
    };
    m.sim().spawn(prog());
    m.run();
    EXPECT_EQ(when, microseconds(3));
}

} // namespace
} // namespace ccsim::machine

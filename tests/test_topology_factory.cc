/** @file Unit tests for the string-spec topology factory. */

#include <algorithm>
#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "net/dragonfly.hh"
#include "net/fat_tree.hh"
#include "net/hierarchical.hh"
#include "net/topology_factory.hh"
#include "util/error.hh"

namespace ccsim::net {
namespace {

/** The factory must reject `spec` for `p` nodes, and the ConfigError
 *  text must carry the spec and `why` so the CLI message is usable. */
void
expectRejects(const std::string &spec, int p, const std::string &why)
{
    try {
        makeTopology(spec, p);
        FAIL() << "spec '" << spec << "' accepted for p=" << p;
    } catch (const ConfigError &e) {
        EXPECT_NE(std::string(e.what()).find(spec), std::string::npos)
            << e.what();
        EXPECT_NE(std::string(e.what()).find(why), std::string::npos)
            << e.what();
    }
}

TEST(TopologyFactory, BuildsEveryFamilyAtDefaultShape)
{
    for (const char *family :
         {"mesh2d", "torus3d", "omega", "hypercube", "fattree",
          "fully-connected", "dragonfly"}) {
        auto t = makeTopology(family, 16);
        ASSERT_NE(t, nullptr) << family;
        EXPECT_EQ(t->numNodes(), 16) << family;
        // Every pair must route within the fabric's link space.
        for (int s = 0; s < 16; ++s)
            for (int d = 0; d < 16; ++d)
                t->forEachLink(s, d, [&](LinkId l) {
                    EXPECT_GE(l, 0) << family;
                    EXPECT_LT(l, t->numLinks()) << family;
                });
    }
}

TEST(TopologyFactory, ExplicitDimensionsAreHonoured)
{
    auto mesh = makeTopology("mesh2d:2x8", 16);
    EXPECT_NE(mesh->name().find("2x8"), std::string::npos);

    auto torus = makeTopology("torus3d:4x2x2", 16);
    EXPECT_NE(torus->name().find("4x2x2"), std::string::npos);

    auto omega = makeTopology("omega:2", 16);
    EXPECT_NE(omega->name().find("radix-2"), std::string::npos)
        << omega->name();

    auto df = makeTopology("dragonfly:4x2x2", 16);
    auto *d = dynamic_cast<Dragonfly *>(df.get());
    ASSERT_NE(d, nullptr);
    EXPECT_EQ(d->groups(), 4);
    EXPECT_EQ(d->routersPerGroup(), 2);
    EXPECT_EQ(d->nodesPerRouter(), 2);
}

TEST(TopologyFactory, FatTreeSpecParsesLevelsAndRadices)
{
    auto t = makeTopology("fattree:2;4,4;1,2", 16);
    auto *ft = dynamic_cast<FatTree *>(t.get());
    ASSERT_NE(ft, nullptr);
    EXPECT_EQ(ft->levels(), 2);
    EXPECT_EQ(ft->numNodes(), 16);
    EXPECT_EQ(ft->switchesAt(1), 4);
    EXPECT_EQ(ft->switchesAt(2), 2);
}

TEST(TopologyFactory, HierSpecWrapsInnerTopology)
{
    auto t = makeTopology("hier:2x4/mesh2d", 64);
    auto *h = dynamic_cast<Hierarchical *>(t.get());
    ASSERT_NE(h, nullptr);
    EXPECT_EQ(h->numNodes(), 64);
    EXPECT_EQ(h->chipsPerNode(), 2);
    EXPECT_EQ(h->coresPerChip(), 4);
    EXPECT_EQ(h->inner().numNodes(), 8); // 64 / (2*4)
    EXPECT_EQ(h->numLinkClasses(), 3);

    // Inner spec with explicit dims rides through unchanged.
    auto t2 = makeTopology("hier:1x2/torus3d:2x2x2", 16);
    auto *h2 = dynamic_cast<Hierarchical *>(t2.get());
    ASSERT_NE(h2, nullptr);
    EXPECT_EQ(h2->inner().numNodes(), 8);
}

TEST(TopologyFactory, OmegaTakesAnyNodeCount)
{
    // Ports past p are padding, so omega needs no power of two.
    for (int p : {3, 12}) {
        auto t = makeTopology("omega", p);
        EXPECT_EQ(t->numNodes(), p);
        for (int s = 0; s < p; ++s)
            for (int d = 0; d < p; ++d)
                t->forEachLink(s, d, [&](LinkId l) {
                    EXPECT_GE(l, 0);
                    EXPECT_LT(l, t->numLinks());
                });
    }
    EXPECT_EQ(makeTopology("omega", 12)->name(),
              "omega 12-node radix-4 (2 stages)");
}

TEST(TopologyFactory, OneNodeIsOneFullyConnectedNode)
{
    for (const char *spec :
         {"mesh2d", "torus3d", "omega", "hypercube", "fattree",
          "fully-connected", "dragonfly", "omega:8"}) {
        auto t = makeTopology(spec, 1);
        EXPECT_EQ(t->name(), "fully-connected 1-node") << spec;
        EXPECT_EQ(t->numLinks(), 1u) << spec;
    }
    // A `hier:` inner of one node collapses the same way.
    auto t = makeTopology("hier:2x2/omega", 4);
    auto *h = dynamic_cast<Hierarchical *>(t.get());
    ASSERT_NE(h, nullptr);
    EXPECT_EQ(h->numNodes(), 4);
    EXPECT_EQ(h->inner().name(), "fully-connected 1-node");
    // The family is still checked.
    expectRejects("omgea", 1, "did you mean 'omega'");
}

TEST(TopologyFactory, CheckNeedsNoNodeCount)
{
    checkTopologySpec("hier:2x4/fattree:2;4,4;1,2");
    checkTopologySpec("omega:8");
    for (const char *bad : {"", "hier:2/omega", "hier:2x4/"})
        EXPECT_THROW(checkTopologySpec(bad), ConfigError) << bad;
    try {
        checkTopologySpec("hier:2x4/torus2d");
        FAIL() << "accepted unknown family";
    } catch (const ConfigError &e) {
        EXPECT_NE(std::string(e.what()).find("did you mean 'torus3d'"),
                  std::string::npos)
            << e.what();
    }
}

TEST(TopologyFactory, UnknownFamilySuggestsClosestMatch)
{
    try {
        makeTopology("mesh2", 16);
        FAIL() << "accepted unknown family";
    } catch (const ConfigError &e) {
        EXPECT_NE(std::string(e.what()).find("mesh2d"),
                  std::string::npos)
            << e.what();
    }
}

TEST(TopologyFactory, MalformedSpecsAreTypedConfigErrors)
{
    expectRejects("mesh2d:3x3", 16, "16");       // product mismatch
    expectRejects("torus3d:0x4x4", 16, "dimension");
    expectRejects("omega:1", 8, "radix");
    expectRejects("hypercube", 12, "power-of-two");
    expectRejects("fattree:2;4,4", 16, "u1");     // missing up list
    expectRejects("fattree:0;;", 16, "level count");
    expectRejects("fattree:2;4,4;1,2,2", 16, "up");
    expectRejects("dragonfly:4x2", 16, "GROUPS");
    expectRejects("hier:2x4/mesh2d", 12, "divide");
    expectRejects("hier:/mesh2d", 16, "CHIPSxCORES");
    expectRejects("hier:2x4/", 16, "family");
    expectRejects("", 16, "empty");
}

TEST(TopologyFactory, FamilyListCoversTheGrammar)
{
    auto fams = topologyFamilies();
    for (const char *want :
         {"mesh2d", "torus3d", "omega", "hypercube", "fattree",
          "fully-connected", "dragonfly", "hier"})
        EXPECT_NE(std::find(fams.begin(), fams.end(), want),
                  fams.end())
            << want;
}

TEST(TopologyFactory, ExhaustedErrorExitCodeIsConfig)
{
    try {
        makeTopology("nonsense", 8);
        FAIL();
    } catch (const ConfigError &e) {
        EXPECT_EQ(e.exitCode(), kConfigExit);
    }
}

} // namespace
} // namespace ccsim::net

/** @file Tests for MachineConfig serialization. */

#include <sstream>

#include <gtest/gtest.h>

#include "machine/config_io.hh"
#include "util/logging.hh"

namespace ccsim::machine {
namespace {

void
expectConfigsEqual(const MachineConfig &a, const MachineConfig &b)
{
    EXPECT_EQ(a.name, b.name);
    EXPECT_EQ(a.topologySpec(), b.topologySpec());
    EXPECT_DOUBLE_EQ(a.network.link_bandwidth_mbs,
                     b.network.link_bandwidth_mbs);
    EXPECT_EQ(a.network.hop_latency, b.network.hop_latency);
    EXPECT_EQ(a.network.packet_overhead, b.network.packet_overhead);
    EXPECT_EQ(a.network.contention, b.network.contention);
    EXPECT_EQ(a.transport.send_overhead, b.transport.send_overhead);
    EXPECT_EQ(a.transport.recv_overhead, b.transport.recv_overhead);
    EXPECT_DOUBLE_EQ(a.transport.copy_bandwidth_mbs,
                     b.transport.copy_bandwidth_mbs);
    EXPECT_EQ(a.transport.eager_threshold, b.transport.eager_threshold);
    EXPECT_EQ(a.transport.rendezvous_overhead,
              b.transport.rendezvous_overhead);
    EXPECT_DOUBLE_EQ(a.transport.coprocessor_overlap,
                     b.transport.coprocessor_overlap);
    EXPECT_EQ(a.transport.blt_enabled, b.transport.blt_enabled);
    EXPECT_EQ(a.transport.blt_threshold, b.transport.blt_threshold);
    EXPECT_EQ(a.transport.blt_setup, b.transport.blt_setup);
    EXPECT_DOUBLE_EQ(a.reduce_bandwidth_mbs, b.reduce_bandwidth_mbs);
    EXPECT_EQ(a.hardware_barrier, b.hardware_barrier);
    EXPECT_EQ(a.hardware_barrier_latency, b.hardware_barrier_latency);
    const HierarchySpec &ha = a.hierarchy;
    const HierarchySpec &hb = b.hierarchy;
    EXPECT_DOUBLE_EQ(ha.chip.link_bandwidth_mbs,
                     hb.chip.link_bandwidth_mbs);
    EXPECT_EQ(ha.chip.hop_latency, hb.chip.hop_latency);
    EXPECT_DOUBLE_EQ(ha.node.link_bandwidth_mbs,
                     hb.node.link_bandwidth_mbs);
    EXPECT_EQ(ha.node.hop_latency, hb.node.hop_latency);
    const fault::FaultSpec &fa = a.fault;
    const fault::FaultSpec &fb = b.fault;
    EXPECT_EQ(fa.seed, fb.seed);
    EXPECT_DOUBLE_EQ(fa.link_degrade_rate, fb.link_degrade_rate);
    EXPECT_DOUBLE_EQ(fa.link_degrade_factor, fb.link_degrade_factor);
    EXPECT_DOUBLE_EQ(fa.link_blackhole_rate, fb.link_blackhole_rate);
    EXPECT_EQ(fa.window_start, fb.window_start);
    EXPECT_EQ(fa.window_duration, fb.window_duration);
    EXPECT_DOUBLE_EQ(fa.straggler_rate, fb.straggler_rate);
    EXPECT_DOUBLE_EQ(fa.straggler_factor, fb.straggler_factor);
    EXPECT_DOUBLE_EQ(fa.msg_drop_rate, fb.msg_drop_rate);
    EXPECT_DOUBLE_EQ(fa.msg_delay_rate, fb.msg_delay_rate);
    EXPECT_EQ(fa.msg_delay, fb.msg_delay);
    EXPECT_EQ(fa.retry_budget, fb.retry_budget);
    EXPECT_EQ(fa.retry_timeout, fb.retry_timeout);
    EXPECT_DOUBLE_EQ(fa.retry_backoff, fb.retry_backoff);
    EXPECT_EQ(fa.policy, fb.policy);
    EXPECT_EQ(fa.escalation_budget, fb.escalation_budget);
    for (Coll op : kAllColls) {
        EXPECT_EQ(a.algorithmFor(op), b.algorithmFor(op))
            << collName(op);
        const CollCosts &ca = a.costsFor(op);
        const CollCosts &cb = b.costsFor(op);
        EXPECT_EQ(ca.entry, cb.entry) << collName(op);
        EXPECT_EQ(ca.per_stage, cb.per_stage) << collName(op);
        EXPECT_DOUBLE_EQ(ca.per_stage_ns_per_byte,
                         cb.per_stage_ns_per_byte)
            << collName(op);
        EXPECT_DOUBLE_EQ(ca.reduce_bandwidth_override_mbs,
                         cb.reduce_bandwidth_override_mbs)
            << collName(op);
        EXPECT_EQ(ca.send_overhead_override, cb.send_overhead_override)
            << collName(op);
        EXPECT_EQ(ca.recv_overhead_override, cb.recv_overhead_override)
            << collName(op);
    }
}

TEST(ConfigIo, AllPresetsRoundTrip)
{
    // A per-run topology override is saved as the machine's fabric.
    MachineConfig hier_t3d = t3dConfig();
    hier_t3d.topo_spec = "hier:2x4/fattree";
    for (const auto &cfg : {sp2Config(), t3dConfig(), paragonConfig(),
                            idealConfig(), hier_t3d}) {
        std::stringstream ss;
        saveConfig(cfg, ss);
        MachineConfig loaded = loadConfig(ss);
        expectConfigsEqual(cfg, loaded);
    }
}

TEST(ConfigIo, EveryFaultAndHierarchyFieldRoundTrips)
{
    // Every FaultSpec field and every hierarchy link parameter off
    // its default, on a fabric that reads the hierarchy block.
    MachineConfig cfg = sp2Config();
    cfg.topology = "hier:2x2/fattree";
    cfg.hierarchy.chip.link_bandwidth_mbs = 6000.0;
    cfg.hierarchy.chip.hop_latency = nanoseconds(7);
    cfg.hierarchy.node.link_bandwidth_mbs = 1500.0;
    cfg.hierarchy.node.hop_latency = nanoseconds(65);
    fault::FaultSpec &f = cfg.fault;
    f.seed = 3;
    f.link_degrade_rate = 0.1;
    f.link_degrade_factor = 0.25;
    f.link_blackhole_rate = 0.05;
    f.window_start = microseconds(20);
    f.window_duration = microseconds(500);
    f.straggler_rate = 0.125;
    f.straggler_factor = 3.0;
    f.msg_drop_rate = 0.01;
    f.msg_delay_rate = 0.02;
    f.msg_delay = microseconds(15);
    f.retry_budget = 6;
    f.retry_timeout = microseconds(250);
    f.retry_backoff = 1.5;
    f.policy = fault::RecoveryPolicy::Degrade;
    f.escalation_budget = 3;

    std::stringstream ss;
    saveConfig(cfg, ss);
    const std::string doc = ss.str();
    EXPECT_NE(doc.find("\nfault.policy = degrade\n"), std::string::npos)
        << doc;
    EXPECT_NE(doc.find("\nfault.escalation_budget = 3\n"),
              std::string::npos)
        << doc;
    MachineConfig loaded = loadConfig(ss);
    expectConfigsEqual(cfg, loaded);

    // The document is a fixed point of save -> load -> save.
    std::ostringstream again;
    saveConfig(loaded, again);
    EXPECT_EQ(again.str(), doc);
}

TEST(ConfigIo, BasePresetWithOverrides)
{
    std::stringstream ss;
    ss << "base = SP2\n"
       << "name = FatPipeSP2\n"
       << "link_bandwidth_mbs = 150\n"
       << "bcast.algorithm = scatter-allgather\n"
       << "bcast.per_stage_us = 10\n";
    MachineConfig cfg = loadConfig(ss);
    EXPECT_EQ(cfg.name, "FatPipeSP2");
    EXPECT_EQ(cfg.topology, "omega"); // from the base
    EXPECT_DOUBLE_EQ(cfg.network.link_bandwidth_mbs, 150.0);
    EXPECT_EQ(cfg.algorithmFor(Coll::Bcast), Algo::ScatterAllgather);
    EXPECT_EQ(cfg.costsFor(Coll::Bcast).per_stage, microseconds(10));
    // Untouched fields keep the SP2 calibration.
    EXPECT_EQ(cfg.transport.send_overhead,
              sp2Config().transport.send_overhead);
}

TEST(ConfigIo, CommentsAndBlanksIgnored)
{
    std::stringstream ss;
    ss << "# header comment\n\n"
       << "name = X  # trailing comment\n"
       << "   \n"
       << "link_bandwidth_mbs = 5\n";
    MachineConfig cfg = loadConfig(ss);
    EXPECT_EQ(cfg.name, "X");
    EXPECT_DOUBLE_EQ(cfg.network.link_bandwidth_mbs, 5.0);
}

TEST(ConfigIo, ErrorsAreFatal)
{
    throwOnError(true);
    auto load = [](const std::string &text) {
        std::stringstream ss(text);
        return loadConfig(ss);
    };
    EXPECT_THROW(load("bogus_key = 1\n"), FatalError);
    EXPECT_THROW(load("link_bandwidth_mbs = fast\n"), FatalError);
    EXPECT_THROW(load("contention = maybe\n"), FatalError);
    EXPECT_THROW(load("no equals sign\n"), FatalError);
    EXPECT_THROW(load("bcast.bogus = 1\n"), FatalError);
    EXPECT_THROW(load("warp.algorithm = linear\n"), FatalError);
    EXPECT_THROW(load("bcast.algorithm = warp-speed\n"), FatalError);
    EXPECT_THROW(load("topology = moebius\n"), FatalError);
    EXPECT_THROW(load("topology = hier:2x2/moebius\n"), FatalError);
    EXPECT_THROW(load("topology_spec = moebius\n"), FatalError);
    EXPECT_THROW(load("name = x\nbase = SP2\n"), FatalError);
    EXPECT_THROW(load("base = VAX\n"), FatalError);
    // Validation runs on load: hardware algo without hardware.
    EXPECT_THROW(load("barrier.algorithm = hardware\n"), FatalError);
    // Non-finite numbers, and times past Time's picosecond range, are
    // bad numbers: they never reach the simulator.
    for (const char *doc :
         {"link_bandwidth_mbs = nan\n", "copy_bandwidth_mbs = nan\n",
          "coprocessor_overlap = nan\n", "reduce_bandwidth_mbs = nan\n",
          "link_bandwidth_mbs = inf\n", "hop_latency_ns = -inf\n",
          "hop_latency_ns = 1e300\n", "hop_latency_ns = -1e300\n"})
        EXPECT_THROW(load(doc), ConfigError) << doc;
    throwOnError(false);
}

TEST(ConfigIo, NameHelpers)
{
    EXPECT_EQ(collKey(Coll::Alltoall), "alltoall");
    EXPECT_EQ(collKey(Coll::ReduceScatter), "reduce_scatter");
    EXPECT_EQ(algoFromName("binomial"), Algo::Binomial);
    EXPECT_EQ(algoFromName("rabenseifner"), Algo::Rabenseifner);
    EXPECT_EQ(presetByName("T3D").name, "T3D");
}

TEST(ConfigIo, CollFromKeyInvertsCollKey)
{
    for (Coll op : kAllColls)
        EXPECT_EQ(collFromKey(collKey(op)), op) << collName(op);
    EXPECT_EQ(collFromKey("broadcast"), std::nullopt); // collName
    EXPECT_EQ(collFromKey(""), std::nullopt);
}

TEST(ConfigIo, LegacyTopologyKeysStillLoad)
{
    // Documents that name the fabric with the legacy keys, the spec
    // each folds into, and the fabric it builds (pinned values).
    struct Case
    {
        const char *doc;
        const char *spec;
        int p;
        const char *fabric;
        std::size_t links;
    };
    const Case cases[] = {
        {"base = SP2\ntopology = omega\nswitch_radix = 8\n", "omega:8",
         64, "omega 64-node radix-8 (2 stages)", 192},
        {"topology = torus3d\nswitch_radix = 8\n", "torus3d", 12,
         "torus3d 3x2x2", 72},
        {"base = T3D\nhierarchy.chips = 2\nhierarchy.cores = 2\n",
         "hier:2x2/torus3d", 32, "hier 2chip x 2core / torus3d 2x2x2",
         72},
        {"base = T3D\nhierarchy.chips = 2\nhierarchy.cores = 2\n"
         "topology_spec = fattree\n",
         "fattree", 16, "fat-tree XGFT(2; 4,4; 1,2)", 48},
        {"base = SP2\ntopology_spec = fattree\ntopology_spec = none\n",
         "omega", 12, "omega 12-node radix-4 (2 stages)", 44},
    };
    for (const Case &c : cases) {
        std::istringstream in(c.doc);
        const MachineConfig cfg = loadConfig(in);
        EXPECT_EQ(cfg.topology, c.spec) << c.doc;
        EXPECT_TRUE(cfg.topo_spec.empty()) << c.doc;
        auto topo = cfg.makeTopology(c.p);
        EXPECT_EQ(topo->name(), c.fabric) << c.doc;
        EXPECT_EQ(topo->numLinks(), c.links) << c.doc;

        // Saved in the new form, the document is a fixed point.
        std::ostringstream first;
        saveConfig(cfg, first);
        EXPECT_NE(first.str().find(std::string("\ntopology = ") +
                                   c.spec + "\n"),
                  std::string::npos)
            << first.str();
        for (const char *gone :
             {"topology_spec", "switch_radix", "hierarchy.chips",
              "hierarchy.cores"})
            EXPECT_EQ(first.str().find(gone), std::string::npos)
                << gone;
        std::istringstream reread(first.str());
        std::ostringstream second;
        saveConfig(loadConfig(reread), second);
        EXPECT_EQ(first.str(), second.str()) << c.doc;
    }
}

TEST(ConfigIo, FileRoundTrip)
{
    std::string path = "/tmp/ccsim_config_test.cfg";
    saveConfigFile(t3dConfig(), path);
    MachineConfig loaded = loadConfigFile(path);
    expectConfigsEqual(t3dConfig(), loaded);
}

TEST(ConfigIo, MissingFileFatal)
{
    throwOnError(true);
    EXPECT_THROW(loadConfigFile("/nonexistent/nowhere.cfg"),
                 FatalError);
    throwOnError(false);
}

} // namespace
} // namespace ccsim::machine

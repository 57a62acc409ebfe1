#include "machine/machine_config.hh"

#include "net/topology_factory.hh"
#include "util/logging.hh"

namespace ccsim::machine {

std::unique_ptr<net::Topology>
MachineConfig::makeTopology(int p) const
{
    return net::makeTopology(topologySpec(), p);
}

void
MachineConfig::validate() const
{
    if (name.empty())
        fatal("MachineConfig: empty machine name");
    if (topologySpec().starts_with("hier:") &&
        (hierarchy.chip.link_bandwidth_mbs <= 0 ||
         hierarchy.node.link_bandwidth_mbs <= 0 ||
         hierarchy.chip.hop_latency < 0 ||
         hierarchy.node.hop_latency < 0))
        fatal("MachineConfig %s: hierarchy link parameters must be "
              "positive",
              name.c_str());
    if (hardware_barrier && hardware_barrier_latency < 0)
        fatal("MachineConfig %s: negative hardware barrier latency",
              name.c_str());
    if (reduce_bandwidth_mbs <= 0)
        fatal("MachineConfig %s: reduce bandwidth must be positive",
              name.c_str());
    for (Coll c : kAllColls) {
        const CollCosts &cc = costsFor(c);
        if (cc.entry < 0 || cc.per_stage < 0)
            fatal("MachineConfig %s: negative collective cost for %s",
                  name.c_str(), collName(c).c_str());
    }
    if (!hardware_barrier && algorithmFor(Coll::Barrier) == Algo::Hardware)
        fatal("MachineConfig %s: hardware barrier algorithm without "
              "hardware barrier support", name.c_str());
    fault.validate();
}

namespace {

/** Era-correct software algorithm defaults (MPICH 1.x lineage). */
void
setDefaultAlgorithms(MachineConfig &m)
{
    m.setAlgorithm(Coll::Barrier, Algo::Dissemination);
    m.setAlgorithm(Coll::Bcast, Algo::Binomial);
    m.setAlgorithm(Coll::Gather, Algo::Linear);
    m.setAlgorithm(Coll::Scatter, Algo::Linear);
    m.setAlgorithm(Coll::Allgather, Algo::Ring);
    m.setAlgorithm(Coll::Alltoall, Algo::Pairwise);
    m.setAlgorithm(Coll::Reduce, Algo::Binomial);
    m.setAlgorithm(Coll::Allreduce, Algo::ReduceBcast);
    m.setAlgorithm(Coll::ReduceScatter, Algo::RecursiveHalving);
    m.setAlgorithm(Coll::Scan, Algo::RecursiveDoubling);
}

} // namespace

MachineConfig
sp2Config()
{
    MachineConfig m;
    m.name = "SP2";
    m.topology = "omega";

    m.network.link_bandwidth_mbs = 40.0;
    m.network.hop_latency = nanoseconds(125);
    m.network.packet_overhead = 0;
    m.network.contention = true;

    m.transport.send_overhead = microseconds(5.5);
    m.transport.recv_overhead = microseconds(3.5);
    m.transport.copy_bandwidth_mbs = 300.0;
    m.transport.eager_threshold = 4 * KiB;
    m.transport.rendezvous_overhead = microseconds(8);
    m.transport.coprocessor_overlap = 0.0;
    m.transport.blt_enabled = false;

    m.reduce_bandwidth_mbs = 200.0;

    setDefaultAlgorithms(m);
    m.costsFor(Coll::Barrier) = {.entry = 0,
                                 .per_stage = microseconds(112)};
    m.costsFor(Coll::Bcast) = {.entry = microseconds(20),
                               .per_stage = microseconds(44)};
    m.costsFor(Coll::Gather) = {.entry = microseconds(100),
                                .per_stage = 0};
    m.costsFor(Coll::Scatter) = {.entry = microseconds(70),
                                 .per_stage = 0,
                                 .per_stage_ns_per_byte = 36.5};
    m.costsFor(Coll::Allgather) = {.entry = microseconds(50),
                                   .per_stage = microseconds(20)};
    m.costsFor(Coll::Alltoall) = {.entry = microseconds(80),
                                  .per_stage = microseconds(13),
                                  .per_stage_ns_per_byte = 24.3};
    m.costsFor(Coll::Reduce) = {.entry = microseconds(20),
                                .per_stage = microseconds(52)};
    m.costsFor(Coll::Allreduce) = {.entry = microseconds(30),
                                   .per_stage = microseconds(50)};
    m.costsFor(Coll::ReduceScatter) = {.entry = microseconds(30),
                                       .per_stage = microseconds(50)};
    m.costsFor(Coll::Scan) = {.entry = 0,
                              .per_stage = microseconds(89)};
    return m;
}

MachineConfig
t3dConfig()
{
    MachineConfig m;
    m.name = "T3D";
    m.topology = "torus3d";

    m.network.link_bandwidth_mbs = 300.0;
    m.network.hop_latency = nanoseconds(20);
    m.network.packet_overhead = 0;
    m.network.contention = true;

    m.transport.send_overhead = microseconds(4);
    m.transport.recv_overhead = microseconds(5);
    m.transport.copy_bandwidth_mbs = 150.0;
    m.transport.eager_threshold = 4 * KiB;
    m.transport.rendezvous_overhead = microseconds(5);
    m.transport.coprocessor_overlap = 0.0;
    m.transport.blt_enabled = true;
    m.transport.blt_threshold = 8 * KiB;
    m.transport.blt_setup = microseconds(25);

    m.reduce_bandwidth_mbs = 17.0;

    m.hardware_barrier = true;
    m.hardware_barrier_latency = microseconds(3);

    setDefaultAlgorithms(m);
    m.setAlgorithm(Coll::Barrier, Algo::Hardware);
    m.costsFor(Coll::Barrier) = {.entry = 0, .per_stage = 0};
    m.costsFor(Coll::Bcast) = {.entry = microseconds(10),
                               .per_stage = microseconds(14),
                               .per_stage_ns_per_byte = 8.8};
    m.costsFor(Coll::Gather) = {.entry = microseconds(25),
                                .per_stage = 0,
                                .per_stage_ns_per_byte = 5.0};
    m.costsFor(Coll::Scatter) = {.entry = microseconds(60),
                                 .per_stage = 0,
                                 .per_stage_ns_per_byte = 9.2};
    m.costsFor(Coll::Allgather) = {.entry = microseconds(10),
                                   .per_stage = microseconds(14)};
    m.costsFor(Coll::Alltoall) = {.entry = microseconds(8),
                                  .per_stage = microseconds(17),
                                  .per_stage_ns_per_byte = 14.0};
    m.costsFor(Coll::Reduce) = {.entry = microseconds(40),
                                .per_stage = microseconds(25)};
    m.costsFor(Coll::Allreduce) = {.entry = microseconds(40),
                                   .per_stage = microseconds(25)};
    m.costsFor(Coll::ReduceScatter) = {.entry = microseconds(40),
                                       .per_stage = microseconds(25)};
    m.costsFor(Coll::Scan) = {.entry = microseconds(35),
                              .per_stage = microseconds(19),
                              .reduce_bandwidth_override_mbs = 22.0};
    return m;
}

MachineConfig
paragonConfig()
{
    MachineConfig m;
    m.name = "Paragon";
    m.topology = "mesh2d";

    m.network.link_bandwidth_mbs = 175.0;
    m.network.hop_latency = nanoseconds(40);
    m.network.packet_overhead = 0;
    m.network.contention = true;

    m.transport.send_overhead = microseconds(17);
    m.transport.recv_overhead = microseconds(46);
    m.transport.copy_bandwidth_mbs = 400.0;
    m.transport.eager_threshold = 4 * KiB;
    m.transport.rendezvous_overhead = microseconds(12);
    m.transport.coprocessor_overlap = 0.85;
    m.transport.blt_enabled = false;

    m.reduce_bandwidth_mbs = 7.0;

    setDefaultAlgorithms(m);
    m.costsFor(Coll::Barrier) = {.entry = 0,
                                 .per_stage = microseconds(84)};
    m.costsFor(Coll::Bcast) = {.entry = microseconds(15),
                               .per_stage = microseconds(8),
                               .per_stage_ns_per_byte = 10.5,
                               .recv_overhead_override = microseconds(25)};
    m.costsFor(Coll::Gather) = {.entry = microseconds(10),
                                .per_stage = 0,
                                .per_stage_ns_per_byte = 10.0};
    m.costsFor(Coll::Scatter) = {.entry = microseconds(70),
                                 .per_stage = 0};
    m.costsFor(Coll::Allgather) = {.entry = microseconds(20),
                                   .per_stage = microseconds(20)};
    m.costsFor(Coll::Alltoall) = {.entry = microseconds(80),
                                  .per_stage = microseconds(34),
                                  .per_stage_ns_per_byte = 23.0};
    m.costsFor(Coll::Reduce) = {.entry = 0,
                                .per_stage = microseconds(14)};
    m.costsFor(Coll::Allreduce) = {.entry = 0,
                                   .per_stage = microseconds(14)};
    m.costsFor(Coll::ReduceScatter) = {.entry = 0,
                                       .per_stage = microseconds(14)};
    // NX kernel fast path: the anomalously cheap Paragon scan the
    // paper highlights (Fig. 1e / Table 3).
    m.costsFor(Coll::Scan) = {.entry = microseconds(60),
                              .per_stage = 0,
                              .reduce_bandwidth_override_mbs = 15.0,
                              .send_overhead_override = microseconds(5),
                              .recv_overhead_override = microseconds(7)};
    return m;
}

MachineConfig
idealConfig()
{
    MachineConfig m;
    m.name = "Ideal";
    m.topology = "fully-connected";

    m.network.link_bandwidth_mbs = 1000.0;
    m.network.hop_latency = nanoseconds(10);
    m.network.contention = true;

    m.transport.send_overhead = microseconds(1);
    m.transport.recv_overhead = microseconds(1);
    m.transport.copy_bandwidth_mbs = 4000.0;
    m.transport.eager_threshold = 16 * KiB;
    m.transport.rendezvous_overhead = microseconds(1);

    m.reduce_bandwidth_mbs = 500.0;

    setDefaultAlgorithms(m);
    return m;
}

std::array<MachineConfig, 3>
paperMachines()
{
    return {sp2Config(), t3dConfig(), paragonConfig()};
}

} // namespace ccsim::machine

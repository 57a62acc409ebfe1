/**
 * @file
 * MachineConfig: the complete parameter set describing one
 * message-passing multicomputer, plus calibrated presets for the
 * paper's three machines.
 *
 * Everything the simulator knows about a machine is in this plain
 * struct — topology spec, physical link parameters, messaging
 * software overheads, special hardware (barrier tree, block-transfer
 * engine, message coprocessor), per-collective algorithm defaults
 * and software costs — so ablations are one-field edits and new
 * machines are pure data.
 *
 * Calibration notes and the residuals against the paper's Table 3
 * live in EXPERIMENTS.md.
 */

#ifndef CCSIM_MACHINE_MACHINE_CONFIG_HH
#define CCSIM_MACHINE_MACHINE_CONFIG_HH

#include <array>
#include <memory>
#include <string>

#include "fault/fault_spec.hh"
#include "machine/collective_types.hh"
#include "msg/transport.hh"
#include "net/network.hh"
#include "net/topology.hh"

namespace ccsim::tuning {
class SelectionTable; // src/tuning: per-(op, p, m) decision map
}

namespace ccsim::machine {

/**
 * Link parameters of the multi-core nodes a `hier:CxK/inner`
 * topology hangs off every network endpoint (net::Hierarchical).
 * The shape is part of the topology spec; these set the two extra
 * link classes and are unused by flat fabrics.
 */
struct HierarchySpec
{
    /** Link class 1: the shared on-chip interconnect. */
    net::NetworkParams chip{.link_bandwidth_mbs = 8000.0,
                            .hop_latency = nanoseconds(5)};

    /** Link class 2: the shared in-node bus / NIC path. */
    net::NetworkParams node{.link_bandwidth_mbs = 2000.0,
                            .hop_latency = nanoseconds(50)};
};

/** Full description of one simulated multicomputer. */
struct MachineConfig
{
    std::string name = "unnamed";

    /**
     * The machine's fabric, in the net::makeTopology spec grammar
     * (docs/TOPOLOGY.md): "omega", "torus3d:8x4x4",
     * "hier:2x4/fattree"...  A family without parameters gets a
     * balanced shape for each node count.
     */
    std::string topology = "fully-connected";

    /**
     * Per-run override of `topology`, in the same grammar (`--topo`,
     * the serve `topo=` field).  Empty keeps the machine's own
     * fabric.
     */
    std::string topo_spec;

    /** Link parameters for `hier:` fabrics (see HierarchySpec). */
    HierarchySpec hierarchy;

    /** Physical network parameters. */
    net::NetworkParams network;

    /** Messaging software/protocol parameters. */
    msg::TransportParams transport;

    /** Fault injection (disabled by default: all rates zero). */
    fault::FaultSpec fault;

    /**
     * Collect runtime metrics (the machine probe's metric groups) on
     * machines built from this config.  Off by default — the hot
     * paths then skip all metric updates — and deliberately not
     * persisted by
     * config-file I/O: observability is a per-run choice
     * (--metrics), not a machine property, and simulated results are
     * identical either way.
     */
    bool collect_metrics = false;

    /**
     * Active algorithm selection table: resolves Algo::Auto calls to
     * a concrete algorithm per (op, p, m).  Null (the default) makes
     * Auto identical to Default — the machine's configured per-op
     * choice below.  Shared and immutable so copying a config (every
     * sweep point does) stays cheap.  Like collect_metrics, this is
     * deliberately not persisted by config-file I/O: tables have
     * their own file format (tuning::SelectionTable) and are attached
     * per run (--selection), not baked into a machine description.
     */
    std::shared_ptr<const tuning::SelectionTable> selection;

    /** Dedicated barrier network (T3D's hardwired AND tree). */
    bool hardware_barrier = false;

    /** Latency of a hardware barrier once all ranks have arrived. */
    Time hardware_barrier_latency = 0;

    /** Rate at which a node combines operands in reduce/scan/
     *  allreduce (models FPU + memory system), MB/s. */
    double reduce_bandwidth_mbs = 100.0;

    /** Algorithm the vendor MPI uses per collective. */
    std::array<Algo, kNumColl> algorithms{};

    /** Per-collective software calibration. */
    std::array<CollCosts, kNumColl> costs{};

    /** Accessors by collective. */
    Algo
    algorithmFor(Coll c) const
    {
        return algorithms[static_cast<size_t>(c)];
    }

    const CollCosts &
    costsFor(Coll c) const
    {
        return costs[static_cast<size_t>(c)];
    }

    CollCosts &
    costsFor(Coll c)
    {
        return costs[static_cast<size_t>(c)];
    }

    void
    setAlgorithm(Coll c, Algo a)
    {
        algorithms[static_cast<size_t>(c)] = a;
    }

    /** The fabric this config builds: topo_spec when set, else
     *  topology.  makeTopology(), saveConfig() and the memo key all
     *  read it, so one fabric has one spelling. */
    const std::string &
    topologySpec() const
    {
        return topo_spec.empty() ? topology : topo_spec;
    }

    /** Instantiate topologySpec() for @p p nodes
     *  (ccsim::ConfigError on a bad spec). */
    std::unique_ptr<net::Topology> makeTopology(int p) const;

    /** Sanity-check all fields; fatal() on user error. */
    void validate() const;
};

/**
 * IBM SP2 (MHPCC configuration): POWER2 thin nodes on a multistage
 * Vulcan switch.  ~40 MB/s links, 125 ns per hop, MPICH-derived MPI
 * with heavyweight collective layering (the measured SP2 barrier
 * costs ~123 us per dissemination round).
 */
MachineConfig sp2Config();

/**
 * Cray T3D (Eagan configuration): Alpha 21064 nodes on a 3-D torus.
 * ~300 MB/s links, 20 ns per hop, hardwired barrier tree (~3 us),
 * block-transfer engine for long messages, low-overhead fast
 * messaging (prefetch queue / remote stores).
 */
MachineConfig t3dConfig();

/**
 * Intel Paragon (SDSC configuration): i860 nodes on a 2-D mesh with
 * a dedicated i860 message coprocessor per node.  ~175 MB/s links,
 * 40 ns per hop, NX messaging with expensive per-message software —
 * especially in the NX gather / total-exchange collectives — but a
 * kernel fast path for scan.
 */
MachineConfig paragonConfig();

/**
 * An idealized machine: fully-connected contention-free network,
 * zero software overhead beyond copies.  Baseline for ablations.
 */
MachineConfig idealConfig();

/**
 * A shared immutable machine description.  Machine construction from
 * a handle copies nothing: any number of concurrent sessions (e.g.\
 * the `ccsim serve` query daemon's connections) can instantiate
 * Machines from one parsed-and-validated config.  Obtain handles
 * from sharedPreset() / sharedConfigFile() (config_io.hh), or wrap a
 * hand-built config once with std::make_shared.
 */
using ConfigHandle = std::shared_ptr<const MachineConfig>;

/** The paper's three machines, in its presentation order. */
std::array<MachineConfig, 3> paperMachines();

} // namespace ccsim::machine

#endif // CCSIM_MACHINE_MACHINE_CONFIG_HH

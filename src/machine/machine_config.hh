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
#include <concepts>
#include <memory>
#include <string>
#include <type_traits>

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
 * The one list of MachineConfig's persisted fields, in document
 * order: calls `f(Field{scope, key, unit}, storage)` for each
 * (util/field.hh).  saveConfig(), loadConfig() and the point key
 * (harness::measurePointKey) are its consumers.
 *
 * @p C is MachineConfig to read into it: every block is visited.  A
 * const MachineConfig is the writing walk, which visits what a saved
 * document holds:
 *  - `topology` is topologySpec(), so a per-run override is saved as
 *    the machine's fabric (reading sets `topology`);
 *  - the `hierarchy.*` block only for a `hier:` fabric and the
 *    `fault.*` block only when the faults are enabled, each after a
 *    gate entry whose value says whether the block follows;
 *  - the per-collective overrides always, marked `omitted` while
 *    unset.
 * `selection`, `collect_metrics` and `topo_spec` are per-run
 * choices, not machine properties, and are not persisted.
 */
template <class C, class F>
    requires std::same_as<std::remove_const_t<C>, MachineConfig>
void
forEachField(C &cfg, F &&f)
{
    constexpr bool writing = std::is_const_v<C>;
    constexpr Unit us = Unit::Micros;
    constexpr Unit ns = Unit::Nanos;
    static constexpr std::string_view hier = "hierarchy";
    static constexpr std::string_view faults = "fault";
    auto field = [&f](std::string_view scope, std::string_view key,
                      auto &v, Unit unit = Unit::Plain,
                      bool omitted = false) {
        f(Field{scope, key, {}, unit, omitted}, v);
    };
    // Enter a gated block: always when reading; when writing, after
    // telling @p f whether the block applies.
    auto enter = [&f](std::string_view scope, const bool applies) {
        if constexpr (writing)
            f(Field{scope, {}, {}, Unit::Plain, true}, applies);
        return !writing || applies;
    };

    field({}, "name", cfg.name);
    auto &fabric = [&cfg]() -> auto & {
        if constexpr (writing)
            return cfg.topologySpec();
        else
            return cfg.topology;
    }();
    field({}, "topology", fabric);
    auto &n = cfg.network;
    field({}, "link_bandwidth_mbs", n.link_bandwidth_mbs);
    field({}, "hop_latency_ns", n.hop_latency, ns);
    field({}, "packet_overhead", n.packet_overhead);
    field({}, "contention", n.contention);
    auto &t = cfg.transport;
    field({}, "send_overhead_us", t.send_overhead, us);
    field({}, "recv_overhead_us", t.recv_overhead, us);
    field({}, "copy_bandwidth_mbs", t.copy_bandwidth_mbs);
    field({}, "eager_threshold", t.eager_threshold);
    field({}, "rendezvous_overhead_us", t.rendezvous_overhead, us);
    field({}, "coprocessor_overlap", t.coprocessor_overlap);
    field({}, "blt_enabled", t.blt_enabled);
    field({}, "blt_threshold", t.blt_threshold);
    field({}, "blt_setup_us", t.blt_setup, us);
    field({}, "reduce_bandwidth_mbs", cfg.reduce_bandwidth_mbs);
    field({}, "hardware_barrier", cfg.hardware_barrier);
    field({}, "hardware_barrier_latency_us", cfg.hardware_barrier_latency,
          us);

    if (enter(hier, cfg.topologySpec().starts_with("hier:"))) {
        auto &h = cfg.hierarchy;
        field(hier, "chip_bandwidth_mbs", h.chip.link_bandwidth_mbs);
        field(hier, "chip_latency_ns", h.chip.hop_latency, ns);
        field(hier, "node_bandwidth_mbs", h.node.link_bandwidth_mbs);
        field(hier, "node_latency_ns", h.node.hop_latency, ns);
    }
    if (enter(faults, cfg.fault.enabled()))
        fault::forEachField(cfg.fault, [&f](Field fault_field, auto &v) {
            fault_field.scope = faults;
            f(fault_field, v);
        });

    for (std::size_t i = 0; i < kNumColl; ++i) {
        const std::string_view op = kCollKeys[i];
        auto &c = cfg.costs[i];
        field(op, "algorithm", cfg.algorithms[i]);
        field(op, "entry_us", c.entry, us);
        field(op, "per_stage_us", c.per_stage, us);
        field(op, "per_stage_ns_per_byte", c.per_stage_ns_per_byte);
        field(op, "reduce_bandwidth_override_mbs",
              c.reduce_bandwidth_override_mbs, Unit::Plain,
              c.reduce_bandwidth_override_mbs <= 0);
        field(op, "send_overhead_override_us", c.send_overhead_override,
              us, c.send_overhead_override < 0);
        field(op, "recv_overhead_override_us", c.recv_overhead_override,
              us, c.recv_overhead_override < 0);
    }
}

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

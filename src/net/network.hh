/**
 * @file
 * Network: per-link occupancy on top of a Topology.
 *
 * The model is virtual cut-through with path reservation — the
 * coarsest model that still produces the three network effects the
 * paper's results hinge on:
 *
 *  1. serialisation: two messages crossing the same wire take twice
 *     as long as one;
 *  2. topology bisection: a 2-D mesh saturates before a 3-D torus of
 *     the same size under total exchange;
 *  3. distance: per-hop router latency scales with route length.
 *
 * A transfer of b bytes from src to dst starts when every link on
 * its deterministic route is free, holds each for the wire
 * serialisation time (b + packet overhead at the link bandwidth),
 * and is fully received hops * hop_latency + serialisation after it
 * starts.  Contention can be disabled for ablation studies.
 *
 * Routing is ANALYTIC: transfer() walks the route once with a
 * RouteCursor (O(1) state, one link per step) into a reused scratch
 * vector, and its contention, slowdown and commit passes read that —
 * there is no stored route anywhere.  The old per-(src, dst) route
 * cache was O(p^2) memory and capped the simulator around p ~ 10^4;
 * with analytic walks plus lazily-paged link records (LazyArray), a
 * Network's footprint is O(links touched), and p = 10^5..10^6 rank
 * machines are simulable.  A link's record is only its next free
 * time: the Network keeps no counters.  What transfers carried (per
 * link bytes and busy time, hops, payload, grant stalls) is counted
 * by an attached stats::Probe, fed from the same commit pass.
 *
 * Heterogeneous links: a multi-class topology (Hierarchical's
 * intra-chip / intra-node / inter-node wiring) can be given per-class
 * NetworkParams via setLinkClassParams(); the worm is then gated by
 * the slowest link's serialisation and accumulates per-hop latency
 * per class.  Uniform (single-class) topologies keep the exact
 * historical arithmetic, bit for bit.
 */

#ifndef CCSIM_NET_NETWORK_HH
#define CCSIM_NET_NETWORK_HH

#include <functional>
#include <memory>
#include <vector>

#include "net/topology.hh"
#include "util/lazy_array.hh"
#include "util/units.hh"

namespace ccsim::stats {
class Probe;
}

namespace ccsim::net {

/** Physical-layer parameters of an interconnect. */
struct NetworkParams
{
    /** Per-link bandwidth in MB/s (paper: SP2 40, Paragon 175,
     *  T3D 300). */
    double link_bandwidth_mbs = 100.0;

    /** Router latency per hop (paper: SP2 125 ns, Paragon 40 ns,
     *  T3D 20 ns). */
    Time hop_latency = 0;

    /** Header/envelope bytes added to each message on the wire. */
    Bytes packet_overhead = 0;

    /** Model link contention (disable for ablation). */
    bool contention = true;
};

/** An interconnect instance: topology + link occupancy. */
class Network
{
  public:
    Network(std::unique_ptr<Topology> topo, const NetworkParams &params);

    Network(const Network &) = delete;
    Network &operator=(const Network &) = delete;

    /**
     * Move @p bytes from @p src to @p dst starting no earlier than
     * @p now; returns the absolute time the last byte arrives at the
     * destination's network interface.  src must differ from dst
     * (self-sends never touch the network).
     */
    Time transfer(int src, int dst, Bytes bytes, Time now);

    /**
     * Two-leg detour: move @p bytes src -> via -> dst as two chained
     * transfers (the second starts when the first fully arrives —
     * store-and-forward at @p via, deliberately pessimistic).  Used
     * by the fault layer's `degrade` recovery to route around a
     * black-holed link; the paid price is exactly the two legs'
     * serialisation, contention, and hop latency.  @p via must
     * differ from both endpoints.
     */
    Time transferVia(int src, int via, int dst, Bytes bytes, Time now);

    const Topology &topology() const { return *topo_; }
    /** The base wire's parameters: link class 0's. */
    const NetworkParams &params() const { return class_params_[0]; }

    /**
     * Override the physical parameters of link class @p cls (see
     * Topology::linkClass).  Class 0 defaults to the construction
     * params; classes >= 1 (hierarchical intra-chip / intra-node
     * links) default to the same until overridden.  Panics on a class
     * the topology does not have.
     */
    void setLinkClassParams(int cls, const NetworkParams &p);

    /** Effective parameters of link class @p cls. */
    const NetworkParams &linkClassParams(int cls) const;

    /** Forget all link occupancy (fresh measurement run).  O(links
     *  touched), not O(total links).  An attached probe keeps its own
     *  state. */
    void reset() { free_.clear(); }

    /**
     * Report each transfer to @p probe (null: nobody listens; the
     * default): every hop's payload bytes and serialisation time from
     * the commit pass, then the transfer's hop count, payload and
     * grant stall.  Observation only — attaching a probe never
     * changes any transfer time.
     */
    void setProbe(stats::Probe *probe) { probe_ = probe; }

    /**
     * Per-link serialisation slowdown hook (>= 1.0).  When set, each
     * transfer's wire time is scaled by the worst factor along its
     * route, sampled at the transfer's start time.  Installed by
     * machine::Machine when a fault spec degrades links; net stays
     * independent of the fault library.
     */
    using LinkSlowdownHook = std::function<double(LinkId, Time)>;
    void
    setLinkSlowdownHook(LinkSlowdownHook hook)
    {
        slowdown_hook_ = std::move(hook);
    }

  private:
    std::unique_ptr<Topology> topo_;
    /** Per-link-class params; index by Topology::linkClass.  Entry 0
     *  is the base wire.  Size 1 for uniform topologies — then the
     *  classed arithmetic is bypassed entirely. */
    std::vector<NetworkParams> class_params_;
    bool classed_ = false;

    /** Per directed link: the end of its last reservation. */
    LazyArray<Time> free_;
    /** The route of the transfer in progress (reused scratch). */
    std::vector<LinkId> route_;
    LinkSlowdownHook slowdown_hook_;
    stats::Probe *probe_ = nullptr;
};

} // namespace ccsim::net

#endif // CCSIM_NET_NETWORK_HH

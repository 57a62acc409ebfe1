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
 * machines are simulable.  A link's record holds both its next free
 * time and its accumulated busy time, so a hop touches one cache
 * line.
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

#include <cstdint>
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

/** An interconnect instance: topology + link occupancy + stats. */
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

    /** Total messages injected. */
    std::uint64_t messages() const { return messages_; }

    /** Total payload bytes moved (excluding packet overhead). */
    Bytes totalBytes() const { return total_bytes_; }

    /** Sum over links of busy time (for utilization reports). */
    Time totalLinkBusy() const { return total_link_busy_; }

    /** Forget all link occupancy and stats (fresh measurement run).
     *  O(links touched), not O(total links).  An attached probe keeps
     *  its own state. */
    void reset();

    /** Route walks performed (one per transfer; the streaming
     *  successor of the old route-cache hit/miss counters). */
    std::uint64_t routeWalks() const { return route_walks_; }

    /** Total links enumerated across all route walks. */
    std::uint64_t routeHops() const { return route_hops_; }

    /** Utilization summary over a time horizon. */
    struct Utilization
    {
        double mean = 0.0;     //!< mean busy fraction over all links
        double max = 0.0;      //!< busiest link's fraction
        LinkId hottest = -1;   //!< id of the busiest link
        int links_used = 0;    //!< links that carried any traffic
    };

    /**
     * Busy fractions up to @p horizon (e.g.\ the simulator's final
     * time).  Approximates each link's busy time by its last
     * reservation end clamped to the horizon — exact when traffic is
     * back-to-back, an upper bound otherwise; intended for relative
     * comparisons (which links are hot), not absolute accounting.
     */
    Utilization utilization(Time horizon) const;

    /**
     * Exact accumulated wire serialisation time of one link (unlike
     * utilization(), which approximates by last reservation end).
     * Always maintained; reset() clears it.
     */
    Time
    linkBusy(LinkId l) const
    {
        return links_.get(static_cast<std::size_t>(l)).busy;
    }

    /**
     * Visit fn(LinkId, Time busy) for every link whose occupancy page
     * has been touched, in ascending id order — the O(links touched)
     * iteration backing per-link reports at extreme scale.
     */
    template <typename Fn>
    void
    forEachTouchedLink(Fn &&fn) const
    {
        links_.forEach([&](std::size_t i, const Link &k) {
            fn(static_cast<LinkId>(i), k.busy);
        });
    }

    /**
     * Report per-link payload bytes and grant stalls to @p probe
     * (null: nobody listens; the default).  Observation only —
     * attaching a probe never changes any transfer time.
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

    /** One directed link's occupancy. */
    struct Link
    {
        Time free = 0; //!< end of its last reservation (contention)
        Time busy = 0; //!< accumulated wire serialisation time
    };
    LazyArray<Link> links_;
    /** The route of the transfer in progress (reused scratch). */
    std::vector<LinkId> route_;
    LinkSlowdownHook slowdown_hook_;
    stats::Probe *probe_ = nullptr;

    std::uint64_t route_walks_ = 0;
    std::uint64_t route_hops_ = 0;

    std::uint64_t messages_ = 0;
    Bytes total_bytes_ = 0;
    Time total_link_busy_ = 0;
};

} // namespace ccsim::net

#endif // CCSIM_NET_NETWORK_HH

#include "net/network.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "stats/probe.hh"
#include "util/logging.hh"

namespace ccsim::net {

Network::Network(std::unique_ptr<Topology> topo, const NetworkParams &params)
    : topo_(std::move(topo))
{
    if (!topo_)
        panic("Network: null topology");
    if (params.link_bandwidth_mbs <= 0)
        fatal("Network: link bandwidth must be positive, got %g MB/s",
              params.link_bandwidth_mbs);
    if (params.hop_latency < 0 || params.packet_overhead < 0)
        fatal("Network: negative hop latency or packet overhead");
    // Routes name links by LinkId, so a fabric with more links than
    // it can number would walk wrapped-around ids.
    constexpr auto kMaxLinks =
        static_cast<std::size_t>(std::numeric_limits<LinkId>::max()) + 1;
    if (topo_->numLinks() > kMaxLinks)
        raiseError(ConfigError(strFormat(
            "topology '%s' has %zu links, more than the %zu a link id "
            "can number",
            topo_->name().c_str(), topo_->numLinks(), kMaxLinks)));
    links_.reset(topo_->numLinks());
    class_params_.assign(
        static_cast<std::size_t>(topo_->numLinkClasses()), params);
    classed_ = topo_->numLinkClasses() > 1;
}

void
Network::setLinkClassParams(int cls, const NetworkParams &p)
{
    if (cls < 0 || cls >= static_cast<int>(class_params_.size()))
        panic("Network::setLinkClassParams: topology '%s' has no "
              "link class %d (classes: %d)",
              topo_->name().c_str(), cls, topo_->numLinkClasses());
    if (p.link_bandwidth_mbs <= 0)
        fatal("Network: link class %d bandwidth must be positive, "
              "got %g MB/s",
              cls, p.link_bandwidth_mbs);
    if (p.hop_latency < 0 || p.packet_overhead < 0)
        fatal("Network: link class %d has negative hop latency or "
              "packet overhead",
              cls);
    class_params_[static_cast<std::size_t>(cls)] = p;
}

const NetworkParams &
Network::linkClassParams(int cls) const
{
    if (cls < 0 || cls >= static_cast<int>(class_params_.size()))
        panic("Network::linkClassParams: no link class %d", cls);
    return class_params_[static_cast<std::size_t>(cls)];
}

Time
Network::transfer(int src, int dst, Bytes bytes, Time now)
{
    if (src == dst)
        panic("Network::transfer: self-send on node %d must not touch "
              "the network", src);
    if (bytes < 0)
        panic("Network::transfer: negative size %lld",
              static_cast<long long>(bytes));

    ++route_walks_;
    const NetworkParams &base = class_params_[0];

    // Uniform wiring: one serialisation time for the whole route.
    // Multi-class wiring computes the gating (slowest-link)
    // serialisation and per-class hop latency during the walk.
    Time ser = classed_ ? 0
                        : transferTime(bytes + base.packet_overhead,
                                       base.link_bandwidth_mbs);
    Time hops_delay = 0;

    // The one walk: record the route and find the contention window —
    // the transfer starts when every link on the route is free.
    Time start = now;
    LinkId constraining = -1;
    route_.clear();
    topo_->forEachLink(src, dst, [&](LinkId l) {
        route_.push_back(l);
        if (classed_) {
            const NetworkParams &cp =
                class_params_[static_cast<std::size_t>(
                    topo_->linkClass(l))];
            ser = std::max(
                ser, transferTime(bytes + cp.packet_overhead,
                                  cp.link_bandwidth_mbs));
            hops_delay += cp.hop_latency;
        }
        if (base.contention) {
            const Time f = links_.get(static_cast<std::size_t>(l)).free;
            if (f > start) {
                start = f;
                constraining = l;
            }
        }
    });
    const std::size_t path_len = route_.size();
    if (path_len == 0)
        panic("Network::transfer: empty route from %d to %d", src,
              dst);
    route_hops_ += path_len;
    if (!classed_)
        hops_delay =
            base.hop_latency * static_cast<Time>(path_len);

    if (slowdown_hook_) {
        // A degraded link slows the whole cut-through worm: the
        // serialisation rate is set by the slowest link on the route.
        double worst = 1.0;
        for (LinkId l : route_)
            worst = std::max(worst, slowdown_hook_(l, start));
        if (worst > 1.0)
            ser = static_cast<Time>(
                std::llround(static_cast<double>(ser) * worst));
    }

    // Commit the reservation.
    for (LinkId l : route_) {
        const auto i = static_cast<std::size_t>(l);
        Link &k = links_.slot(i);
        if (base.contention)
            k.free = start + ser;
        k.busy += ser;
        if (probe_)
            probe_->linkBytes(i, bytes);
    }

    ++messages_;
    total_bytes_ += bytes;
    total_link_busy_ += ser * static_cast<Time>(path_len);

    // The wait from arrival to grant, charged to the link whose
    // occupancy set the start time.
    if (probe_ && constraining >= 0)
        probe_->linkStall(static_cast<std::size_t>(constraining),
                          start - now);

    return start + hops_delay + ser;
}

Time
Network::transferVia(int src, int via, int dst, Bytes bytes, Time now)
{
    if (via == src || via == dst)
        panic("Network::transferVia: intermediate %d must differ from "
              "endpoints %d -> %d", via, src, dst);
    Time relay = transfer(src, via, bytes, now);
    return transfer(via, dst, bytes, relay);
}

Network::Utilization
Network::utilization(Time horizon) const
{
    Utilization u;
    if (horizon <= 0)
        return u;
    double sum = 0.0;
    links_.forEach([&](std::size_t i, const Link &k) {
        Time busy = std::min(k.free, horizon);
        if (busy <= 0)
            return;
        ++u.links_used;
        double frac = static_cast<double>(busy) /
                      static_cast<double>(horizon);
        sum += frac;
        if (frac > u.max) {
            u.max = frac;
            u.hottest = static_cast<LinkId>(i);
        }
    });
    if (links_.size() > 0)
        u.mean = sum / static_cast<double>(links_.size());
    return u;
}

void
Network::reset()
{
    links_.clear();
    route_walks_ = 0;
    route_hops_ = 0;
    messages_ = 0;
    total_bytes_ = 0;
    total_link_busy_ = 0;
}

} // namespace ccsim::net

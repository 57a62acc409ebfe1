#include "machine/probe.hh"

#include "net/network.hh"

namespace ccsim::machine {

Probe::Probe(const net::Network &net, bool metrics)
    : stats::Probe(net.topology().numLinks(), metrics), net_(net)
{
}

void
Probe::collEnd(int node, Coll op, Time start, Time end)
{
    if (!metrics)
        return;
    stats::CollOpMetrics &c = coll[static_cast<std::size_t>(op)];
    c.calls.add();
    c.time_us.add(toMicros(end - start));
    // Counter tracks next to the spans: machine-wide network totals,
    // sampled once per collective (at global rank 0).
    if (trace && node == 0) {
        trace->recordCounter(end, "net.payload_bytes",
                             static_cast<double>(net_.totalBytes()));
        trace->recordCounter(end, "net.stall_us",
                             toMicros(links.total_stall));
    }
}

void
Probe::reset()
{
    stats::Probe::reset();
    for (stats::CollOpMetrics &c : coll)
        c.reset();
    if (listener)
        listener->onReset();
}

} // namespace ccsim::machine

/**
 * @file
 * Probe: the one observation point of the hot layers.
 *
 * Every Transport and the Network hold one `stats::Probe *`, null
 * unless something listens, and report at fixed points: a send or a
 * receive completing, a match queue's depth, the injection backlog,
 * and per-link bytes and grant stalls.  (machine::Probe extends this
 * class with the points only mpi::Comm sees.)  The probe hands each
 * point to its consumers:
 *
 *  - the metric groups, when built with metrics on: plain field
 *    updates in place, no name lookup and no indirect call;
 *  - an attached sim::Trace: one span per send, receive and compute.
 *
 * Observation only: no point charges simulated time or perturbs
 * event order, so simulated results are byte-identical whatever
 * listens.  With nobody listening the pointer is null and each site
 * costs one test.
 */

#ifndef CCSIM_STATS_PROBE_HH
#define CCSIM_STATS_PROBE_HH

#include <cstddef>

#include "sim/trace.hh"
#include "stats/metrics.hh"
#include "util/units.hh"

namespace ccsim::stats {

/** The wire path a completed send took. */
enum class SendPath
{
    Self,       //!< same-node buffered delivery
    Eager,      //!< pushed at once into the receiver's buffers
    Rendezvous, //!< RTS -> CTS -> data, copied by CPU/coprocessor
    Blt,        //!< rendezvous data streamed by the block-transfer engine
};

/** A match queue whose depth the probe is told about. */
enum class MatchQueue
{
    Unexpected,  //!< eager arrivals awaiting a receive
    PendingRts,  //!< rendezvous requests awaiting a receive
    PendingRecv, //!< receives parked awaiting an arrival
};

/** Fixed observation points of the msg and net layers. */
class Probe
{
  public:
    /** A probe for a fabric of @p num_links links; @p metrics turns
     *  the metric consumer on. */
    Probe(std::size_t num_links, bool metrics) : metrics(metrics)
    {
        links.bytes.reset(num_links);
        links.stall.reset(num_links);
    }

    // ---- consumers ----------------------------------------------------

    const bool metrics;          //!< the metric groups collect
    sim::Trace *trace = nullptr; //!< span consumer, or null

    TransportMetrics transport;
    LinkMetrics links;

    // ---- fixed points -------------------------------------------------

    /** A send from @p node to @p peer completed locally. */
    void
    send(int node, int peer, Bytes bytes, SendPath path, Time start,
         Time end)
    {
        if (metrics) {
            transport.msg_bytes.add(static_cast<double>(bytes));
            switch (path) {
              case SendPath::Self:
                transport.self_sends.add();
                break;
              case SendPath::Eager:
                transport.eager_sends.add();
                break;
              case SendPath::Blt:
                transport.blt_sends.add();
                [[fallthrough]];
              case SendPath::Rendezvous:
                transport.rdv_sends.add();
                break;
            }
        }
        if (trace)
            trace->record(sim::Span{node, sim::SpanKind::Send, start, end,
                                    bytes, peer, {}});
    }

    /** A receive at @p node of a message from @p peer completed. */
    void
    recv(int node, int peer, Bytes bytes, Time start, Time end)
    {
        if (metrics)
            transport.recvs.add();
        if (trace)
            trace->record(sim::Span{node, sim::SpanKind::Recv, start, end,
                                    bytes, peer, {}});
    }

    /** Comm::compute on @p node completed. */
    void
    compute(int node, Time start, Time end)
    {
        if (trace)
            trace->record(sim::Span{node, sim::SpanKind::Compute, start,
                                    end, 0, -1, {}});
    }

    /** Match queue @p q just grew to @p depth entries. */
    void
    queueDepth(MatchQueue q, std::size_t depth)
    {
        if (!metrics)
            return;
        Gauge &g = q == MatchQueue::Unexpected   ? transport.unexpected_hw
                   : q == MatchQueue::PendingRts ? transport.pending_rts_hw
                                                 : transport.pending_recv_hw;
        g.observe(static_cast<double>(depth));
    }

    /** An injection copy was queued @p backlog ahead of now. */
    void
    injectBacklog(Time backlog)
    {
        if (metrics)
            transport.inject_backlog_us.observe(toMicros(backlog));
    }

    /** @p bytes of payload crossed link @p l.  Reported per hop, so
     *  it is a bare array update; the Network holds the probe only
     *  while metrics are on. */
    void
    linkBytes(std::size_t l, Bytes bytes)
    {
        links.bytes.slot(l) += bytes;
    }

    /** A transfer waited @p stall for its grant; link @p l's
     *  occupancy set its start. */
    void
    linkStall(std::size_t l, Time stall)
    {
        links.stall.slot(l) += stall;
        links.total_stall += stall;
        ++links.stalled_transfers;
    }

    /** Point boundary: zero the metric groups. */
    void
    reset()
    {
        transport.reset();
        links.reset();
    }
};

} // namespace ccsim::stats

#endif // CCSIM_STATS_PROBE_HH

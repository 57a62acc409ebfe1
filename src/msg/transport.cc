#include "msg/transport.hh"

#include <algorithm>
#include <cmath>
#include <new>

#include "stats/probe.hh"
#include "util/logging.hh"

namespace ccsim::msg {

namespace {

/** Fraction of a duration, rounded to the picosecond. */
Time
scaleTime(Time t, double f)
{
    return static_cast<Time>(std::llround(static_cast<double>(t) * f));
}

} // namespace

Transport::Transport(sim::Simulator &sim, net::Network &net, Fabric &fabric,
                     int node, const TransportParams &params,
                     fault::FaultInjector *fi)
    : sim_(sim), net_(net), fabric_(fabric), node_(node),
      params_(params), fi_(fi),
      lossy_(fi != nullptr && fi->spec().lossPossible())
{
    if (params_.send_overhead < 0 || params_.recv_overhead < 0 ||
        params_.rendezvous_overhead < 0 || params_.blt_setup < 0)
        fatal("Transport: negative software overhead");
    if (params_.copy_bandwidth_mbs <= 0)
        fatal("Transport: copy bandwidth must be positive, got %g",
              params_.copy_bandwidth_mbs);
    if (params_.eager_threshold < 0 || params_.blt_threshold < 0)
        fatal("Transport: negative protocol threshold");
    if (params_.coprocessor_overlap < 0 || params_.coprocessor_overlap > 1)
        fatal("Transport: coprocessor overlap %g outside [0,1]",
              params_.coprocessor_overlap);
}

sim::Task<void>
Transport::busy(Time cost)
{
    if (cost < 0)
        panic("Transport::busy: negative cost");
    if (fi_)
        cost = fi_->scaleCpu(node_, cost); // straggler injection
    Time start = std::max(sim_.now(), cpu_free_);
    Time end = start + cost;
    cpu_free_ = end;
    if (end > sim_.now())
        co_await sim_.delay(end - sim_.now());
}

bool
Transport::matches(int want_src, int want_tag, int want_ctx,
                   int src, int tag, int ctx) const
{
    return want_ctx == ctx &&
           (want_src == kAnySource || want_src == src) &&
           (want_tag == kAnyTag || want_tag == tag);
}

Time
Transport::injectAt(int dst, Bytes bytes, Time when)
{
    return net_.transfer(node_, dst, bytes, when);
}

Time
Transport::wireArrival(int dst, Bytes bytes, Time when)
{
    Time arrival = injectAt(dst, bytes, when);
    if (fi_) {
        Time penalty = fi_->drawDelayPenalty();
        if (penalty > 0) {
            fi_->recordDelay(node_, dst, when, bytes);
            arrival += penalty;
        }
    }
    return arrival;
}

sim::Task<void>
Transport::reliableDeliver(int dst, Bytes bytes, Time when,
                           sim::DeliverFn deliver)
{
    const fault::FaultSpec &spec = fi_->spec();
    const fault::RecoveryPolicy policy = spec.policy;
    // fail_fast stops at the base budget; the recovering policies
    // are granted escalation_budget further rounds before giving up
    // (retry_escalate) or absorbing (degrade).
    const int max_attempts =
        policy == fault::RecoveryPolicy::FailFast
            ? spec.retry_budget
            : spec.retry_budget + spec.escalation_budget;
    Time timeout = spec.retry_timeout;
    for (int attempt = 0;; ++attempt) {
        Time xmit = std::max(when, sim_.now());
        net::LinkId hole =
            fi_->blackholedOnRoute(net_.topology(), node_, dst, xmit);

        // degrade: the first copy probes the direct route; once a
        // black hole has eaten it, retransmissions detour via the
        // cached fallback node (when one exists).
        int via = -1;
        if (hole >= 0 && attempt > 0 &&
            policy == fault::RecoveryPolicy::Degrade)
            via = fi_->fallbackVia(node_, dst, net_);

        bool lost;
        Time arrival;
        if (via >= 0) {
            lost = fi_->drawDrop(); // the detour is still lossy
            arrival = net_.transferVia(node_, via, dst, bytes, xmit);
        } else {
            lost = hole >= 0 || fi_->drawDrop();
            // The worm occupies the route either way; a lost message
            // held the wires up to the failure point.
            arrival = injectAt(dst, bytes, xmit);
        }

        if (!lost) {
            Time penalty = fi_->drawDelayPenalty();
            if (penalty > 0) {
                fi_->recordDelay(node_, dst, xmit, bytes);
                arrival += penalty;
            }
            if (via >= 0)
                fi_->recordReroute(node_, via, dst, xmit, bytes);
            deliver(arrival);
            // Zero-byte ack on the reverse route; the protocol
            // engine is done when it lands.  A detoured delivery
            // acks over the same detour (the direct reverse route
            // would cross the hole's neighbourhood again).
            Time acked =
                via >= 0
                    ? net_.transferVia(dst, via, node_, 0, arrival)
                    : net_.transfer(dst, node_, 0, arrival);
            if (acked > sim_.now())
                co_await sim_.delay(acked - sim_.now());
            co_return;
        }

        fi_->recordDrop(node_, dst, via >= 0 ? -1 : hole, xmit, bytes,
                        attempt);
        if (attempt >= max_attempts) {
            if (policy == fault::RecoveryPolicy::Degrade) {
                // The backstop: degrade never fails a run.  A message
                // that can be neither delivered nor detoured is
                // absorbed — handed over out-of-band after one final
                // escalated timeout, at full price in the report.
                Time done = xmit + timeout;
                fi_->recordAbsorb(node_, dst, hole, xmit, bytes,
                                  attempt + 1, timeout);
                deliver(done);
                if (done > sim_.now())
                    co_await sim_.delay(done - sim_.now());
                co_return;
            }
            fi_->failExhausted(node_, dst, hole, xmit, bytes,
                               attempt + 1);
        }

        // Ack-timeout expiry, then exponential backoff.
        Time resend_at = xmit + timeout;
        if (resend_at > sim_.now())
            co_await sim_.delay(resend_at - sim_.now());
        if (attempt >= spec.retry_budget)
            fi_->recordEscalation(node_, dst, sim_.now(), bytes,
                                  attempt + 1, timeout);
        timeout = scaleTime(timeout, spec.retry_backoff);
        fi_->recordRetransmit(node_, dst, sim_.now(), bytes,
                              attempt + 1);
        when = sim_.now();
    }
}

void
Transport::sendDone(int dst, Bytes bytes, stats::SendPath path, Time start)
{
    if (probe_)
        probe_->send(node_, dst, bytes, path, start, sim_.now());
}

void
Transport::recvDone(const Message &m, Time start)
{
    if (probe_)
        probe_->recv(node_, m.src, m.bytes, start, sim_.now());
}

sim::Task<void>
Transport::send(int dst, int tag, int context, Bytes bytes,
                PayloadPtr payload, CostOverride ov)
{
    const Time o_send =
        ov.send >= 0 ? ov.send : params_.send_overhead;
    if (dst < 0 || dst >= fabric_.size())
        panic("Transport::send: destination %d out of range", dst);
    if (bytes < 0)
        panic("Transport::send: negative size");
    if (payload && static_cast<Bytes>(payload->size()) != bytes)
        panic("Transport::send: payload size %zu != declared %lld",
              payload->size(), static_cast<long long>(bytes));

    const Time start = sim_.now();
    Time copy = transferTime(bytes, params_.copy_bandwidth_mbs);

    if (dst == node_) {
        // Buffered local delivery: full copy on the sending side,
        // nothing touches the network.
        co_await busy(o_send + copy);
        Message m{node_, dst, tag, context, bytes, std::move(payload),
                  sim_.now(), 0};
        deliverEager(std::move(m));
        sendDone(dst, bytes, stats::SendPath::Self, start);
        co_return;
    }

    Transport *peer = &fabric_.node(dst);

    if (bytes <= params_.eager_threshold) {
        co_await busy(o_send);
        // The injection copy runs on the coprocessor/DMA timeline;
        // the main CPU is held only for its (1 - overlap) share.
        Time copy_start = std::max(sim_.now(), copro_free_);
        Time inject_done = copy_start + copy;
        copro_free_ = inject_done;
        if (probe_)
            probe_->injectBacklog(inject_done - sim_.now());
        Message m{node_, dst, tag, context, bytes, std::move(payload),
                  0, 0};
        transmitWire(dst, bytes, inject_done,
                     [this, peer, m = std::move(m)](Time arrival) mutable {
                         m.arrival = arrival;
                         sim_.scheduleAt(arrival,
                                         [peer, m = std::move(m)]() mutable {
                                             peer->deliverEager(
                                                 std::move(m));
                                         });
                     });
        co_await busy(
            scaleTime(copy, 1.0 - params_.coprocessor_overlap));
        sendDone(dst, bytes, stats::SendPath::Eager, start);
        co_return;
    }

    // Rendezvous: RTS -> CTS -> DATA.
    co_await busy(o_send + params_.rendezvous_overhead);
    HandshakePtr hs = hs_pool_.make(sim_);
    Rts rts{node_, tag, context, bytes, payload, hs, 0};
    transmitWire(dst, 0, sim_.now(),
                 [this, peer, rts = std::move(rts)](Time arrival) mutable {
                     sim_.scheduleAt(arrival,
                                     [peer, rts = std::move(rts)]() mutable {
                                         peer->deliverRts(
                                             std::move(rts));
                                     });
                 });

    co_await hs->cts.wait();

    Message m{node_, dst, tag, context, bytes, std::move(payload), 0, 0};
    bool use_blt = params_.blt_enabled && bytes >= params_.blt_threshold;
    auto fire_data = [this, hs](Time arrival) {
        hs->msg.arrival = arrival;
        sim_.scheduleAt(arrival, [hs] { hs->data.fire(); });
    };
    if (use_blt) {
        // Block-transfer engine: descriptor setup instead of a
        // memory copy; the engine streams straight from user memory.
        co_await busy(params_.blt_setup);
        hs->msg = std::move(m);
        transmitWire(dst, bytes, sim_.now(), fire_data);
    } else {
        Time copy_start = std::max(sim_.now(), copro_free_);
        Time inject_done = copy_start + copy;
        copro_free_ = inject_done;
        if (probe_)
            probe_->injectBacklog(inject_done - sim_.now());
        hs->msg = std::move(m);
        transmitWire(dst, bytes, inject_done, fire_data);
        co_await busy(
            scaleTime(copy, 1.0 - params_.coprocessor_overlap));
    }
    sendDone(dst, bytes,
             use_blt ? stats::SendPath::Blt : stats::SendPath::Rendezvous,
             start);
}

sim::Task<Message>
Transport::recv(int src, int tag, int context, CostOverride ov)
{
    const Time o_recv =
        ov.recv >= 0 ? ov.recv : params_.recv_overhead;
    if (src != kAnySource && (src < 0 || src >= fabric_.size()))
        panic("Transport::recv: source %d out of range", src);
    const Time start = sim_.now();

    // Earliest matching arrival across the eager and RTS queues.
    auto eit = unexpected_.end();
    for (auto it = unexpected_.begin(); it != unexpected_.end(); ++it) {
        if (matches(src, tag, context, it->src, it->tag, it->context)) {
            eit = it;
            break;
        }
    }
    auto rit = pending_rts_.end();
    for (auto it = pending_rts_.begin(); it != pending_rts_.end(); ++it) {
        if (matches(src, tag, context, it->src, it->tag, it->context)) {
            rit = it;
            break;
        }
    }

    bool have_eager = eit != unexpected_.end();
    bool have_rts = rit != pending_rts_.end();
    if (have_eager && have_rts) {
        // Non-overtaking: take whichever arrived first.
        if (eit->seq < rit->seq)
            have_rts = false;
        else
            have_eager = false;
    }

    if (have_eager) {
        Message m = std::move(*eit);
        unexpected_.erase(eit);
        co_await busy(o_recv +
                      transferTime(m.bytes, params_.copy_bandwidth_mbs));
        recvDone(m, start);
        co_return m;
    }
    if (have_rts) {
        Rts rts = std::move(*rit);
        pending_rts_.erase(rit);
        Message m = co_await recvRendezvous(std::move(rts), ov);
        recvDone(m, start);
        co_return m;
    }

    // Nothing has arrived yet: park until a matching delivery.
    PendingRecv pr;
    pr.src = src;
    pr.tag = tag;
    pr.context = context;
    co_await sim::suspendWith([&](std::coroutine_handle<> h) {
        pr.handle = h;
        pending_recvs_.push_back(&pr);
        if (probe_)
            probe_->queueDepth(stats::MatchQueue::PendingRecv,
                               pending_recvs_.size());
    });

    if (pr.eager) {
        Message m = std::move(*pr.eager);
        co_await busy(o_recv +
                      transferTime(m.bytes, params_.copy_bandwidth_mbs));
        recvDone(m, start);
        co_return m;
    }
    if (!pr.rts)
        panic("Transport::recv: woken with nothing delivered");
    {
        Message m = co_await recvRendezvous(std::move(*pr.rts), ov);
        recvDone(m, start);
        co_return m;
    }
}

sim::Task<Message>
Transport::recvRendezvous(Rts rts, CostOverride ov)
{
    const Time o_recv =
        ov.recv >= 0 ? ov.recv : params_.recv_overhead;
    // Process the RTS and return the clear-to-send.
    co_await busy(params_.rendezvous_overhead);
    Time cts_arrival = injectAt(rts.src, 0, sim_.now());
    sim_.scheduleAt(cts_arrival, [hs = rts.hs] { hs->cts.fire(); });

    co_await rts.hs->data.wait();
    // Direct deposit into the user buffer: completion cost only.
    co_await busy(o_recv);
    co_return std::move(rts.hs->msg);
}

void
Transport::deliverEager(Message m)
{
    m.seq = arrival_seq_++;
    for (auto it = pending_recvs_.begin(); it != pending_recvs_.end();
         ++it) {
        PendingRecv *pr = *it;
        if (matches(pr->src, pr->tag, pr->context, m.src, m.tag,
                    m.context)) {
            pending_recvs_.erase(it);
            pr->eager = std::move(m);
            sim_.resumeNow(pr->handle);
            return;
        }
    }
    unexpected_.push_back(std::move(m));
    if (probe_)
        probe_->queueDepth(stats::MatchQueue::Unexpected,
                           unexpected_.size());
}

void
Transport::deliverRts(Rts rts)
{
    rts.seq = arrival_seq_++;
    for (auto it = pending_recvs_.begin(); it != pending_recvs_.end();
         ++it) {
        PendingRecv *pr = *it;
        if (matches(pr->src, pr->tag, pr->context, rts.src, rts.tag,
                    rts.context)) {
            pending_recvs_.erase(it);
            pr->rts = std::move(rts);
            sim_.resumeNow(pr->handle);
            return;
        }
    }
    pending_rts_.push_back(std::move(rts));
    if (probe_)
        probe_->queueDepth(stats::MatchQueue::PendingRts,
                           pending_rts_.size());
}

sim::Task<void>
Transport::runSend(sim::PoolPtr<ReqState> st, int dst, int tag,
                   int context, Bytes bytes, PayloadPtr payload,
                   CostOverride ov)
{
    try {
        co_await send(dst, tag, context, bytes, std::move(payload), ov);
    } catch (...) {
        st->exc = std::current_exception();
    }
    st->done.fire();
}

sim::Task<void>
Transport::runRecv(sim::PoolPtr<ReqState> st, int src, int tag,
                   int context, CostOverride ov)
{
    try {
        st->msg = co_await recv(src, tag, context, ov);
    } catch (...) {
        st->exc = std::current_exception();
    }
    st->done.fire();
}

Request
Transport::isend(int dst, int tag, int context, Bytes bytes,
                 PayloadPtr payload, CostOverride ov)
{
    sim::PoolPtr<ReqState> st = req_pool_.make(sim_);
    sim_.spawn(runSend(st, dst, tag, context, bytes, std::move(payload),
                       ov));
    return Request{std::move(st)};
}

Request
Transport::irecv(int src, int tag, int context, CostOverride ov)
{
    sim::PoolPtr<ReqState> st = req_pool_.make(sim_);
    sim_.spawn(runRecv(st, src, tag, context, ov));
    return Request{std::move(st)};
}

sim::Task<Message>
Transport::wait(Request req)
{
    if (!req.state)
        panic("Transport::wait: empty request");
    if (!req.state->done.fired())
        co_await req.state->done.wait();
    if (req.state->exc)
        std::rethrow_exception(req.state->exc);
    if (req.state->msg)
        co_return std::move(*req.state->msg);
    co_return Message{};
}

sim::Task<Message>
Transport::sendrecv(int dst, int send_tag, Bytes bytes, int src,
                    int recv_tag, int context, PayloadPtr payload,
                    CostOverride ov)
{
    Request sreq = isend(dst, send_tag, context, bytes,
                         std::move(payload), ov);
    Message m = co_await recv(src, recv_tag, context, ov);
    co_await wait(sreq);
    co_return m;
}

Fabric::Fabric(sim::Simulator &sim, net::Network &net, int n,
               const TransportParams &params, fault::FaultInjector *fi)
{
    if (n < 1)
        fatal("Fabric: need at least one node, got %d", n);
    if (n > net.topology().numNodes())
        fatal("Fabric: %d nodes exceed the %d-node topology", n,
              net.topology().numNodes());
    slab_ = static_cast<Transport *>(::operator new(
        sizeof(Transport) * static_cast<std::size_t>(n),
        std::align_val_t{alignof(Transport)}));
    for (int i = 0; i < n; ++i) {
        // Transport's constructor only fatal()s (no throw), so a
        // partial slab never needs unwinding.
        new (slab_ + i) Transport(sim, net, *this, i, params, fi);
        n_ = i + 1;
    }
}

Fabric::~Fabric()
{
    // An RTS nobody received holds a handshake pooled by its sender,
    // so every match queue is emptied before any endpoint's pools go.
    for (int i = 0; i < n_; ++i) {
        slab_[i].unexpected_.clear();
        slab_[i].pending_rts_.clear();
        slab_[i].pending_recvs_.clear();
    }
    for (int i = n_; i-- > 0;)
        slab_[i].~Transport();
    ::operator delete(slab_, std::align_val_t{alignof(Transport)});
}

void
Fabric::setProbe(stats::Probe *probe)
{
    for (int i = 0; i < n_; ++i)
        slab_[i].probe_ = probe;
}

Transport &
Fabric::node(int i)
{
    if (i < 0 || i >= size())
        panic("Fabric::node: %d out of range [0, %d)", i, size());
    return slab_[i];
}

} // namespace ccsim::msg

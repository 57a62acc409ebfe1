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

sim::DelayAwaiter
Transport::busy(Time cost)
{
    if (cost < 0)
        panic("Transport::busy: negative cost");
    if (const fault::FaultInjector *fi = fabric_.fi_)
        cost = fi->scaleCpu(node_, cost); // straggler injection
    sim::Simulator &sim = fabric_.sim_;
    Time start = std::max(sim.now(), cpu_free_);
    Time end = start + cost;
    cpu_free_ = end;
    return sim.delay(end - sim.now()); // ready at once when end == now
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
    return fabric_.net_.transfer(node_, dst, bytes, when);
}

Time
Transport::wireArrival(int dst, Bytes bytes, Time when)
{
    Time arrival = injectAt(dst, bytes, when);
    if (fault::FaultInjector *fi = fabric_.fi_) {
        Time penalty = fi->drawDelayPenalty();
        if (penalty > 0) {
            fi->recordDelay(node_, dst, when, bytes);
            arrival += penalty;
        }
    }
    return arrival;
}

sim::Task<void>
Transport::reliableDeliver(int dst, Bytes bytes, Time when,
                           sim::DeliverFn deliver)
{
    sim::Simulator &sim = fabric_.sim_;
    net::Network &net = fabric_.net_;
    fault::FaultInjector &fi = *fabric_.fi_;
    const fault::FaultSpec &spec = fi.spec();
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
        Time xmit = std::max(when, sim.now());
        net::LinkId hole =
            fi.blackholedOnRoute(net.topology(), node_, dst, xmit);

        // degrade: the first copy probes the direct route; once a
        // black hole has eaten it, retransmissions detour via the
        // cached fallback node (when one exists).
        int via = -1;
        if (hole >= 0 && attempt > 0 &&
            policy == fault::RecoveryPolicy::Degrade)
            via = fi.fallbackVia(node_, dst, net);

        bool lost;
        Time arrival;
        if (via >= 0) {
            lost = fi.drawDrop(); // the detour is still lossy
            arrival = net.transferVia(node_, via, dst, bytes, xmit);
        } else {
            lost = hole >= 0 || fi.drawDrop();
            // The worm occupies the route either way; a lost message
            // held the wires up to the failure point.
            arrival = injectAt(dst, bytes, xmit);
        }

        if (!lost) {
            Time penalty = fi.drawDelayPenalty();
            if (penalty > 0) {
                fi.recordDelay(node_, dst, xmit, bytes);
                arrival += penalty;
            }
            if (via >= 0)
                fi.recordReroute(node_, via, dst, xmit, bytes);
            deliver(arrival);
            // Zero-byte ack on the reverse route; the protocol
            // engine is done when it lands.  A detoured delivery
            // acks over the same detour (the direct reverse route
            // would cross the hole's neighbourhood again).
            Time acked =
                via >= 0
                    ? net.transferVia(dst, via, node_, 0, arrival)
                    : net.transfer(dst, node_, 0, arrival);
            if (acked > sim.now())
                co_await sim.delay(acked - sim.now());
            co_return;
        }

        fi.recordDrop(node_, dst, via >= 0 ? -1 : hole, xmit, bytes,
                      attempt);
        if (attempt >= max_attempts) {
            if (policy == fault::RecoveryPolicy::Degrade) {
                // The backstop: degrade never fails a run.  A message
                // that can be neither delivered nor detoured is
                // absorbed — handed over out-of-band after one final
                // escalated timeout, at full price in the report.
                Time done = xmit + timeout;
                fi.recordAbsorb(node_, dst, hole, xmit, bytes,
                                attempt + 1, timeout);
                deliver(done);
                if (done > sim.now())
                    co_await sim.delay(done - sim.now());
                co_return;
            }
            fi.failExhausted(node_, dst, hole, xmit, bytes, attempt + 1);
        }

        // Ack-timeout expiry, then exponential backoff.
        Time resend_at = xmit + timeout;
        if (resend_at > sim.now())
            co_await sim.delay(resend_at - sim.now());
        if (attempt >= spec.retry_budget)
            fi.recordEscalation(node_, dst, sim.now(), bytes,
                                attempt + 1, timeout);
        timeout = scaleTime(timeout, spec.retry_backoff);
        fi.recordRetransmit(node_, dst, sim.now(), bytes, attempt + 1);
        when = sim.now();
    }
}

void
Transport::sendDone(int dst, Bytes bytes, stats::SendPath path, Time start)
{
    if (stats::Probe *probe = fabric_.probe_)
        probe->send(node_, dst, bytes, path, start, fabric_.sim_.now());
}

void
Transport::recvDone(const Message &m, Time start)
{
    if (stats::Probe *probe = fabric_.probe_)
        probe->recv(node_, m.src, m.bytes, start, fabric_.sim_.now());
}

Time
Transport::copyTime(Bytes bytes) const
{
    return transferTime(bytes, fabric_.params_.copy_bandwidth_mbs);
}

Time
Transport::injectCopy(Bytes bytes)
{
    const Time now = fabric_.sim_.now();
    const Time done = std::max(now, copro_free_) + copyTime(bytes);
    copro_free_ = done;
    if (stats::Probe *probe = fabric_.probe_)
        probe->injectBacklog(done - now);
    return done;
}

Time
Transport::cpuCopyShare(Bytes bytes) const
{
    return scaleTime(copyTime(bytes),
                     1.0 - fabric_.params_.coprocessor_overlap);
}

template <typename F>
void
Transport::transmitWire(int dst, Bytes bytes, Time when, F &&deliver)
{
    if (fabric_.lossy_) {
        fabric_.sim_.spawn(reliableDeliver(
            dst, bytes, when, sim::DeliverFn(std::forward<F>(deliver))));
        return;
    }
    deliver(wireArrival(dst, bytes, when));
}

void
Transport::sendEager(int dst, int tag, int context, Bytes bytes,
                     PayloadPtr payload)
{
    const Time inject_done = injectCopy(bytes);
    Transport *peer = &fabric_.node(dst);
    Message m{node_, dst, tag, context, bytes, std::move(payload), 0, 0};
    transmitWire(dst, bytes, inject_done,
                 [this, peer, m = std::move(m)](Time arrival) mutable {
                     m.arrival = arrival;
                     fabric_.sim_.scheduleAt(
                         arrival, [peer, m = std::move(m)]() mutable {
                             peer->deliverEager(std::move(m));
                         });
                 });
}

Transport::HandshakePtr
Transport::sendRts(int dst, int tag, int context)
{
    HandshakePtr hs = fabric_.hs_pool_.make(fabric_.sim_);
    Transport *peer = &fabric_.node(dst);
    Rts rts{node_, tag, context, hs, 0};
    transmitWire(dst, 0, fabric_.sim_.now(),
                 [this, peer, rts = std::move(rts)](Time arrival) mutable {
                     fabric_.sim_.scheduleAt(
                         arrival, [peer, rts = std::move(rts)]() mutable {
                             peer->deliverRts(std::move(rts));
                         });
                 });
    return hs;
}

void
Transport::sendData(const HandshakePtr &hs, int dst, int tag, int context,
                    Bytes bytes, PayloadPtr payload, Time when)
{
    hs->msg = Message{node_, dst, tag, context, bytes, std::move(payload),
                      0, 0};
    transmitWire(dst, bytes, when, [this, hs](Time arrival) {
        hs->msg.arrival = arrival;
        fabric_.sim_.scheduleAt(arrival, [hs] { hs->data.fire(); });
    });
}

sim::Task<void>
Transport::sendTask(sim::PoolPtr<ReqState> st, int dst, int tag,
                    int context, Bytes bytes, PayloadPtr payload,
                    CostOverride ov)
{
    // Everything that does not suspend lives in plain members: this
    // frame keeps every local of every branch.
    try {
        if (dst < 0 || dst >= fabric_.size())
            panic("Transport::send: destination %d out of range", dst);
        if (bytes < 0)
            panic("Transport::send: negative size");
        if (payload && static_cast<Bytes>(payload->size()) != bytes)
            panic("Transport::send: payload size %zu != declared %lld",
                  payload->size(), static_cast<long long>(bytes));
        const Time o_send =
            ov.send >= 0 ? ov.send : fabric_.params_.send_overhead;
        const Time start = fabric_.sim_.now();

        if (dst == node_) {
            // Buffered local delivery: full copy on the sending side,
            // nothing touches the network.
            co_await busy(o_send + copyTime(bytes));
            deliverEager(Message{node_, dst, tag, context, bytes,
                                 std::move(payload), fabric_.sim_.now(),
                                 0});
            sendDone(dst, bytes, stats::SendPath::Self, start);
        } else if (bytes <= fabric_.params_.eager_threshold) {
            co_await busy(o_send);
            sendEager(dst, tag, context, bytes, std::move(payload));
            co_await busy(cpuCopyShare(bytes));
            sendDone(dst, bytes, stats::SendPath::Eager, start);
        } else {
            // Rendezvous: RTS -> CTS -> DATA.
            co_await busy(o_send + fabric_.params_.rendezvous_overhead);
            HandshakePtr hs = sendRts(dst, tag, context);
            co_await hs->cts.wait();
            if (fabric_.params_.blt_enabled &&
                bytes >= fabric_.params_.blt_threshold) {
                // Block-transfer engine: descriptor setup instead of a
                // memory copy; the engine streams straight from user
                // memory.
                co_await busy(fabric_.params_.blt_setup);
                sendData(hs, dst, tag, context, bytes, std::move(payload),
                         fabric_.sim_.now());
                sendDone(dst, bytes, stats::SendPath::Blt, start);
            } else {
                sendData(hs, dst, tag, context, bytes, std::move(payload),
                         injectCopy(bytes));
                co_await busy(cpuCopyShare(bytes));
                sendDone(dst, bytes, stats::SendPath::Rendezvous, start);
            }
        }
    } catch (...) {
        if (!st)
            throw;
        st->exc = std::current_exception();
    }
    if (st)
        st->done.fire();
}

sim::Task<void>
Transport::send(int dst, int tag, int context, Bytes bytes,
                PayloadPtr payload, CostOverride ov)
{
    return sendTask({}, dst, tag, context, bytes, std::move(payload),
                    ov);
}

bool
Transport::takeArrived(PendingRecv &pr)
{
    auto eit = std::find_if(
        unexpected_.begin(), unexpected_.end(), [&](const Message &m) {
            return matches(pr.src, pr.tag, pr.context, m.src, m.tag,
                           m.context);
        });
    auto rit = std::find_if(
        pending_rts_.begin(), pending_rts_.end(), [&](const Rts &r) {
            return matches(pr.src, pr.tag, pr.context, r.src, r.tag,
                           r.context);
        });
    const bool have_eager = eit != unexpected_.end();
    const bool have_rts = rit != pending_rts_.end();
    // Non-overtaking: take whichever arrived first.
    if (have_eager && (!have_rts || eit->seq < rit->seq)) {
        pr.take(std::move(*eit));
        unexpected_.erase(eit);
    } else if (have_rts) {
        pr.take(std::move(*rit));
        pending_rts_.erase(rit);
    } else {
        return false;
    }
    return true;
}

void
Transport::park(PendingRecv &pr, std::coroutine_handle<> h)
{
    pr.handle = h;
    pending_recvs_.push_back(&pr);
    if (stats::Probe *probe = fabric_.probe_)
        probe->queueDepth(stats::MatchQueue::PendingRecv,
                          pending_recvs_.size());
}

void
Transport::sendCts(const PendingRecv &pr)
{
    sim::Simulator &sim = fabric_.sim_;
    Time cts_arrival = injectAt(pr.msg.src, 0, sim.now());
    sim.scheduleAt(cts_arrival, [hs = pr.hs] { hs->cts.fire(); });
}

sim::Task<Message>
Transport::recvTask(sim::PoolPtr<ReqState> st, int src, int tag,
                    int context, CostOverride ov, int dst, int send_tag,
                    Bytes bytes, PayloadPtr payload)
{
    // Everything that does not suspend lives in plain members: this
    // frame keeps every local of every branch.
    PendingRecv pr(src, tag, context);
    try {
        Request sreq;
        if (dst >= 0)
            sreq = isend(dst, send_tag, context, bytes,
                         std::move(payload), ov);
        if (src != kAnySource && (src < 0 || src >= fabric_.size()))
            panic("Transport::recv: source %d out of range", src);
        const Time start = fabric_.sim_.now();

        if (!takeArrived(pr)) {
            // Nothing has arrived yet: park until a matching delivery.
            co_await sim::suspendWith(
                [this, &pr](std::coroutine_handle<> h) { park(pr, h); });
            if (!pr.matched)
                panic("Transport::recv: woken with nothing delivered");
        }

        const Time o_recv =
            ov.recv >= 0 ? ov.recv : fabric_.params_.recv_overhead;
        if (!pr.hs) {
            co_await busy(o_recv + copyTime(pr.msg.bytes));
        } else {
            // Rendezvous: process the RTS and return the clear-to-send;
            // the payload lands directly in the user buffer, so only
            // the completion cost remains.
            co_await busy(fabric_.params_.rendezvous_overhead);
            sendCts(pr);
            co_await pr.hs->data.wait();
            co_await busy(o_recv);
            pr.msg = std::move(pr.hs->msg);
            pr.hs.reset();
        }
        recvDone(pr.msg, start);
        if (sreq.state)
            co_await wait(sreq);
        if (!st)
            co_return std::move(pr.msg);
        st->msg = std::move(pr.msg);
    } catch (...) {
        if (!st)
            throw;
        st->exc = std::current_exception();
    }
    // Only an irecv gets here: its request holds the outcome, and the
    // root's own value is dropped.
    st->done.fire();
    co_return Message{};
}

sim::Task<Message>
Transport::recv(int src, int tag, int context, CostOverride ov)
{
    return recvTask({}, src, tag, context, ov, -1, 0, 0, nullptr);
}

sim::Task<Message>
Transport::sendrecv(int dst, int send_tag, Bytes bytes, int src,
                    int recv_tag, int context, PayloadPtr payload,
                    CostOverride ov)
{
    return recvTask({}, src, recv_tag, context, ov, dst, send_tag, bytes,
                    std::move(payload));
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
            pr->take(std::move(m));
            fabric_.sim_.resumeNow(pr->handle);
            return;
        }
    }
    unexpected_.push_back(std::move(m));
    if (stats::Probe *probe = fabric_.probe_)
        probe->queueDepth(stats::MatchQueue::Unexpected,
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
            pr->take(std::move(rts));
            fabric_.sim_.resumeNow(pr->handle);
            return;
        }
    }
    pending_rts_.push_back(std::move(rts));
    if (stats::Probe *probe = fabric_.probe_)
        probe->queueDepth(stats::MatchQueue::PendingRts,
                          pending_rts_.size());
}

Request
Transport::isend(int dst, int tag, int context, Bytes bytes,
                 PayloadPtr payload, CostOverride ov)
{
    sim::PoolPtr<ReqState> st = fabric_.req_pool_.make(fabric_.sim_);
    fabric_.sim_.spawn(sendTask(st, dst, tag, context, bytes,
                                std::move(payload), ov));
    return Request{std::move(st)};
}

Request
Transport::irecv(int src, int tag, int context, CostOverride ov)
{
    sim::PoolPtr<ReqState> st = fabric_.req_pool_.make(fabric_.sim_);
    fabric_.sim_.spawn(recvTask(st, src, tag, context, ov, -1, 0, 0,
                                nullptr));
    return Request{std::move(st)};
}

WaitAwaiter
Transport::wait(Request req)
{
    if (!req.state)
        panic("Transport::wait: empty request");
    return WaitAwaiter(std::move(req.state));
}

Fabric::Fabric(sim::Simulator &sim, net::Network &net, int n,
               const TransportParams &params, fault::FaultInjector *fi)
    : sim_(sim), net_(net), params_(params), fi_(fi),
      lossy_(fi != nullptr && fi->spec().lossPossible())
{
    if (n < 1)
        fatal("Fabric: need at least one node, got %d", n);
    if (n > net.topology().numNodes())
        fatal("Fabric: %d nodes exceed the %d-node topology", n,
              net.topology().numNodes());
    if (params.send_overhead < 0 || params.recv_overhead < 0 ||
        params.rendezvous_overhead < 0 || params.blt_setup < 0)
        fatal("Transport: negative software overhead");
    if (params.copy_bandwidth_mbs <= 0)
        fatal("Transport: copy bandwidth must be positive, got %g",
              params.copy_bandwidth_mbs);
    if (params.eager_threshold < 0 || params.blt_threshold < 0)
        fatal("Transport: negative protocol threshold");
    if (params.coprocessor_overlap < 0 || params.coprocessor_overlap > 1)
        fatal("Transport: coprocessor overlap %g outside [0,1]",
              params.coprocessor_overlap);
    slab_ = static_cast<Transport *>(::operator new(
        sizeof(Transport) * static_cast<std::size_t>(n),
        std::align_val_t{alignof(Transport)}));
    for (int i = 0; i < n; ++i)
        new (slab_ + i) Transport(*this, i);
    n_ = n;
}

Fabric::~Fabric()
{
    // The pools are members, so the slots an endpoint's match queues
    // still hold go back to them before they die.
    for (int i = n_; i-- > 0;)
        slab_[i].~Transport();
    ::operator delete(slab_, std::align_val_t{alignof(Transport)});
}

Transport &
Fabric::node(int i)
{
    if (i < 0 || i >= size())
        panic("Fabric::node: %d out of range [0, %d)", i, size());
    return slab_[i];
}

} // namespace ccsim::msg

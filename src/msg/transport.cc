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

Time
Transport::occupyCpu(Time cost)
{
    if (cost < 0)
        panic("Transport::busy: negative cost");
    if (const fault::FaultInjector *fi = fabric_.fi_)
        cost = fi->scaleCpu(node_, cost); // straggler injection
    cpu_free_ = std::max(fabric_.sim_.now(), cpu_free_) + cost;
    return cpu_free_;
}

sim::DelayAwaiter
Transport::busy(Time cost)
{
    sim::Simulator &sim = fabric_.sim_;
    return sim.delay(occupyCpu(cost) - sim.now()); // ready at once when
                                                   // the charge ends now
}

bool
Transport::hold(Op &op, Time cost)
{
    sim::Simulator &sim = fabric_.sim_;
    const Time end = occupyCpu(cost);
    if (end == sim.now())
        return false;
    sim.callAt(end, &resumeOp, &op);
    return true;
}

Time
Transport::sendOverhead(const CostOverride &ov) const
{
    return ov.send >= 0 ? ov.send : fabric_.params_.send_overhead;
}

Time
Transport::recvOverhead(const CostOverride &ov) const
{
    return ov.recv >= 0 ? ov.recv : fabric_.params_.recv_overhead;
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
Transport::sendDone(const SendOp &op, stats::SendPath path)
{
    if (stats::Probe *probe = fabric_.probe_)
        probe->send(node_, op.dst, op.bytes, path, op.start,
                    fabric_.sim_.now());
}

void
Transport::recvDone(const RecvOp &op)
{
    if (stats::Probe *probe = fabric_.probe_)
        probe->recv(node_, op.msg.src, op.msg.bytes, op.start,
                    fabric_.sim_.now());
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
Transport::sendEager(SendOp &op)
{
    const Time inject_done = injectCopy(op.bytes);
    Transport *peer = &fabric_.node(op.dst);
    Message m{node_,    op.dst, op.tag, op.context,
              op.bytes, std::move(op.payload), 0, 0};
    transmitWire(op.dst, op.bytes, inject_done,
                 [this, peer, m = std::move(m)](Time arrival) mutable {
                     m.arrival = arrival;
                     fabric_.sim_.scheduleAt(
                         arrival, [peer, m = std::move(m)]() mutable {
                             peer->deliverEager(std::move(m));
                         });
                 });
}

void
Transport::sendRts(SendOp &op)
{
    Transport *peer = &fabric_.node(op.dst);
    const Rts rts{node_, op.tag, op.context, &op, 0};
    transmitWire(op.dst, 0, fabric_.sim_.now(),
                 [this, peer, rts](Time arrival) {
                     fabric_.sim_.scheduleAt(arrival, [peer, rts] {
                         peer->deliverRts(rts);
                     });
                 });
}

void
Transport::sendData(SendOp &op, Time when)
{
    // The receive is parked until the data lands, so the message can
    // wait in it.
    RecvOp *to = op.receiver;
    to->msg = Message{node_,    op.dst, op.tag, op.context,
                      op.bytes, std::move(op.payload), 0, 0};
    transmitWire(op.dst, op.bytes, when, [this, to](Time arrival) {
        to->msg.arrival = arrival;
        fabric_.sim_.callAt(arrival, &wake, to);
    });
}

void
Transport::wake(sim::EventQueue &q, void *arg)
{
    q.callNow(&resumeOp, arg);
}

void
Transport::resumeOp(sim::EventQueue &, void *arg)
{
    Op &op = *static_cast<Op *>(arg);
    if (op.recv)
        op.tp->stepRecv(static_cast<RecvOp &>(op));
    else
        op.tp->stepSend(static_cast<SendOp &>(op));
}

void
Transport::start(Op &op)
{
    ++op.refs;
    fabric_.sim_.beginOp();
    resumeOp(fabric_.sim_.queue(), &op);
}

void
Transport::finish(Op &op)
{
    fabric_.sim_.endOp();
    if (op.recv)
        if (SendOp *half = std::exchange(
                static_cast<RecvOp &>(op).send_half, nullptr))
            Fabric::release(*half);
    op.done.fire();
    // A parked caller's awaiter still holds a reference, so the op
    // outlives this release; its co_await drops the last one.
    const std::coroutine_handle<> caller = op.caller;
    Fabric::release(op);
    if (caller)
        caller.resume();
}

namespace {

/** Where a send op resumes: each step runs to its next wait. */
enum SendStep : std::uint8_t
{
    kSendStart,   //!< check, charge o_send (and the copy, for self)
    kSelfDeliver, //!< hand the message to this node's own queues
    kEagerInject, //!< put the payload on the wire, charge the copy
    kEagerDone,
    kRtsInject, //!< put the RTS on the wire, wait for the CTS
    kCtsLanded, //!< BLT setup, or inject the data and charge the copy
    kBltInject,
    kRdvDone,
};

/** Where a receive op resumes. */
enum RecvStep : std::uint8_t
{
    kRecvStart, //!< start the send half, match or park
    kMatched,   //!< charge o_recv and the copy, or the rendezvous cost
    kCtsSend,   //!< return the CTS, wait for the data
    kDataLanded,
    kReceived,    //!< report, wait for the send half
    kSendHalfDone //!< take the send half's failure
};

} // namespace

void
Transport::stepSend(SendOp &op)
{
    // Each case runs one step; `continue` goes straight on to the
    // next one when its charge ends now, `return` leaves the op
    // waiting for the event that resumes it, and `break` ends it.
    const TransportParams &params = fabric_.params_;
    try {
        for (;;) {
            switch (op.step) {
              case kSendStart: {
                if (op.dst < 0 || op.dst >= fabric_.size())
                    panic("Transport::send: destination %d out of range",
                          op.dst);
                if (op.bytes < 0)
                    panic("Transport::send: negative size");
                if (op.payload &&
                    static_cast<Bytes>(op.payload->size()) != op.bytes)
                    panic("Transport::send: payload size %zu != declared "
                          "%lld",
                          op.payload->size(),
                          static_cast<long long>(op.bytes));
                const Time o_send = sendOverhead(op.ov);
                op.start = fabric_.sim_.now();
                Time cost;
                if (op.dst == node_) {
                    // Buffered local delivery: full copy on the sending
                    // side, nothing touches the network.
                    op.step = kSelfDeliver;
                    cost = o_send + copyTime(op.bytes);
                } else if (op.bytes <= params.eager_threshold) {
                    op.step = kEagerInject;
                    cost = o_send;
                } else {
                    // Rendezvous: RTS -> CTS -> DATA.
                    op.step = kRtsInject;
                    cost = o_send + params.rendezvous_overhead;
                }
                if (hold(op, cost))
                    return;
                continue;
              }
              case kSelfDeliver:
                deliverEager(Message{node_, op.dst, op.tag, op.context,
                                     op.bytes, std::move(op.payload),
                                     fabric_.sim_.now(), 0});
                sendDone(op, stats::SendPath::Self);
                break;
              case kEagerInject:
                sendEager(op);
                op.step = kEagerDone;
                if (hold(op, cpuCopyShare(op.bytes)))
                    return;
                continue;
              case kEagerDone:
                sendDone(op, stats::SendPath::Eager);
                break;
              case kRtsInject:
                sendRts(op);
                op.step = kCtsLanded;
                return;
              case kCtsLanded:
                if (params.blt_enabled && op.bytes >= params.blt_threshold) {
                    // Block-transfer engine: descriptor setup instead of
                    // a memory copy; the engine streams straight from
                    // user memory.
                    op.step = kBltInject;
                    if (hold(op, params.blt_setup))
                        return;
                    continue;
                }
                sendData(op, injectCopy(op.bytes));
                op.step = kRdvDone;
                if (hold(op, cpuCopyShare(op.bytes)))
                    return;
                continue;
              case kBltInject:
                sendData(op, fabric_.sim_.now());
                sendDone(op, stats::SendPath::Blt);
                break;
              case kRdvDone:
                sendDone(op, stats::SendPath::Rendezvous);
                break;
            }
            break;
        }
    } catch (...) {
        op.exc = std::current_exception();
    }
    finish(op);
}

SendOp &
Transport::makeSend(int dst, int tag, int context, Bytes bytes,
                    PayloadPtr payload, CostOverride ov)
{
    return *fabric_.send_ops_.make(fabric_.sim_, *this, dst, tag, context,
                                   bytes, std::move(payload), ov);
}

RecvOp &
Transport::makeRecv(int src, int tag, int context, CostOverride ov)
{
    return *fabric_.recv_ops_.make(fabric_.sim_, *this, src, tag, context,
                                   ov);
}

SendAwaiter
Transport::send(int dst, int tag, int context, Bytes bytes,
                PayloadPtr payload, CostOverride ov)
{
    return SendAwaiter(
        makeSend(dst, tag, context, bytes, std::move(payload), ov));
}

bool
Transport::takeArrived(RecvOp &op)
{
    auto eit = std::find_if(
        unexpected_.begin(), unexpected_.end(), [&](const Message &m) {
            return matches(op.src, op.tag, op.context, m.src, m.tag,
                           m.context);
        });
    auto rit = std::find_if(
        pending_rts_.begin(), pending_rts_.end(), [&](const Rts &r) {
            return matches(op.src, op.tag, op.context, r.src, r.tag,
                           r.context);
        });
    const bool have_eager = eit != unexpected_.end();
    const bool have_rts = rit != pending_rts_.end();
    // Non-overtaking: take whichever arrived first.
    if (have_eager && (!have_rts || eit->seq < rit->seq)) {
        op.msg = std::move(*eit);
        unexpected_.erase(eit);
    } else if (have_rts) {
        op.msg.src = rit->src;
        op.sender = rit->op;
        pending_rts_.erase(rit);
    } else {
        return false;
    }
    op.matched = true;
    return true;
}

void
Transport::park(RecvOp &op)
{
    pending_recvs_.push_back(&op);
    if (stats::Probe *probe = fabric_.probe_)
        probe->queueDepth(stats::MatchQueue::PendingRecv,
                          pending_recvs_.size());
}

void
Transport::sendCts(RecvOp &op)
{
    sim::Simulator &sim = fabric_.sim_;
    Time cts_arrival = injectAt(op.msg.src, 0, sim.now());
    op.sender->receiver = &op;
    sim.callAt(cts_arrival, &wake, op.sender);
}

void
Transport::stepRecv(RecvOp &op)
{
    // The same shape as stepSend.
    try {
        for (;;) {
            switch (op.step) {
              case kRecvStart:
                if (op.send_half)
                    start(*op.send_half);
                if (op.src != kAnySource &&
                    (op.src < 0 || op.src >= fabric_.size()))
                    panic("Transport::recv: source %d out of range",
                          op.src);
                op.start = fabric_.sim_.now();
                op.step = kMatched;
                if (!takeArrived(op)) {
                    // Nothing has arrived yet: park until a matching
                    // delivery.
                    park(op);
                    return;
                }
                continue;
              case kMatched: {
                if (!op.matched)
                    panic("Transport::recv: woken with nothing delivered");
                Time cost;
                if (!op.sender) {
                    op.step = kReceived;
                    cost = recvOverhead(op.ov) + copyTime(op.msg.bytes);
                } else {
                    // Rendezvous: process the RTS and return the
                    // clear-to-send; the payload lands directly in the
                    // user buffer, so only the completion cost remains.
                    op.step = kCtsSend;
                    cost = fabric_.params_.rendezvous_overhead;
                }
                if (hold(op, cost))
                    return;
                continue;
              }
              case kCtsSend:
                sendCts(op);
                op.step = kDataLanded;
                return;
              case kDataLanded:
                op.step = kReceived;
                if (hold(op, recvOverhead(op.ov)))
                    return;
                continue;
              case kReceived:
                recvDone(op);
                op.step = kSendHalfDone;
                if (op.send_half && !op.send_half->done.fired()) {
                    op.send_half->done.addWaiter(&resumeOp, &op);
                    return;
                }
                continue;
              case kSendHalfDone:
                if (op.send_half)
                    op.exc = op.send_half->exc;
                break;
            }
            break;
        }
    } catch (...) {
        op.exc = std::current_exception();
    }
    finish(op);
}

RecvAwaiter
Transport::recv(int src, int tag, int context, CostOverride ov)
{
    return RecvAwaiter(makeRecv(src, tag, context, ov));
}

RecvAwaiter
Transport::sendrecv(int dst, int send_tag, Bytes bytes, int src,
                    int recv_tag, int context, PayloadPtr payload,
                    CostOverride ov)
{
    RecvOp &op = makeRecv(src, recv_tag, context, ov);
    op.send_half =
        &makeSend(dst, send_tag, context, bytes, std::move(payload), ov);
    return RecvAwaiter(op);
}

void
Transport::deliverEager(Message m)
{
    m.seq = arrival_seq_++;
    for (auto it = pending_recvs_.begin(); it != pending_recvs_.end();
         ++it) {
        RecvOp *op = *it;
        if (matches(op->src, op->tag, op->context, m.src, m.tag,
                    m.context)) {
            pending_recvs_.erase(it);
            op->msg = std::move(m);
            op->matched = true;
            fabric_.sim_.callNow(&resumeOp, op);
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
        RecvOp *op = *it;
        if (matches(op->src, op->tag, op->context, rts.src, rts.tag,
                    rts.context)) {
            pending_recvs_.erase(it);
            op->msg.src = rts.src;
            op->sender = rts.op;
            op->matched = true;
            fabric_.sim_.callNow(&resumeOp, op);
            return;
        }
    }
    pending_rts_.push_back(rts);
    if (stats::Probe *probe = fabric_.probe_)
        probe->queueDepth(stats::MatchQueue::PendingRts,
                          pending_rts_.size());
}

Request
Transport::isend(int dst, int tag, int context, Bytes bytes,
                 PayloadPtr payload, CostOverride ov)
{
    SendOp &op = makeSend(dst, tag, context, bytes, std::move(payload), ov);
    start(op);
    return Request(&op);
}

Request
Transport::irecv(int src, int tag, int context, CostOverride ov)
{
    RecvOp &op = makeRecv(src, tag, context, ov);
    start(op);
    return Request(&op);
}

WaitAwaiter
Transport::wait(Request req)
{
    if (!req.op_)
        panic("Transport::wait: empty request");
    return WaitAwaiter(std::move(req));
}

void
Fabric::release(Op &op) noexcept
{
    if (--op.refs != 0)
        return;
    Fabric &f = op.tp->fabric_;
    if (op.recv)
        f.recv_ops_.recycle(static_cast<RecvOp *>(&op));
    else
        f.send_ops_.recycle(static_cast<SendOp *>(&op));
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
    // The endpoints go first; the operation pools, members, then
    // destroy whatever a failed or deadlocked run left in flight.
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

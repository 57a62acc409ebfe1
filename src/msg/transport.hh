/**
 * @file
 * Transport: one node's message-passing endpoint.
 *
 * Implements MPI point-to-point semantics over the simulated
 * network: envelope matching on (source, tag, context) with FIFO
 * non-overtaking per pair, an unexpected-message queue, and two wire
 * protocols:
 *
 *  - eager: the payload is pushed immediately; the receiver copies
 *    it out of system buffers (per-byte copy cost on both sides);
 *  - rendezvous (above the eager threshold): RTS -> CTS handshake,
 *    then the payload lands directly in the user buffer (no receive
 *    copy) — this is why long-message behaviour differs so sharply
 *    from short-message behaviour on the real machines.
 *
 * Three pieces of mid-90s hardware are modelled explicitly because
 * the paper attributes its headline results to them:
 *
 *  - a message COPROCESSOR (Intel Paragon's i860 MP): a fraction of
 *    the injection copy runs off the main processor, shrinking the
 *    per-message gap for pipelined long-message traffic;
 *  - a BLOCK TRANSFER ENGINE (Cray T3D's BLT): transfers at or above
 *    the BLT threshold replace both memory copies with a one-off
 *    descriptor-setup cost and stream at full link rate;
 *  - per-message SOFTWARE overhead (send/receive), the dominant term
 *    in every startup latency the paper measures.
 *
 * All software costs serialize on the owning node's CPU timeline, so
 * a root gathering from 63 children pays 63 receive overheads
 * back-to-back, exactly like the real thing.
 */

#ifndef CCSIM_MSG_TRANSPORT_HH
#define CCSIM_MSG_TRANSPORT_HH

#include <coroutine>
#include <cstdint>
#include <exception>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "fault/fault_injector.hh"
#include "msg/message.hh"
#include "net/network.hh"
#include "sim/pool.hh"
#include "sim/simulator.hh"
#include "sim/task.hh"
#include "util/units.hh"

namespace ccsim::stats {
class Probe;
enum class SendPath;
}

namespace ccsim::msg {

/** Wildcard tag for receives (matches any tag). */
constexpr int kAnyTag = -1;

/** Software/protocol parameters of a node's messaging system. */
struct TransportParams
{
    /** CPU cost to initiate any send (the o_s of LogP). */
    Time send_overhead = 0;

    /** CPU cost to complete any receive (the o_r of LogP). */
    Time recv_overhead = 0;

    /** Memory-copy bandwidth into/out of system buffers, MB/s. */
    double copy_bandwidth_mbs = 400.0;

    /** Payloads strictly larger than this go rendezvous. */
    Bytes eager_threshold = 4 * KiB;

    /** Extra CPU cost per side for the rendezvous handshake. */
    Time rendezvous_overhead = 0;

    /** Fraction [0,1] of the injection copy offloaded to a message
     *  coprocessor (0 = none, Paragon ~0.9). */
    double coprocessor_overlap = 0.0;

    /** Block-transfer engine present (T3D). */
    bool blt_enabled = false;

    /** Rendezvous payloads at or above this use the BLT. */
    Bytes blt_threshold = 16 * KiB;

    /** BLT descriptor setup cost (sender CPU). */
    Time blt_setup = 0;
};

class Fabric;
class Transport;

/**
 * Per-call software-overhead override.  Vendor MPI implementations
 * sometimes bypass the normal messaging layers inside specific
 * collectives (e.g.\ the Paragon NX scan fast path); a collective
 * passes an override to model that.  Negative fields keep the
 * machine defaults.
 */
struct CostOverride
{
    Time send = -1;
    Time recv = -1;
};

/**
 * What a send and a receive in flight share.  An operation is a
 * record from its Fabric's pool, not a coroutine: each step runs to
 * its next wait and schedules the step after it as a plain queue
 * event (sim::EventQueue::callAt), at the time and place in the
 * event order where a coroutine would have been resumed.  The last
 * step fires @c done, which the Requests of an isend or irecv wait
 * on, and resumes the parked caller of a blocking send, recv or
 * sendrecv.
 */
struct Op
{
    Op(sim::Simulator &sim, Transport &t, bool is_recv, int tg, int ctx,
       CostOverride o)
        : tp(&t), done(sim), ov(o), tag(tg), context(ctx), recv(is_recv)
    {
    }

    Op(const Op &) = delete;
    Op &operator=(const Op &) = delete;

    Transport *tp;                  //!< the endpoint it runs on
    sim::Trigger done;              //!< fired by the last step
    std::exception_ptr exc;         //!< the failure, if any
    std::coroutine_handle<> caller; //!< a blocking op's parked caller
    Time start = 0;                 //!< when the op began (probe)
    CostOverride ov;
    int tag;
    int context;
    std::uint32_t refs = 1; //!< Requests, awaiter, the running op
    std::uint8_t step = 0;  //!< where the next step resumes
    bool recv;              //!< a RecvOp (else a SendOp)
};

struct RecvOp;

/** A send in flight: self, eager, rendezvous or BLT. */
struct SendOp : Op
{
    SendOp(sim::Simulator &sim, Transport &t, int d, int tg, int ctx,
           Bytes b, PayloadPtr p, CostOverride o)
        : Op(sim, t, false, tg, ctx, o), dst(d), bytes(b),
          payload(std::move(p))
    {
    }

    int dst;
    Bytes bytes;
    PayloadPtr payload;
    RecvOp *receiver = nullptr; //!< rendezvous: the receive to fill
};

/**
 * A receive in flight: the wanted envelope, then what matched it.
 * An eager match fills @c msg; a rendezvous match names its
 * @c sender (and @c msg.src), whose data phase fills @c msg.  While
 * parked the op is listed in its endpoint's pending receives until a
 * delivery fills it.  A sendrecv's receive also owns its send half,
 * started with it and awaited at its end.
 */
struct RecvOp : Op
{
    RecvOp(sim::Simulator &sim, Transport &t, int s, int tg, int ctx,
           CostOverride o)
        : Op(sim, t, true, tg, ctx, o), src(s)
    {
    }

    int src;
    bool matched = false;
    Message msg;
    SendOp *sender = nullptr;    //!< rendezvous: the matched RTS's op
    SendOp *send_half = nullptr; //!< sendrecv: the send, one reference
};

/**
 * Handle for a nonblocking send/receive: one counted reference on
 * its operation, whose record is pooled by the machine's Fabric, so a
 * Request must not outlive its Machine.
 */
class Request
{
  public:
    Request() = default;
    Request(const Request &o) noexcept : op_(o.op_)
    {
        if (op_)
            ++op_->refs;
    }
    Request(Request &&o) noexcept : op_(std::exchange(o.op_, nullptr)) {}

    Request &
    operator=(Request o) noexcept
    {
        std::swap(op_, o.op_);
        return *this;
    }

    ~Request();

    /** True once the operation has completed (or failed). */
    bool test() const { return op_ && op_->done.fired(); }

  private:
    friend class Transport;
    friend class WaitAwaiter;

    /** Adopt one reference on @p op. */
    explicit Request(Op *op) noexcept : op_(op) {}

    Op *op_ = nullptr;
};

/**
 * Awaitable completion of a Request: parks the awaiting coroutine on
 * the operation's trigger (no frame of its own), then rethrows the
 * operation's failure or moves out its message (an empty Message for
 * sends).  Holds its reference until it is destroyed.
 */
class [[nodiscard]] WaitAwaiter
{
  public:
    explicit WaitAwaiter(Request req) : req_(std::move(req)) {}

    bool await_ready() const noexcept { return req_.op_->done.fired(); }

    void
    await_suspend(std::coroutine_handle<> h)
    {
        req_.op_->done.wait().await_suspend(h);
    }

    Message
    await_resume() const
    {
        Op &op = *req_.op_;
        if (op.exc)
            std::rethrow_exception(op.exc);
        if (op.recv)
            return std::move(static_cast<RecvOp &>(op).msg);
        return Message{};
    }

  private:
    Request req_;
};

/**
 * Awaitable blocking send (R = void) or receive (R = Message).  The
 * operation is built at the call and started when awaited; the caller
 * stays parked until the operation's last step, which resumes it
 * directly from inside its own event, and the co_await then rethrows
 * the failure or yields the message.  The awaiter is all the caller's
 * frame holds: the operation costs no frame.
 */
template <typename R>
class [[nodiscard]] OpAwaiter
{
  public:
    explicit OpAwaiter(Op &op) noexcept : op_(&op) {}
    OpAwaiter(OpAwaiter &&o) noexcept
        : op_(std::exchange(o.op_, nullptr)), started_(o.started_)
    {
    }
    OpAwaiter(const OpAwaiter &) = delete;
    OpAwaiter &operator=(const OpAwaiter &) = delete;

    /** Drops an operation that was never awaited.  A started one is
     *  left alone: it resumes the caller, which releases it, or dies
     *  with its Fabric when the run is abandoned. */
    ~OpAwaiter();

    bool await_ready();
    void await_suspend(std::coroutine_handle<> h) noexcept
    {
        op_->caller = h;
    }
    R await_resume();

  private:
    Op *op_;
    bool started_ = false;
};

using SendAwaiter = OpAwaiter<void>;
using RecvAwaiter = OpAwaiter<Message>;

/**
 * One node's messaging endpoint: its CPU and coprocessor timelines
 * and its match queues.  Everything the endpoints of a machine share
 * (simulator, network, parameters, operation pools, probe and fault
 * hooks) lives once, in the owning Fabric.
 */
class Transport
{
  public:
    /** Endpoint of node @p node; @p fabric owns it and outlives it. */
    Transport(Fabric &fabric, int node) : fabric_(fabric), node_(node) {}

    Transport(const Transport &) = delete;
    Transport &operator=(const Transport &) = delete;

    /** This endpoint's node id. */
    int node() const { return node_; }

    /**
     * Blocking send.  Completes when the local resources are free to
     * reuse (eager: after local injection; rendezvous: after the
     * receiver's CTS and the data injection).  Self-sends are
     * buffered locally and never deadlock.
     */
    SendAwaiter send(int dst, int tag, int context, Bytes bytes,
                     PayloadPtr payload = nullptr, CostOverride ov = {});

    /**
     * Blocking receive matching (@p src | kAnySource,
     * @p tag | kAnyTag, @p context).  Returns the matched message.
     */
    RecvAwaiter recv(int src, int tag, int context, CostOverride ov = {});

    /** Nonblocking send; pair with wait(). */
    Request isend(int dst, int tag, int context, Bytes bytes,
                  PayloadPtr payload = nullptr, CostOverride ov = {});

    /** Nonblocking receive; pair with wait(). */
    Request irecv(int src, int tag, int context, CostOverride ov = {});

    /**
     * Wait for a request; the co_await yields the message for
     * receives (an empty Message for sends) and rethrows any failure.
     */
    WaitAwaiter wait(Request req);

    /**
     * Combined send + receive, both in flight at once (the primitive
     * that keeps pairwise/ring/recursive-doubling exchanges from
     * deadlocking under the rendezvous protocol).  The receive starts
     * the send half first, completes, then waits for the send half.
     */
    RecvAwaiter sendrecv(int dst, int send_tag, Bytes bytes, int src,
                         int recv_tag, int context,
                         PayloadPtr payload = nullptr,
                         CostOverride ov = {});

    /**
     * Occupy this node's CPU for @p cost, serialized after any
     * earlier software activity on the node.  Exposed so collectives
     * can charge reduction arithmetic and per-call entry costs.
     *
     * The CPU timeline is charged when busy() is called; the returned
     * awaiter suspends the caller until the charge ends.  co_await it
     * at once: every caller does, so the resumption takes the same
     * place in the event order as if the charge ran inside the
     * co_await.
     */
    sim::DelayAwaiter busy(Time cost);

  private:
    friend class Fabric;
    template <typename R>
    friend class OpAwaiter;

    /** An RTS awaiting a matching receive.  It names the sending op;
     *  the payload travels with the data phase. */
    struct Rts
    {
        int src = 0;
        int tag = 0;
        int context = 0;
        SendOp *op = nullptr;
        std::uint64_t seq = 0;
    };

    bool matches(int want_src, int want_tag, int want_ctx,
                 int src, int tag, int ctx) const;

    /** A send op or receive op from the fabric's pools, holding one
     *  reference for its maker. */
    SendOp &makeSend(int dst, int tag, int context, Bytes bytes,
                     PayloadPtr payload, CostOverride ov);
    RecvOp &makeRecv(int src, int tag, int context, CostOverride ov);

    /** Count @p op as pending, take the running op's reference on it
     *  and run its first steps. */
    void start(Op &op);

    /** The Fire of every step after the first: runs the op at @p arg
     *  from its current step to its next wait. */
    static void resumeOp(sim::EventQueue &q, void *arg);

    /** The Fire of a CTS or rendezvous data landing: wakes the op at
     *  @p arg through one more event now, as a fired trigger wakes a
     *  waiter. */
    static void wake(sim::EventQueue &q, void *arg);

    void stepSend(SendOp &op);
    void stepRecv(RecvOp &op);

    /** The op's last step: stop counting it, release its send half,
     *  fire its trigger, drop the running op's reference, then resume
     *  its caller, if one is parked. */
    void finish(Op &op);

    /**
     * Charge @p cost to this node's CPU, serialized after earlier
     * activity (straggler-scaled), and return when the charge ends.
     * busy() and the operations' steps share it.
     */
    Time occupyCpu(Time cost);

    /** occupyCpu() on behalf of @p op: true when the charge ends
     *  after now, and @p op's next step is then scheduled for it. */
    bool hold(Op &op, Time cost);

    /** The per-message software overheads, @p ov applied. */
    Time sendOverhead(const CostOverride &ov) const;
    Time recvOverhead(const CostOverride &ov) const;

    /**
     * Take the earliest arrival (eager message or RTS) that matches
     * @p op out of the match queues into @p op.  Returns false, and
     * leaves the queues alone, when nothing matching has arrived.
     */
    bool takeArrived(RecvOp &op);

    /** List @p op as a parked receive. */
    void park(RecvOp &op);

    /** Eager payload (or self-send) arrival at this node. */
    void deliverEager(Message m);

    /** RTS arrival at this node. */
    void deliverRts(Rts rts);

    /** Receiver side of a rendezvous: return the clear-to-send to the
     *  sender @p op matched. */
    void sendCts(RecvOp &op);

    /** Time to copy @p bytes into or out of system buffers. */
    Time copyTime(Bytes bytes) const;

    /**
     * Charge the injection copy of @p bytes to the coprocessor/DMA
     * timeline and return when it is done.  The main CPU is held only
     * for cpuCopyShare() of it.
     */
    Time injectCopy(Bytes bytes);

    /** The main CPU's (1 - overlap) share of an injection copy. */
    Time cpuCopyShare(Bytes bytes) const;

    /** Copy an eager message out and put it on the wire. */
    void sendEager(SendOp &op);

    /** Start a rendezvous: the RTS naming @p op on the wire. */
    void sendRts(SendOp &op);

    /** The rendezvous data phase: fill the receive @p op matched, put
     *  the payload on the wire at @p when and wake that receive on
     *  arrival. */
    void sendData(SendOp &op, Time when);

    /** Inject one wire message; returns its arrival time at dst. */
    Time injectAt(int dst, Bytes bytes, Time when);

    /** injectAt plus any drawn delay-fault penalty. */
    Time wireArrival(int dst, Bytes bytes, Time when);

    /**
     * Dispatch one wire message (eager payload, RTS, or rendezvous
     * data), transmitted no earlier than @p when; @p deliver is
     * invoked exactly once with the final arrival time and must
     * schedule the actual delivery itself.
     *
     * Without an injector this is injectAt + deliver, unchanged
     * timing, and the continuation is invoked directly — no type
     * erasure, no allocation.  With message loss possible it spawns
     * the reliableDeliver protocol coroutine instead (erasing
     * @p deliver into a sim::DeliverFn); with delay faults only, the
     * penalty is added to the arrival time inline.
     */
    template <typename F>
    void transmitWire(int dst, Bytes bytes, Time when, F &&deliver);

    /**
     * The acknowledged wire protocol used when faults can lose
     * messages.  Each attempt occupies the route (a lost worm still
     * held the wires), then either delivers and waits for a zero-byte
     * ack on the reverse route, or — on a black-holed link or a drop
     * draw — retransmits after an exponentially backed-off timeout in
     * simulated time.  Raises fault::FaultError through the
     * simulator's run loop once spec.retry_budget retransmissions
     * have failed.  Control traffic (acks, rendezvous CTS) is modelled
     * as reliable; a real protocol would piggyback sequence numbers,
     * which changes nothing observable at collective granularity.
     */
    sim::Task<void> reliableDeliver(int dst, Bytes bytes, Time when,
                                    sim::DeliverFn deliver);

    /** Report a completed send to the probe (if anyone listens). */
    void sendDone(const SendOp &op, stats::SendPath path);

    /** Report a completed receive to the probe. */
    void recvDone(const RecvOp &op);

    Fabric &fabric_;
    int node_;

    Time cpu_free_ = 0;   // node CPU timeline
    Time copro_free_ = 0; // message coprocessor / DMA timeline

    std::uint64_t arrival_seq_ = 0;
    // Match queues are short (a handful of entries, FIFO-scanned) —
    // pooled vectors beat deques here: no chunk-map allocation per
    // endpoint, and erase-from-middle on a few entries is a trivial
    // move.
    std::vector<Message, sim::PoolAlloc<Message>> unexpected_;
    std::vector<Rts, sim::PoolAlloc<Rts>> pending_rts_;
    std::vector<RecvOp *, sim::PoolAlloc<RecvOp *>> pending_recvs_;
};

/**
 * One machine's messaging layer: the Transport of every node, and
 * once for all of them what they share — the simulator and network,
 * the parameter set, the operation pools, the probe and the fault
 * hooks.
 */
class Fabric
{
  public:
    /** Build @p n transports sharing one network and parameter set
     *  (checked once, before any endpoint is built).  @p fi
     *  (optional) injects faults: software overheads are scaled by
     *  the node's straggler factor, and when the fault spec makes
     *  message loss possible every wire payload runs the acknowledged
     *  timeout/retransmit protocol (see Transport::transmitWire). */
    Fabric(sim::Simulator &sim, net::Network &net, int n,
           const TransportParams &params,
           fault::FaultInjector *fi = nullptr);

    ~Fabric();

    Fabric(const Fabric &) = delete;
    Fabric &operator=(const Fabric &) = delete;

    /** Endpoint of node @p i. */
    Transport &node(int i);

    /** Number of endpoints. */
    int size() const { return n_; }

    /** Report every endpoint's sends, receives and queue depths to
     *  @p probe (null: nobody listens; the default). */
    void setProbe(stats::Probe *probe) { probe_ = probe; }

    /** Operation-pool counters (for metrics assembly). */
    sim::PoolCounters
    poolCounters() const
    {
        sim::PoolCounters out = send_ops_.counters();
        out += recv_ops_.counters();
        return out;
    }

    /** Drop one reference on @p op; the last one recycles it. */
    static void release(Op &op) noexcept;

  private:
    friend class Transport;
    template <typename R>
    friend class OpAwaiter;

    sim::Simulator &sim_;
    net::Network &net_;
    TransportParams params_;
    fault::FaultInjector *fi_;
    stats::Probe *probe_ = nullptr; //!< null: nobody listens

    /** The operation records.  Members of the fabric, they outlive
     *  every endpoint, and they destroy what a failed or deadlocked
     *  run left in flight. */
    sim::Pool<SendOp> send_ops_;
    sim::Pool<RecvOp> recv_ops_;

    /** Endpoints live in one contiguous slab (placement-new): a
     *  single allocation per machine instead of one per node, and
     *  neighbouring ranks share cache lines during sweeps. */
    Transport *slab_ = nullptr;
    int n_ = 0;
    bool lossy_; //!< fi_ present and message loss possible
};

inline Request::~Request()
{
    if (op_)
        Fabric::release(*op_);
}

template <typename R>
OpAwaiter<R>::~OpAwaiter()
{
    if (!op_ || started_)
        return;
    if (op_->recv)
        if (SendOp *half = static_cast<RecvOp *>(op_)->send_half)
            Fabric::release(*half);
    Fabric::release(*op_);
}

template <typename R>
bool
OpAwaiter<R>::await_ready()
{
    started_ = true;
    op_->tp->start(*op_);
    return op_->done.fired();
}

template <typename R>
R
OpAwaiter<R>::await_resume()
{
    Op &op = *std::exchange(op_, nullptr);
    std::exception_ptr exc = std::move(op.exc);
    if constexpr (std::is_void_v<R>) {
        Fabric::release(op);
        if (exc)
            std::rethrow_exception(exc);
    } else {
        Message m = std::move(static_cast<RecvOp &>(op).msg);
        Fabric::release(op);
        if (exc)
            std::rethrow_exception(exc);
        return m;
    }
}

} // namespace ccsim::msg

#endif // CCSIM_MSG_TRANSPORT_HH

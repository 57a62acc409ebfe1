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
#include <optional>
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

/** Completion state shared between a nonblocking op and its waiter. */
struct ReqState
{
    explicit ReqState(sim::Simulator &s) : done(s) {}

    sim::Trigger done;
    std::optional<Message> msg; // set for receives
    std::exception_ptr exc;
};

/**
 * Handle for a nonblocking send/receive.  The state slot is pooled
 * by the machine's Fabric, so a Request must not outlive its
 * Machine — which was already the rule, since ReqState references
 * the Simulator.
 */
struct Request
{
    sim::PoolPtr<ReqState> state;

    /** True once the operation has completed (or failed). */
    bool test() const { return state && state->done.fired(); }
};

/**
 * Awaitable completion of a Request: parks the awaiting coroutine on
 * the request's trigger (no frame of its own), then rethrows the
 * request's failure or moves out its message (an empty Message for
 * sends).  Holds a reference on the state slot until it resumes.
 */
class WaitAwaiter
{
  public:
    explicit WaitAwaiter(sim::PoolPtr<ReqState> st) : st_(std::move(st))
    {
    }

    bool await_ready() const noexcept { return st_->done.fired(); }

    void
    await_suspend(std::coroutine_handle<> h)
    {
        st_->done.wait().await_suspend(h);
    }

    Message
    await_resume() const
    {
        if (st_->exc)
            std::rethrow_exception(st_->exc);
        if (st_->msg)
            return std::move(*st_->msg);
        return Message{};
    }

  private:
    sim::PoolPtr<ReqState> st_;
};

/**
 * One node's messaging endpoint: its CPU and coprocessor timelines
 * and its match queues.  Everything the endpoints of a machine share
 * (simulator, network, parameters, completion pools, probe and fault
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
    sim::Task<void> send(int dst, int tag, int context, Bytes bytes,
                         PayloadPtr payload = nullptr,
                         CostOverride ov = {});

    /**
     * Blocking receive matching (@p src | kAnySource,
     * @p tag | kAnyTag, @p context).  Returns the matched message.
     */
    sim::Task<Message> recv(int src, int tag, int context,
                            CostOverride ov = {});

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
     * deadlocking under the rendezvous protocol).
     */
    sim::Task<Message> sendrecv(int dst, int send_tag, Bytes bytes,
                                int src, int recv_tag, int context,
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

    /** Rendezvous handshake state, shared sender <-> receiver. */
    struct Handshake
    {
        explicit Handshake(sim::Simulator &s) : cts(s), data(s) {}

        sim::Trigger cts;  // fired at the sender when CTS arrives
        sim::Trigger data; // fired at the receiver at data arrival
        Message msg;       // filled by the sender for the data phase
    };

    using HandshakePtr = sim::PoolPtr<Handshake>;

    /** An RTS awaiting a matching receive.  The payload travels with
     *  the data phase (Handshake::msg), so the RTS carries only the
     *  envelope. */
    struct Rts
    {
        int src = 0;
        int tag = 0;
        int context = 0;
        HandshakePtr hs;
        std::uint64_t seq = 0;
    };

    /**
     * A receive being matched: the wanted envelope, then what matched
     * it.  An eager match fills @c msg; a rendezvous match fills
     * @c hs and names the sender to clear in @c msg.src.  While
     * parked, the receive is listed in pending_recvs_ until a
     * delivery fills it and resumes @c handle.
     */
    struct PendingRecv
    {
        PendingRecv(int s, int t, int c) : src(s), tag(t), context(c) {}

        /** Match an eager arrival. */
        void
        take(Message &&m)
        {
            msg = std::move(m);
            matched = true;
        }

        /** Match an RTS: keep its handshake, name its sender. */
        void
        take(Rts &&rts)
        {
            msg.src = rts.src;
            hs = std::move(rts.hs);
            matched = true;
        }

        int src;
        int tag;
        int context;
        bool matched = false;
        std::coroutine_handle<> handle;
        Message msg;
        HandshakePtr hs;
    };

    bool matches(int want_src, int want_tag, int want_ctx,
                 int src, int tag, int ctx) const;

    /**
     * Take the earliest arrival (eager message or RTS) that matches
     * @p pr out of the match queues into @p pr.  Returns false, and
     * leaves the queues alone, when nothing matching has arrived.
     */
    bool takeArrived(PendingRecv &pr);

    /** List @p pr as a parked receive, to be resumed through @p h. */
    void park(PendingRecv &pr, std::coroutine_handle<> h);

    /** Eager payload (or self-send) arrival at this node. */
    void deliverEager(Message m);

    /** RTS arrival at this node. */
    void deliverRts(Rts rts);

    /** Receiver side of a rendezvous: return the clear-to-send for
     *  the handshake @p pr matched. */
    void sendCts(const PendingRecv &pr);

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

    /** Copy an eager message out and put it on the wire to @p dst. */
    void sendEager(int dst, int tag, int context, Bytes bytes,
                   PayloadPtr payload);

    /** Start a rendezvous to @p dst: a fresh handshake, its RTS on
     *  the wire. */
    HandshakePtr sendRts(int dst, int tag, int context);

    /** The rendezvous data phase: put the payload on the wire at
     *  @p when and fire the receiver's data trigger on arrival. */
    void sendData(const HandshakePtr &hs, int dst, int tag, int context,
                  Bytes bytes, PayloadPtr payload, Time when);

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

    /**
     * The one send coroutine, behind send() and isend().  With a
     * request state @p st (isend, spawned as a root) a failure goes
     * into st->exc and st->done fires at the end; without one (a
     * blocking send) the failure propagates to the awaiting caller.
     */
    sim::Task<void> sendTask(sim::PoolPtr<ReqState> st, int dst,
                             int tag, int context, Bytes bytes,
                             PayloadPtr payload, CostOverride ov);

    /**
     * The one receive coroutine, behind recv(), irecv() and
     * sendrecv().  With @p dst >= 0 it first issues the send half
     * (isend of @p bytes to @p dst under @p send_tag), then matches
     * and completes the receive, then waits on the send.  With a
     * request state @p st (irecv, spawned as a root) the message or
     * the failure goes into @p st and st->done fires at the end;
     * without one the message is the result and a failure propagates
     * to the awaiting caller.
     */
    sim::Task<Message> recvTask(sim::PoolPtr<ReqState> st, int src,
                                int tag, int context, CostOverride ov,
                                int dst, int send_tag, Bytes bytes,
                                PayloadPtr payload);

    /** Report a completed send to the probe (if anyone listens). */
    void sendDone(int dst, Bytes bytes, stats::SendPath path, Time start);

    /** Report a completed receive of @p m to the probe. */
    void recvDone(const Message &m, Time start);

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
    std::vector<PendingRecv *, sim::PoolAlloc<PendingRecv *>>
        pending_recvs_;
};

/**
 * One machine's messaging layer: the Transport of every node, and
 * once for all of them what they share — the simulator and network,
 * the parameter set, the completion-slot pools, the probe and the
 * fault hooks.
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

    /** Completion-slot pool counters (for metrics assembly). */
    sim::PoolCounters
    poolCounters() const
    {
        sim::PoolCounters out = req_pool_.counters();
        out += hs_pool_.counters();
        return out;
    }

  private:
    friend class Transport;

    sim::Simulator &sim_;
    net::Network &net_;
    TransportParams params_;
    fault::FaultInjector *fi_;
    stats::Probe *probe_ = nullptr; //!< null: nobody listens

    /** Slot pools for the per-operation completion objects.  Members
     *  of the fabric, they outlive every endpoint whose match queues
     *  still hold a slot. */
    sim::Pool<ReqState> req_pool_;
    sim::Pool<Transport::Handshake> hs_pool_;

    /** Endpoints live in one contiguous slab (placement-new): a
     *  single allocation per machine instead of one per node, and
     *  neighbouring ranks share cache lines during sweeps. */
    Transport *slab_ = nullptr;
    int n_ = 0;
    bool lossy_; //!< fi_ present and message loss possible
};

} // namespace ccsim::msg

#endif // CCSIM_MSG_TRANSPORT_HH

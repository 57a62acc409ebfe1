/**
 * @file
 * CollCtx: everything one collective invocation at one rank needs —
 * rank translation, the per-call tag/context, the machine's per-op
 * software cost calibration, and small coroutine helpers the
 * algorithms are written against.
 *
 * All algorithm code addresses *communicator* ranks; CollCtx
 * translates to global node ids at the transport boundary, so every
 * algorithm works unchanged on sub-communicators.
 *
 * The cost helpers (entry, stage, arith) and wait charge or park at
 * once and return frameless awaiters; co_await them where they are
 * called.  Algorithms share one context by reference (see
 * collectives.hh).
 */

#ifndef CCSIM_MPI_COLL_CTX_HH
#define CCSIM_MPI_COLL_CTX_HH

#include <memory>
#include <vector>

#include "machine/machine.hh"
#include "mpi/reduce_op.hh"
#include "msg/transport.hh"
#include "sim/task.hh"

namespace ccsim::mpi {

/** Per-invocation state shared by all collective algorithms. */
struct CollCtx
{
    machine::Machine *mach = nullptr;
    msg::Transport *tp = nullptr; //!< my endpoint

    int rank = 0; //!< my rank within the communicator
    int size = 1; //!< communicator size

    /** comm rank -> global node id (null = identity / world). */
    std::shared_ptr<const std::vector<int>> group;

    int context = 0; //!< collective context id of the communicator
    int tag = 0;     //!< this invocation's tag

    machine::CollCosts costs;  //!< per-op software calibration
    msg::CostOverride ov;      //!< derived overhead overrides
    double reduce_bw = 100.0;  //!< combine bandwidth, MB/s

    Combiner combiner; //!< null in size-only mode

    machine::Coll op = machine::Coll::Barrier; //!< the operation

    /** The machine's probe (null: nobody listens).  The ctx-level
     *  helpers report stages and messages to it, so every algorithm
     *  in coll_*.cc is covered without per-algorithm
     *  instrumentation. */
    machine::Probe *probe = nullptr;

    /** Global node id of communicator rank @p r. */
    int
    global(int r) const
    {
        return group ? (*group)[static_cast<size_t>(r)] : r;
    }

    /** Charge the one-time collective entry cost. */
    sim::DelayAwaiter entry() const { return tp->busy(costs.entry); }

    /**
     * Charge one algorithm stage's software cost; @p bytes is the
     * payload this rank handles in the stage (for the per-byte
     * component of the vendor-MPI calibration).
     */
    sim::DelayAwaiter
    stage(Bytes bytes = 0) const
    {
        if (probe)
            probe->collStage(op);
        Time per_byte = nanoseconds(costs.per_stage_ns_per_byte *
                                    static_cast<double>(bytes));
        return tp->busy(costs.per_stage + per_byte);
    }

    /** Charge the arithmetic to combine @p m bytes of operands. */
    sim::DelayAwaiter
    arith(Bytes m) const
    {
        double bw = costs.reduce_bandwidth_override_mbs > 0
                        ? costs.reduce_bandwidth_override_mbs
                        : reduce_bw;
        return tp->busy(transferTime(m, bw));
    }

    /** Send @p bytes to communicator rank @p to. */
    sim::Task<void>
    send(int to, Bytes bytes, msg::PayloadPtr payload = nullptr) const
    {
        if (probe)
            probe->collMessage(op);
        return tp->send(global(to), tag, context, bytes,
                        std::move(payload), ov);
    }

    /** Receive from communicator rank @p from (kAnySource allowed). */
    sim::Task<msg::Message>
    recv(int from) const
    {
        int src = from == msg::kAnySource ? from : global(from);
        return tp->recv(src, tag, context, ov);
    }

    /** Nonblocking send to communicator rank @p to. */
    msg::Request
    isend(int to, Bytes bytes, msg::PayloadPtr payload = nullptr) const
    {
        if (probe)
            probe->collMessage(op);
        return tp->isend(global(to), tag, context, bytes,
                         std::move(payload), ov);
    }

    /** Nonblocking receive from communicator rank @p from. */
    msg::Request
    irecv(int from) const
    {
        int src = from == msg::kAnySource ? from : global(from);
        return tp->irecv(src, tag, context, ov);
    }

    /** Wait on a request started through this context. */
    msg::WaitAwaiter
    wait(msg::Request r) const
    {
        return tp->wait(std::move(r));
    }

    /** Concurrent exchange with two (possibly equal) partners. */
    sim::Task<msg::Message>
    sendrecv(int to, Bytes bytes, int from,
             msg::PayloadPtr payload = nullptr) const
    {
        if (probe)
            probe->collMessage(op);
        return tp->sendrecv(global(to), tag, bytes, global(from), tag,
                            context, std::move(payload), ov);
    }

    /** Combine payloads (null-safe in size-only mode). */
    msg::PayloadPtr
    fold(const msg::PayloadPtr &a, const msg::PayloadPtr &b) const
    {
        if (!combiner)
            return nullptr;
        return combiner(a, b);
    }

    /** Translate comm rank by offset with wraparound. */
    int
    relative(int base, int offset) const
    {
        int r = (base + offset) % size;
        return r < 0 ? r + size : r;
    }

    /** Communicator rank owning global node id @p g (-1 if absent). */
    int
    commRankOf(int g) const
    {
        if (!group)
            return g < size ? g : -1;
        for (int i = 0; i < size; ++i)
            if ((*group)[static_cast<size_t>(i)] == g)
                return i;
        return -1;
    }
};

/** Smallest e with 2^e >= p (p >= 1). */
int ceilLog2(int p);

/** Largest e with 2^e <= p (p >= 1). */
int floorLog2(int p);

/** True when p is a power of two. */
bool isPow2(int p);

/** Slice @p bytes [offset, offset+len) out of a payload (null-safe). */
msg::PayloadPtr slicePayload(const msg::PayloadPtr &p, Bytes offset,
                             Bytes len);

/** Concatenate two payloads (null-safe: both null -> null). */
msg::PayloadPtr concatPayload(const msg::PayloadPtr &a,
                              const msg::PayloadPtr &b);

/** Concatenate many payloads in order (all-null -> null). */
msg::PayloadPtr concatPayloads(const std::vector<msg::PayloadPtr> &parts);

/**
 * Reorder a root-relative concatenation of p equal m-byte blocks
 * into absolute rank order: output block i is input block
 * (i - root) mod p.  Null-safe.
 */
msg::PayloadPtr rotateBlocksToAbsolute(const msg::PayloadPtr &rel,
                                       int p, Bytes m, int root);

/** Inverse of rotateBlocksToAbsolute: block j is input block
 *  (root + j) mod p.  Null-safe. */
msg::PayloadPtr rotateBlocksToRelative(const msg::PayloadPtr &abs,
                                       int p, Bytes m, int root);

} // namespace ccsim::mpi

#endif // CCSIM_MPI_COLL_CTX_HH

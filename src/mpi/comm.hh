/**
 * @file
 * Comm: the MPI-style communicator and the library's public API.
 *
 * One Comm object exists per participating rank (exactly like an
 * MPI_Comm handle inside one process).  Rank programs are C++20
 * coroutines:
 *
 * @code
 *     sim::Task<void> program(machine::Machine &m, int rank) {
 *         mpi::Comm comm(m, rank);
 *         co_await comm.barrier();
 *         co_await comm.bcast(1024, 0);           // size-only
 *         auto v = co_await comm.allreduceData<float>(
 *             {1.0f, 2.0f}, mpi::ReduceOp::Sum);  // data-carrying
 *     }
 * @endcode
 *
 * Size-only collectives move no payload bytes (the simulator charges
 * the time a real payload would take); the *Data variants carry and
 * transform real element buffers so results can be checked.
 *
 * MPI semantics respected: collective calls must be made by every
 * rank of the communicator in the same order; tags/contexts keep
 * distinct calls and distinct communicators from interfering.
 */

#ifndef CCSIM_MPI_COMM_HH
#define CCSIM_MPI_COMM_HH

#include <memory>
#include <vector>

#include "machine/machine.hh"
#include "mpi/coll_ctx.hh"
#include "mpi/collectives.hh"
#include "mpi/datatype.hh"
#include "mpi/reduce_op.hh"
#include "msg/transport.hh"
#include "sim/task.hh"

namespace ccsim::mpi {

using machine::Algo;
using machine::Coll;

/** Per-rank communicator handle. */
class Comm
{
  public:
    /** World communicator for @p rank on @p mach. */
    Comm(machine::Machine &mach, int rank);

    /** This rank within the communicator. */
    int rank() const { return rank_; }

    /** Communicator size. */
    int size() const { return size_; }

    /** Global node id of communicator rank @p r. */
    int globalRank(int r) const;

    machine::Machine &machine() const { return *mach_; }

    /** The underlying transport endpoint of this rank. */
    msg::Transport &transport() const;

    /**
     * Derive a sub-communicator from the given *communicator* ranks
     * (strictly increasing is not required; order defines new rank
     * numbering).  The calling rank must be a member.  Deterministic:
     * every member derives the same context without communication.
     */
    Comm subgroup(const std::vector<int> &members) const;

    // ---- point-to-point ------------------------------------------------

    msg::SendAwaiter send(int dst, int tag, Bytes bytes,
                          msg::PayloadPtr payload = nullptr) const;
    msg::RecvAwaiter recv(int src, int tag) const;
    msg::Request isend(int dst, int tag, Bytes bytes,
                       msg::PayloadPtr payload = nullptr) const;
    msg::Request irecv(int src, int tag) const;
    msg::WaitAwaiter wait(msg::Request req) const;
    msg::RecvAwaiter sendrecv(int dst, int send_tag, Bytes bytes,
                              int src, int recv_tag,
                              msg::PayloadPtr payload = nullptr) const;

    /** Occupy this rank's CPU for @p t (models local computation). */
    sim::Task<void> compute(Time t) const;

    // ---- collectives, size-only (benchmark form) -----------------------
    // m is the paper's "message length": bytes exchanged per node
    // pair (per-operand bytes for reduce/scan).

    // Every size-only method and its *Data sibling are one call() of
    // the operation's row (collectives.hh), the size-only form with a
    // null payload, so timing and tag allocation cannot diverge
    // between the two forms.

    // The default argument is Algo::Auto: resolved through the
    // machine's selection table when one is attached (see
    // tuning::resolveAlgo), and identical to Algo::Default — the
    // machine's configured choice — when none is.  Explicit
    // algorithms always pass through untouched.

    sim::Task<void> barrier(Algo algo = Algo::Auto);
    sim::Task<void> bcast(Bytes m, int root = 0,
                          Algo algo = Algo::Auto);
    sim::Task<void> gather(Bytes m, int root = 0,
                           Algo algo = Algo::Auto);
    sim::Task<void> scatter(Bytes m, int root = 0,
                            Algo algo = Algo::Auto);
    sim::Task<void> allgather(Bytes m, Algo algo = Algo::Auto);
    sim::Task<void> gatherv(const std::vector<Bytes> &counts,
                            int root = 0, Algo algo = Algo::Auto);
    sim::Task<void> scatterv(const std::vector<Bytes> &counts,
                             int root = 0, Algo algo = Algo::Auto);
    sim::Task<void> alltoall(Bytes m, Algo algo = Algo::Auto);
    sim::Task<void> reduce(Bytes m, int root = 0,
                           Algo algo = Algo::Auto);
    sim::Task<void> allreduce(Bytes m, Algo algo = Algo::Auto);
    sim::Task<void> reduceScatter(Bytes m, Algo algo = Algo::Auto);
    sim::Task<void> scan(Bytes m, Algo algo = Algo::Auto);

    /**
     * The one collective entry, for any row of the table: report the
     * call as requested, resolve @p algo (Auto through the machine's
     * selection table, Default to its configured choice; gatherv and
     * scatterv have no configured choice and take their row's first
     * algorithm), check the call against the row, charge the entry
     * cost, run the algorithm and report the end.  T is void for a
     * size-only call, else msg::PayloadPtr: the algorithm's result.
     * @p combiner folds reduction payloads; empty in size-only mode.
     */
    template <typename T = void>
    sim::Task<T> call(const CollOp &row, CollArgs args,
                      Algo algo = Algo::Auto, Combiner combiner = {});

    // ---- collectives, data-carrying ------------------------------------

    /** Broadcast root's vector; every rank returns it.  All ranks
     *  pass a vector of the broadcast length (contents matter only
     *  at the root). */
    template <typename T>
    sim::Task<std::vector<T>>
    bcastData(std::vector<T> v, int root = 0, Algo algo = Algo::Auto)
    {
        msg::PayloadPtr data =
            rank_ == root ? msg::makePayload(v) : nullptr;
        msg::PayloadPtr out = co_await call<msg::PayloadPtr>(
            kBcast, CollArgs(byteSize(v), root, std::move(data)), algo);
        co_return msg::payloadAs<T>(out);
    }

    /** Gather everyone's vector at the root (rank-order concat).
     *  Non-roots return an empty vector. */
    template <typename T>
    sim::Task<std::vector<T>>
    gatherData(const std::vector<T> &mine, int root = 0,
               Algo algo = Algo::Auto)
    {
        msg::PayloadPtr out = co_await call<msg::PayloadPtr>(
            kGather, CollArgs(byteSize(mine), root, msg::makePayload(mine)),
            algo);
        co_return msg::payloadAs<T>(out);
    }

    /** Scatter root's p*count vector; every rank returns its count
     *  elements.  Non-roots may pass an empty vector. */
    template <typename T>
    sim::Task<std::vector<T>>
    scatterData(const std::vector<T> &all, int count, int root = 0,
                Algo algo = Algo::Auto)
    {
        Bytes m = static_cast<Bytes>(count) *
                  static_cast<Bytes>(sizeof(T));
        msg::PayloadPtr data =
            rank_ == root ? msg::makePayload(all) : nullptr;
        msg::PayloadPtr out = co_await call<msg::PayloadPtr>(
            kScatter, CollArgs(m, root, std::move(data)), algo);
        co_return msg::payloadAs<T>(out);
    }

    /** gatherv: ragged gather; rank i contributes counts[i]
     *  elements; root returns the concatenation, others empty. */
    template <typename T>
    sim::Task<std::vector<T>>
    gathervData(const std::vector<T> &mine,
                const std::vector<int> &counts, int root = 0,
                Algo algo = Algo::Auto)
    {
        const std::vector<Bytes> bytes = toByteCounts<T>(counts);
        msg::PayloadPtr out = co_await call<msg::PayloadPtr>(
            kGatherv, CollArgs(0, root, msg::makePayload(mine), &bytes),
            algo);
        co_return msg::payloadAs<T>(out);
    }

    /** scatterv: ragged scatter; rank i returns counts[i] elements
     *  of root's concatenated buffer. */
    template <typename T>
    sim::Task<std::vector<T>>
    scattervData(const std::vector<T> &all,
                 const std::vector<int> &counts, int root = 0,
                 Algo algo = Algo::Auto)
    {
        const std::vector<Bytes> bytes = toByteCounts<T>(counts);
        msg::PayloadPtr data =
            rank_ == root ? msg::makePayload(all) : nullptr;
        msg::PayloadPtr out = co_await call<msg::PayloadPtr>(
            kScatterv, CollArgs(0, root, std::move(data), &bytes), algo);
        co_return msg::payloadAs<T>(out);
    }

    /** Allgather: everyone returns the rank-order concatenation. */
    template <typename T>
    sim::Task<std::vector<T>>
    allgatherData(const std::vector<T> &mine, Algo algo = Algo::Auto)
    {
        msg::PayloadPtr out = co_await call<msg::PayloadPtr>(
            kAllgather, CollArgs(byteSize(mine), -1, msg::makePayload(mine)),
            algo);
        co_return msg::payloadAs<T>(out);
    }

    /** Total exchange: pass p blocks of count elements (block i to
     *  rank i); returns p blocks (block i from rank i). */
    template <typename T>
    sim::Task<std::vector<T>>
    alltoallData(const std::vector<T> &mine, Algo algo = Algo::Auto)
    {
        if (mine.size() % static_cast<size_t>(size_) != 0)
            fatal("alltoallData: %zu elements not divisible by %d "
                  "ranks", mine.size(), size_);
        Bytes m = byteSize(mine) / size_;
        msg::PayloadPtr out = co_await call<msg::PayloadPtr>(
            kAlltoall, CollArgs(m, -1, msg::makePayload(mine)), algo);
        co_return msg::payloadAs<T>(out);
    }

    /** Elementwise reduction to the root; non-roots return empty. */
    template <typename T>
    sim::Task<std::vector<T>>
    reduceData(const std::vector<T> &mine, ReduceOp op, int root = 0,
               Algo algo = Algo::Auto)
    {
        msg::PayloadPtr out = co_await call<msg::PayloadPtr>(
            kReduce, CollArgs(byteSize(mine), root, msg::makePayload(mine)),
            algo, makeCombiner(op, datatypeOf<T>()));
        co_return msg::payloadAs<T>(out);
    }

    /** Elementwise reduction; everyone returns the result. */
    template <typename T>
    sim::Task<std::vector<T>>
    allreduceData(const std::vector<T> &mine, ReduceOp op,
                  Algo algo = Algo::Auto)
    {
        msg::PayloadPtr out = co_await call<msg::PayloadPtr>(
            kAllreduce, CollArgs(byteSize(mine), -1, msg::makePayload(mine)),
            algo, makeCombiner(op, datatypeOf<T>()));
        co_return msg::payloadAs<T>(out);
    }

    /** Reduce-scatter: pass p blocks of count elements; returns
     *  block rank() of the elementwise fold. */
    template <typename T>
    sim::Task<std::vector<T>>
    reduceScatterData(const std::vector<T> &mine, ReduceOp op,
                      Algo algo = Algo::Auto)
    {
        if (mine.size() % static_cast<size_t>(size_) != 0)
            fatal("reduceScatterData: %zu elements not divisible by "
                  "%d ranks", mine.size(), size_);
        Bytes m = byteSize(mine) / size_;
        msg::PayloadPtr out = co_await call<msg::PayloadPtr>(
            kReduceScatter, CollArgs(m, -1, msg::makePayload(mine)), algo,
            makeCombiner(op, datatypeOf<T>()));
        co_return msg::payloadAs<T>(out);
    }

    /** Inclusive prefix reduction in rank order. */
    template <typename T>
    sim::Task<std::vector<T>>
    scanData(const std::vector<T> &mine, ReduceOp op,
             Algo algo = Algo::Auto)
    {
        msg::PayloadPtr out = co_await call<msg::PayloadPtr>(
            kScan, CollArgs(byteSize(mine), -1, msg::makePayload(mine)),
            algo, makeCombiner(op, datatypeOf<T>()));
        co_return msg::payloadAs<T>(out);
    }

  private:
    Comm(machine::Machine &mach, int rank, int size,
         std::shared_ptr<const std::vector<int>> group, int ctx_id);

    /** Resolve @p algo for a call of @p row (see call()) and assemble
     *  the per-call context, allocating the next tag. */
    CollCtx makeCtx(const CollOp &row, Algo &algo, Bytes m,
                    Combiner combiner);

    /** Report call @p c, as requested, to the probe (if anyone
     *  listens); fills in the calling global rank. */
    void
    report(machine::Call c) const
    {
        if (probe_) {
            c.node = globalRank(rank_);
            probe_->call(c);
        }
    }

    template <typename T>
    static std::vector<Bytes>
    toByteCounts(const std::vector<int> &counts)
    {
        std::vector<Bytes> out;
        out.reserve(counts.size());
        for (int c : counts)
            out.push_back(static_cast<Bytes>(c) *
                          static_cast<Bytes>(sizeof(T)));
        return out;
    }

    template <typename T>
    static Bytes
    byteSize(const std::vector<T> &v)
    {
        return static_cast<Bytes>(v.size()) *
               static_cast<Bytes>(sizeof(T));
    }

    machine::Machine *mach_;
    machine::Probe *probe_; //!< the machine's, taken at construction
    int rank_;
    int size_;
    std::shared_ptr<const std::vector<int>> group_; // null = world
    int ctx_id_;
    int coll_seq_ = 0;
};

} // namespace ccsim::mpi

#endif // CCSIM_MPI_COMM_HH

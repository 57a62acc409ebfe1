/**
 * @file
 * The collective table: one row per operation, defined next to its
 * algorithms in coll_<op>.cc.  A row is the only place that knows an
 * operation's algorithms (in the order the tuner tries them) and its
 * argument rules.  Comm::call checks every call against its row,
 * tuning::candidateAlgos reads the candidates from it, and the trace
 * parser reads the root and algorithm rules from it.
 *
 * All algorithms are rank-local coroutines: every rank of the
 * communicator calls the same one with matching arguments, exactly
 * like MPI.
 *
 * Payload semantics (all null-safe; null in size-only mode):
 *  - bcast:     root passes the m-byte message, all ranks return it;
 *  - gather:    each rank passes its m-byte block, root returns the
 *               p*m concatenation in rank order, others null;
 *  - scatter:   root passes p*m bytes, every rank returns its block;
 *  - gatherv:   rank i passes counts[i] bytes, root returns the
 *               concatenation in rank order;
 *  - scatterv:  root passes sum(counts) bytes, rank i returns its
 *               counts[i]-byte block;
 *  - allgather: each passes m bytes, all return the concatenation;
 *  - alltoall:  each passes p*m bytes (block i to rank i), all
 *               return p*m (block i from rank i);
 *  - reduce:    each passes m bytes, root returns the elementwise
 *               fold, others null;
 *  - allreduce: like reduce but everyone returns the fold;
 *  - reduce-scatter: each passes p blocks of m bytes, block i of the
 *               elementwise fold lands at rank i;
 *  - scan:      inclusive prefix fold in rank order.
 */

#ifndef CCSIM_MPI_COLLECTIVES_HH
#define CCSIM_MPI_COLLECTIVES_HH

#include <span>
#include <string>
#include <vector>

#include "machine/collective_types.hh"
#include "mpi/coll_ctx.hh"

namespace ccsim::mpi {

/**
 * One rank's arguments to one collective call.  The constructor is
 * there on purpose: GCC 12 destroys a prvalue *aggregate* passed by
 * value to a coroutine twice (DESIGN.md §4.1), and every algorithm
 * takes its arguments by value.
 */
struct CollArgs
{
    CollArgs(Bytes m, int root, msg::PayloadPtr data,
             const std::vector<Bytes> *counts = nullptr)
        : m(m), root(root), data(std::move(data)), counts(counts)
    {
    }

    Bytes m;              //!< message length (0: barrier, gatherv...)
    int root;             //!< communicator-local root (rooted rows)
    msg::PayloadPtr data; //!< this rank's payload; null if size-only
    const std::vector<Bytes> *counts; //!< per-rank bytes (gatherv...)
};

/**
 * One algorithm.  It takes the caller's context by reference: the
 * context lives in the caller's frame, and each algorithm is
 * co_awaited at once, never spawned, so the referent outlives it.
 */
using AlgoFn = sim::Task<msg::PayloadPtr> (*)(const CollCtx &ctx,
                                              CollArgs args);

struct AlgoEntry
{
    machine::Algo algo;
    AlgoFn run;
};

/** How many bytes a rank passes in. */
enum class Payload
{
    None,   //!< nothing: m is always 0 (barrier)
    M,      //!< m bytes
    Blocks, //!< p blocks of m bytes
    Counts, //!< counts[rank] bytes; with root_only, the root passes
            //!< sum(counts)
};

/** One row of the collective table. */
struct CollOp
{
    machine::Coll op;  //!< what the probe and the machine config call
                       //!< it (gatherv reports Gather)
    const char *name;  //!< diagnostic name ("bcast", "gatherv", ...)
    bool rooted;       //!< takes a root
    Payload payload;   //!< bytes each passing rank passes
    bool root_only;    //!< only the root passes a payload
    std::span<const AlgoEntry> algos; //!< in the order the tuner
                                      //!< tries them

    /** The entry of @p a, or null if this operation lacks it. */
    const AlgoEntry *find(machine::Algo a) const;

    /** "<name> has no algorithm '<a>' (it has: ...)". */
    std::string missing(machine::Algo a) const;

    /** The algorithm a call requesting @p requested runs on @p p
     *  ranks of @p cfg at length @p m: a vector row's Default or Auto
     *  is its first algorithm, anything else goes through
     *  tuning::resolveAlgo.  Comm::call and the replayer's pre-run
     *  check resolve through it. */
    machine::Algo resolve(const machine::MachineConfig &cfg, int p,
                          Bytes m, machine::Algo requested) const;
};

extern const CollOp kBarrier;
extern const CollOp kBcast;
extern const CollOp kGather;
extern const CollOp kScatter;
extern const CollOp kGatherv;
extern const CollOp kScatterv;
extern const CollOp kAllgather;
extern const CollOp kAlltoall;
extern const CollOp kReduce;
extern const CollOp kAllreduce;
extern const CollOp kReduceScatter;
extern const CollOp kScan;

/** The row of @p op; @p vector picks gatherv/scatterv (Gather and
 *  Scatter only). */
const CollOp &collOp(machine::Coll op, bool vector = false);

/** Raise ConfigError, naming @p row's algorithms, unless the row has
 *  @p a.  For the checks made before any machine is built. */
void requireAlgo(const CollOp &row, machine::Algo a);

/**
 * Check one call at one rank against @p row: root, length, counts and
 * payload size, then the algorithm; fatal() on a violation.  Returns
 * the algorithm to run.
 */
AlgoFn checkCall(const CollOp &row, const CollCtx &ctx,
                 machine::Algo algo, const CollArgs &args);

/**
 * One phase of a composed algorithm, under the caller's @p ctx: the
 * same check and entry charge as a call, then @p row's @p algo.
 * Callers pass a copy of their context with a zero entry cost (the
 * phases share the call's one entry); the entry is still awaited,
 * because even a zero charge waits for the node's CPU.
 */
sim::Task<msg::PayloadPtr> phase(const CollCtx &ctx, const CollOp &row,
                                 machine::Algo algo, CollArgs args);

} // namespace ccsim::mpi

#endif // CCSIM_MPI_COLLECTIVES_HH

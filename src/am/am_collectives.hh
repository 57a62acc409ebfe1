/**
 * @file
 * Collective operations built directly on active messages — the
 * experiment the paper's conclusions propose.
 *
 * AmWorld holds the shared handler state of one machine's ranks
 * (legal because the simulator is single-threaded; physically this
 * is "handler state in each node's memory").  Supported: barrier
 * (counter at rank 0 + binomial-tree release), broadcast
 * (handler-forwarded binomial tree), and reduce (binomial fan-in
 * with handler-side folding).  Each operation matches the MPI
 * semantics of the corresponding Comm collective, so the test suite
 * can check them against each other — the timing difference is the
 * experiment.
 *
 * Calls are lockstep per rank (like MPI collectives); repeated calls
 * are kept apart by per-operation round numbers.
 */

#ifndef CCSIM_AM_AM_COLLECTIVES_HH
#define CCSIM_AM_AM_COLLECTIVES_HH

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "am/am.hh"
#include "machine/machine.hh"
#include "mpi/reduce_op.hh"

namespace ccsim::am {

/** Era-plausible AM overheads for one of the paper's machines:
 *  roughly the cost left once MPI's matching/buffering layers are
 *  stripped (Culler et al.\ report a few microseconds). */
AmParams amParamsFor(const machine::MachineConfig &cfg);

/** AM endpoints + handler state for every rank of one machine. */
class AmWorld
{
  public:
    /**
     * Build over an existing machine (shares its simulator and
     * contention-modelled network).  @p combiner is used by reduce;
     * pass {} for size-only operation.
     */
    AmWorld(machine::Machine &mach, const AmParams &params,
            mpi::Combiner combiner = {});

    AmWorld(const AmWorld &) = delete;
    AmWorld &operator=(const AmWorld &) = delete;

    int size() const { return p_; }

    /** Counter barrier with tree release. */
    sim::Task<void> barrier(int rank);

    /** Binomial broadcast; returns the message at every rank. */
    sim::Task<msg::PayloadPtr> bcast(int rank, Bytes m, int root,
                                     msg::PayloadPtr data);

    /** Binomial fan-in reduce; root gets the fold, others null. */
    sim::Task<msg::PayloadPtr> reduce(int rank, Bytes m, int root,
                                      msg::PayloadPtr mine);

    /** Endpoint access (for tests and custom protocols). */
    AmEndpoint &endpoint(int rank) { return fabric_.node(rank); }

  private:
    struct BarrierRound
    {
        int arrived = 0;
        std::vector<std::unique_ptr<sim::Trigger>> release;
    };

    struct BcastRound
    {
        int root = 0;
        std::vector<msg::PayloadPtr> data;
        std::vector<std::unique_ptr<sim::Trigger>> delivered;
    };

    struct ReduceRound
    {
        int root = 0;
        Bytes m = 0;
        std::vector<int> received;            // per rank
        std::vector<bool> local_in;           // local contribution in
        std::vector<msg::PayloadPtr> partial; // per rank fold
        std::vector<bool> forwarded;          // sent to parent already
        std::unique_ptr<sim::Trigger> done;   // fires at root
    };

    BarrierRound &barrierRound(std::uint64_t round);
    BcastRound &bcastRound(std::uint64_t round);
    ReduceRound &reduceRound(std::uint64_t round);

    void releaseBarrier(std::uint64_t round, int rank, int mask);
    void forwardBcast(std::uint64_t round, int rank, int mask,
                      Bytes m, int root,
                      const msg::PayloadPtr &payload);
    void maybeForwardReduce(std::uint64_t round, int rank);

    /** acc = acc (+) in, null-tolerant (size-only mode is a no-op). */
    void foldInto(msg::PayloadPtr &acc, const msg::PayloadPtr &in);

    static int relRank(int rank, int root, int p);
    static int absRank(int rel, int root, int p);
    static int childCount(int rel, int p);

    machine::Machine &mach_;
    sim::Simulator &sim_;
    int p_;
    AmFabric fabric_;
    mpi::Combiner combiner_;

    int h_barrier_arrive_ = -1;
    int h_barrier_release_ = -1;
    int h_bcast_ = -1;
    int h_reduce_ = -1;

    std::map<std::uint64_t, BarrierRound> barrier_rounds_;
    std::map<std::uint64_t, BcastRound> bcast_rounds_;
    std::map<std::uint64_t, ReduceRound> reduce_rounds_;

    std::vector<std::uint64_t> next_barrier_;
    std::vector<std::uint64_t> next_bcast_;
    std::vector<std::uint64_t> next_reduce_;
};

} // namespace ccsim::am

#endif // CCSIM_AM_AM_COLLECTIVES_HH

#include "am/am_collectives.hh"

#include "mpi/coll_ctx.hh" // ceilLog2
#include "util/logging.hh"

namespace ccsim::am {

namespace {

/** Lowest set bit of @p rel > 0: the mask a binomial-tree child at
 *  root-relative rank @p rel forwards below. */
int
lowestBit(int rel)
{
    return rel & -rel;
}

} // namespace

AmParams
amParamsFor(const machine::MachineConfig &cfg)
{
    // Strip the matching/buffering layers: a third of the MPI
    // per-message software cost remains (handler dispatch, flow
    // control), with a floor of 1 us — in line with the few-
    // microsecond overheads reported for active messages.
    AmParams p;
    p.send_overhead =
        std::max<Time>(microseconds(1), cfg.transport.send_overhead / 3);
    p.handler_overhead =
        std::max<Time>(microseconds(1), cfg.transport.recv_overhead / 3);
    p.copy_bandwidth_mbs = cfg.transport.copy_bandwidth_mbs;
    return p;
}

AmWorld::AmWorld(machine::Machine &mach, const AmParams &params,
                 mpi::Combiner combiner)
    : mach_(mach), sim_(mach.sim()), p_(mach.size()),
      fabric_(mach.sim(), mach.network(), mach.size(), params),
      combiner_(std::move(combiner))
{
    next_barrier_.assign(static_cast<size_t>(p_), 0);
    next_bcast_.assign(static_cast<size_t>(p_), 0);
    next_reduce_.assign(static_cast<size_t>(p_), 0);

    h_barrier_arrive_ = fabric_.registerHandler(
        [this](const AmArrival &a) {
            BarrierRound &r = barrierRound(a.arg);
            if (++r.arrived == p_)
                releaseBarrier(a.arg, 0, 1 << mpi::ceilLog2(p_));
        });

    // A handler's argument is the round number alone.  The root is
    // in the round's state (every rank passes the same one), and a
    // tree child forwards below the lowest set bit of its rank
    // relative to the root.
    h_barrier_release_ = fabric_.registerHandler(
        [this](const AmArrival &a) {
            releaseBarrier(a.arg, a.dst, lowestBit(a.dst));
        });

    h_bcast_ = fabric_.registerHandler([this](const AmArrival &a) {
        BcastRound &r = bcastRound(a.arg);
        r.data[static_cast<size_t>(a.dst)] = a.payload;
        r.delivered[static_cast<size_t>(a.dst)]->fire();
        forwardBcast(a.arg, a.dst,
                     lowestBit(relRank(a.dst, r.root, p_)), a.bytes,
                     r.root, a.payload);
    });

    h_reduce_ = fabric_.registerHandler([this](const AmArrival &a) {
        ReduceRound &r = reduceRound(a.arg);
        r.m = a.bytes;
        ++r.received[static_cast<size_t>(a.dst)];
        foldInto(r.partial[static_cast<size_t>(a.dst)], a.payload);
        maybeForwardReduce(a.arg, a.dst);
    });
}

void
AmWorld::foldInto(msg::PayloadPtr &acc, const msg::PayloadPtr &in)
{
    if (!combiner_)
        return; // size-only mode
    acc = acc ? combiner_(acc, in) : in;
}

int
AmWorld::relRank(int rank, int root, int p)
{
    return (rank - root % p + p) % p;
}

int
AmWorld::absRank(int rel, int root, int p)
{
    return (rel + root) % p;
}

int
AmWorld::childCount(int rel, int p)
{
    int n = 0;
    for (int mask = 1; (rel & mask) == 0 && rel + mask < p; mask <<= 1)
        ++n;
    return n;
}

AmWorld::BarrierRound &
AmWorld::barrierRound(std::uint64_t round)
{
    BarrierRound &r = barrier_rounds_[round];
    if (r.release.empty()) {
        r.release.reserve(static_cast<size_t>(p_));
        for (int i = 0; i < p_; ++i)
            r.release.push_back(std::make_unique<sim::Trigger>(sim_));
    }
    return r;
}

AmWorld::BcastRound &
AmWorld::bcastRound(std::uint64_t round)
{
    BcastRound &r = bcast_rounds_[round];
    if (r.delivered.empty()) {
        r.data.resize(static_cast<size_t>(p_));
        r.delivered.reserve(static_cast<size_t>(p_));
        for (int i = 0; i < p_; ++i)
            r.delivered.push_back(
                std::make_unique<sim::Trigger>(sim_));
    }
    return r;
}

AmWorld::ReduceRound &
AmWorld::reduceRound(std::uint64_t round)
{
    ReduceRound &r = reduce_rounds_[round];
    if (r.received.empty()) {
        r.received.assign(static_cast<size_t>(p_), 0);
        r.local_in.assign(static_cast<size_t>(p_), false);
        r.partial.resize(static_cast<size_t>(p_));
        r.forwarded.assign(static_cast<size_t>(p_), false);
        r.done = std::make_unique<sim::Trigger>(sim_);
    }
    return r;
}

void
AmWorld::releaseBarrier(std::uint64_t round, int rank, int mask)
{
    BarrierRound &r = barrierRound(round);
    r.release[static_cast<size_t>(rank)]->fire();
    for (int m = mask >> 1; m > 0; m >>= 1) {
        if (rank + m < p_)
            fabric_.node(rank).post(rank + m, h_barrier_release_, round);
    }
}

sim::Task<void>
AmWorld::barrier(int rank)
{
    std::uint64_t round = next_barrier_[static_cast<size_t>(rank)]++;
    BarrierRound &r = barrierRound(round);
    co_await fabric_.node(rank).send(0, h_barrier_arrive_, round);
    co_await r.release[static_cast<size_t>(rank)]->wait();
}

void
AmWorld::forwardBcast(std::uint64_t round, int rank, int mask, Bytes m,
                      int root, const msg::PayloadPtr &payload)
{
    int rel = relRank(rank, root, p_);
    for (int child_mask = mask >> 1; child_mask > 0; child_mask >>= 1) {
        int child_rel = rel + child_mask;
        if (child_rel < p_)
            fabric_.node(rank).post(absRank(child_rel, root, p_),
                                    h_bcast_, round, m, payload);
    }
}

sim::Task<msg::PayloadPtr>
AmWorld::bcast(int rank, Bytes m, int root, msg::PayloadPtr data)
{
    if (root < 0 || root >= p_)
        fatal("AmWorld::bcast: root %d outside world of %d", root, p_);
    std::uint64_t round = next_bcast_[static_cast<size_t>(rank)]++;
    BcastRound &r = bcastRound(round);
    r.root = root;
    if (rank == root) {
        r.data[static_cast<size_t>(rank)] = std::move(data);
        r.delivered[static_cast<size_t>(rank)]->fire();
        forwardBcast(round, rank, 1 << mpi::ceilLog2(p_), m, root,
                     r.data[static_cast<size_t>(rank)]);
    }
    co_await r.delivered[static_cast<size_t>(rank)]->wait();
    co_return r.data[static_cast<size_t>(rank)];
}

void
AmWorld::maybeForwardReduce(std::uint64_t round, int rank)
{
    ReduceRound &r = reduceRound(round);
    std::size_t i = static_cast<size_t>(rank);
    int rel = relRank(rank, r.root, p_);
    if (!r.local_in[i] || r.forwarded[i] ||
        r.received[i] < childCount(rel, p_))
        return;
    r.forwarded[i] = true;
    if (rel == 0) {
        r.done->fire();
        return;
    }
    int parent_rel = rel & (rel - 1);
    fabric_.node(rank).post(absRank(parent_rel, r.root, p_), h_reduce_,
                            round, r.m, r.partial[i]);
}

sim::Task<msg::PayloadPtr>
AmWorld::reduce(int rank, Bytes m, int root, msg::PayloadPtr mine)
{
    if (root < 0 || root >= p_)
        fatal("AmWorld::reduce: root %d outside world of %d", root,
              p_);
    std::uint64_t round = next_reduce_[static_cast<size_t>(rank)]++;
    ReduceRound &r = reduceRound(round);
    r.root = root;
    r.m = m;

    std::size_t i = static_cast<size_t>(rank);
    r.local_in[i] = true;
    foldInto(r.partial[i], mine);
    maybeForwardReduce(round, rank);

    if (relRank(rank, root, p_) == 0) {
        co_await r.done->wait();
        co_return r.partial[i];
    }
    co_return nullptr;
}

} // namespace ccsim::am

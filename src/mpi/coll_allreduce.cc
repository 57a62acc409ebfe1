/**
 * @file
 * Allreduce algorithms: reduce-then-broadcast composition,
 * MPICH-style recursive doubling (with the non-power-of-two fold-in
 * pre/post phases), and Rabenseifner's reduce-scatter + allgather.
 */

#include "mpi/collectives.hh"

namespace ccsim::mpi {

namespace {

sim::Task<msg::PayloadPtr>
allreduceReduceBcast(const CollCtx &ctx, CollArgs a)
{
    CollCtx sub = ctx;
    sub.costs.entry = 0; // phases share one collective entry
    msg::PayloadPtr total =
        co_await phase(sub, kReduce, machine::Algo::Binomial,
                       CollArgs(a.m, 0, std::move(a.data)));
    co_return co_await phase(sub, kBcast, machine::Algo::Binomial,
                             CollArgs(a.m, 0, std::move(total)));
}

sim::Task<msg::PayloadPtr>
allreduceRecDoubling(const CollCtx &ctx, CollArgs a)
{
    int p = ctx.size;
    int rank = ctx.rank;
    int pof2 = 1 << floorLog2(p);
    int rem = p - pof2;
    Bytes m = a.m;

    msg::PayloadPtr acc = std::move(a.data);

    // Pre-phase: fold the surplus ranks into their even partners so
    // a power-of-two subset runs the doubling rounds.
    int newrank;
    if (rank < 2 * rem) {
        if (rank % 2 == 0) {
            co_await ctx.stage(m);
            co_await ctx.send(rank + 1, m, acc);
            newrank = -1;
        } else {
            co_await ctx.stage(m);
            msg::Message got = co_await ctx.recv(rank - 1);
            co_await ctx.arith(m);
            acc = ctx.fold(got.payload, acc);
            newrank = rank / 2;
        }
    } else {
        newrank = rank - rem;
    }

    if (newrank != -1) {
        for (int mask = 1; mask < pof2; mask <<= 1) {
            int newpartner = newrank ^ mask;
            int partner = newpartner < rem ? newpartner * 2 + 1
                                           : newpartner + rem;
            co_await ctx.stage(2 * m);
            msg::Message got =
                co_await ctx.sendrecv(partner, m, partner, acc);
            co_await ctx.arith(m);
            if (partner < rank)
                acc = ctx.fold(got.payload, acc);
            else
                acc = ctx.fold(acc, got.payload);
        }
    }

    // Post-phase: hand the result back to the folded-in ranks.
    if (rank < 2 * rem) {
        if (rank % 2 == 1) {
            co_await ctx.stage(m);
            co_await ctx.send(rank - 1, m, acc);
        } else {
            msg::Message got = co_await ctx.recv(rank + 1);
            acc = got.payload;
        }
    }
    co_return acc;
}

/**
 * Rabenseifner: reduce-scatter (recursive halving) the vector in p
 * blocks, then allgather (recursive doubling) the folded blocks.
 * Bandwidth-optimal for long vectors: ~2 m (p-1)/p bytes per node
 * instead of the tree's m log2 p.
 */
sim::Task<msg::PayloadPtr>
allreduceRabenseifner(const CollCtx &ctx, CollArgs a)
{
    int p = ctx.size;
    // Chunks must stay element-aligned for the fold; round up to the
    // largest elementary size (8 bytes).
    Bytes chunk = ((a.m + p - 1) / p + 7) / 8 * 8;

    // Pad to p equal blocks; the padded tail is sliced away at the
    // end and never contaminates real elements (folds are
    // elementwise).
    msg::PayloadPtr padded;
    if (a.data) {
        auto buf = std::make_shared<std::vector<std::byte>>(*a.data);
        buf->resize(static_cast<size_t>(chunk * p));
        padded = buf;
    }

    CollCtx sub = ctx;
    sub.costs.entry = 0;
    msg::PayloadPtr my_block =
        co_await phase(sub, kReduceScatter, machine::Algo::RecursiveHalving,
                       CollArgs(chunk, -1, std::move(padded)));
    msg::PayloadPtr all =
        co_await phase(sub, kAllgather, machine::Algo::RecursiveDoubling,
                       CollArgs(chunk, -1, std::move(my_block)));
    co_return slicePayload(all, 0, a.m);
}

constexpr AlgoEntry kAlgos[] = {
    {machine::Algo::ReduceBcast, allreduceReduceBcast},
    {machine::Algo::RecursiveDoubling, allreduceRecDoubling},
    {machine::Algo::Rabenseifner, allreduceRabenseifner},
};

} // namespace

constinit const CollOp kAllreduce{machine::Coll::Allreduce, "allreduce",
                                  false, Payload::M, false, kAlgos};

} // namespace ccsim::mpi

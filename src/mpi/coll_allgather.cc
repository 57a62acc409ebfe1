/**
 * @file
 * Allgather algorithms: ring shifts (p-1 steps, bandwidth optimal)
 * and recursive doubling (log2 p steps; ring on other sizes).
 */

#include "mpi/collectives.hh"

namespace ccsim::mpi {

namespace {

sim::Task<msg::PayloadPtr>
allgatherRing(const CollCtx &ctx, CollArgs a)
{
    int p = ctx.size;
    int right = ctx.relative(ctx.rank, 1);
    int left = ctx.relative(ctx.rank, -1);

    std::vector<msg::PayloadPtr> blocks(static_cast<size_t>(p));
    blocks[static_cast<size_t>(ctx.rank)] = a.data;

    msg::PayloadPtr cur = std::move(a.data);
    int cur_idx = ctx.rank;
    for (int s = 0; s < p - 1; ++s) {
        co_await ctx.stage(2 * a.m);
        msg::Message got = co_await ctx.sendrecv(right, a.m, left, cur);
        cur = got.payload;
        cur_idx = ctx.relative(cur_idx, -1);
        blocks[static_cast<size_t>(cur_idx)] = cur;
    }
    co_return concatPayloads(blocks);
}

/** Doubling exchange on a power-of-two communicator; the ring on any
 *  other size. */
sim::Task<msg::PayloadPtr>
allgatherRecDoubling(const CollCtx &ctx, CollArgs a)
{
    int p = ctx.size;
    if (!isPow2(p))
        co_return co_await allgatherRing(ctx, std::move(a));
    msg::PayloadPtr acc = std::move(a.data); // contiguous group block
    Bytes cnt = 1;
    for (int mask = 1; mask < p; mask <<= 1) {
        int partner = ctx.rank ^ mask;
        co_await ctx.stage(2 * a.m * cnt);
        msg::Message got =
            co_await ctx.sendrecv(partner, a.m * cnt, partner, acc);
        if (ctx.rank & mask)
            acc = concatPayload(got.payload, acc);
        else
            acc = concatPayload(acc, got.payload);
        cnt <<= 1;
    }
    co_return acc;
}

constexpr AlgoEntry kAlgos[] = {
    {machine::Algo::Ring, allgatherRing},
    {machine::Algo::RecursiveDoubling, allgatherRecDoubling},
};

} // namespace

constinit const CollOp kAllgather{machine::Coll::Allgather, "allgather",
                                  false, Payload::M, false, kAlgos};

} // namespace ccsim::mpi

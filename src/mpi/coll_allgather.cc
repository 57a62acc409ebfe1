/**
 * @file
 * Allgather algorithms: ring shifts (p-1 steps, bandwidth optimal)
 * and recursive doubling (log2 p steps, power-of-two sizes).
 */

#include "mpi/collectives.hh"
#include "util/logging.hh"

namespace ccsim::mpi {

namespace {

sim::Task<msg::PayloadPtr>
allgatherRing(const CollCtx &ctx, Bytes m, msg::PayloadPtr mine)
{
    int p = ctx.size;
    int right = ctx.relative(ctx.rank, 1);
    int left = ctx.relative(ctx.rank, -1);

    std::vector<msg::PayloadPtr> blocks(static_cast<size_t>(p));
    blocks[static_cast<size_t>(ctx.rank)] = mine;

    msg::PayloadPtr cur = std::move(mine);
    int cur_idx = ctx.rank;
    for (int s = 0; s < p - 1; ++s) {
        co_await ctx.stage(2 * m);
        msg::Message got = co_await ctx.sendrecv(right, m, left, cur);
        cur = got.payload;
        cur_idx = ctx.relative(cur_idx, -1);
        blocks[static_cast<size_t>(cur_idx)] = cur;
    }
    co_return concatPayloads(blocks);
}

/** Doubling exchange; requires a power-of-two communicator. */
sim::Task<msg::PayloadPtr>
allgatherRecDoubling(const CollCtx &ctx, Bytes m, msg::PayloadPtr mine)
{
    int p = ctx.size;
    msg::PayloadPtr acc = std::move(mine); // contiguous group block
    Bytes cnt = 1;
    for (int mask = 1; mask < p; mask <<= 1) {
        int partner = ctx.rank ^ mask;
        co_await ctx.stage(2 * m * cnt);
        msg::Message got =
            co_await ctx.sendrecv(partner, m * cnt, partner, acc);
        if (ctx.rank & mask)
            acc = concatPayload(got.payload, acc);
        else
            acc = concatPayload(acc, got.payload);
        cnt <<= 1;
    }
    co_return acc;
}

} // namespace

sim::Task<msg::PayloadPtr>
allgatherImpl(const CollCtx &ctx, machine::Algo algo, Bytes m,
              msg::PayloadPtr mine)
{
    if (m < 0)
        fatal("allgather: negative message length");
    if (mine && static_cast<Bytes>(mine->size()) != m)
        fatal("allgather: contribution is %zu bytes, expected %lld",
              mine->size(), static_cast<long long>(m));

    co_await ctx.entry();
    if (ctx.size == 1)
        co_return mine;

    if (algo == machine::Algo::RecursiveDoubling && !isPow2(ctx.size))
        algo = machine::Algo::Ring;

    switch (algo) {
      case machine::Algo::Ring:
        co_return co_await allgatherRing(ctx, m, std::move(mine));
      case machine::Algo::RecursiveDoubling:
        co_return co_await allgatherRecDoubling(ctx, m, std::move(mine));
      default:
        fatal("allgather: unsupported algorithm '%s'",
              machine::algoName(algo).c_str());
    }
}

} // namespace ccsim::mpi

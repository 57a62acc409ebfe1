/**
 * @file
 * Scatter algorithms: linear fan-out from the root (era default) and
 * binomial recursive halving; scatterv's linear fan-out.
 */

#include <algorithm>

#include "mpi/collectives.hh"

namespace ccsim::mpi {

namespace {

sim::Task<msg::PayloadPtr>
scatterLinear(const CollCtx &ctx, CollArgs a)
{
    int p = ctx.size;
    Bytes m = a.m;
    if (ctx.rank == a.root) {
        for (int i = 0; i < p; ++i) {
            if (i == a.root)
                continue;
            co_await ctx.stage(m);
            co_await ctx.send(i, m,
                              slicePayload(a.data,
                                           m * static_cast<Bytes>(i), m));
        }
        co_return slicePayload(a.data, m * static_cast<Bytes>(a.root),
                               m);
    }
    msg::Message got = co_await ctx.recv(a.root);
    co_return got.payload;
}

/**
 * Recursive halving over root-relative ranks (mirror of the binomial
 * gather): each node receives the block for its whole subtree, then
 * peels halves off to its children.
 */
sim::Task<msg::PayloadPtr>
scatterBinomial(const CollCtx &ctx, CollArgs a)
{
    int p = ctx.size;
    Bytes m = a.m;
    int r = (ctx.rank - a.root % p + p) % p;
    auto abs = [&](int rel) { return (rel + a.root) % p; };

    msg::PayloadPtr buf; // covers rel [r, r + cnt)
    int top_mask;
    if (r == 0) {
        buf = rotateBlocksToRelative(a.data, p, m, a.root);
        top_mask = 1 << ceilLog2(p);
    } else {
        int lsb = r & -r;
        co_await ctx.stage(m * static_cast<Bytes>(
            std::min(lsb, p - r)));
        msg::Message got = co_await ctx.recv(abs(r - lsb));
        buf = got.payload;
        top_mask = lsb;
    }

    for (int mask = top_mask >> 1; mask > 0; mask >>= 1) {
        int child = r + mask;
        if (child < p) {
            int blk = std::min(mask, p - child);
            co_await ctx.stage(m * static_cast<Bytes>(blk));
            co_await ctx.send(abs(child), m * static_cast<Bytes>(blk),
                              slicePayload(buf,
                                           m * static_cast<Bytes>(mask),
                                           m * static_cast<Bytes>(blk)));
        }
    }
    co_return slicePayload(buf, 0, m);
}

/** scatterv: the root sends rank i its counts[i]-byte block.  Linear
 *  only, like gatherv. */
sim::Task<msg::PayloadPtr>
scattervLinear(const CollCtx &ctx, CollArgs a)
{
    if (ctx.rank != a.root) {
        msg::Message got = co_await ctx.recv(a.root);
        co_return got.payload;
    }
    Bytes off = 0;
    msg::PayloadPtr my_block;
    for (int i = 0; i < ctx.size; ++i) {
        Bytes c = (*a.counts)[static_cast<size_t>(i)];
        if (i == a.root) {
            my_block = slicePayload(a.data, off, c);
        } else {
            co_await ctx.stage(c);
            co_await ctx.send(i, c, slicePayload(a.data, off, c));
        }
        off += c;
    }
    co_return my_block;
}

constexpr AlgoEntry kAlgos[] = {
    {machine::Algo::Linear, scatterLinear},
    {machine::Algo::Binomial, scatterBinomial},
};

constexpr AlgoEntry kVectorAlgos[] = {
    {machine::Algo::Linear, scattervLinear},
};

} // namespace

constinit const CollOp kScatter{machine::Coll::Scatter, "scatter", true,
                                Payload::Blocks, true, kAlgos};
constinit const CollOp kScatterv{machine::Coll::Scatter, "scatterv",
                                 true, Payload::Counts, true,
                                 kVectorAlgos};

} // namespace ccsim::mpi

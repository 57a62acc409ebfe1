/**
 * @file
 * Reduce-scatter algorithms: linear (reduce + scatter composition),
 * recursive halving (power-of-two sizes, pairwise on others; the
 * building block of Rabenseifner's allreduce), and pairwise exchange
 * (any size).
 *
 * Semantics: every rank contributes p blocks of m bytes; block i of
 * the elementwise fold over all contributions ends up at rank i.
 */

#include "mpi/collectives.hh"

namespace ccsim::mpi {

namespace {

/** Block i of a p-block contribution (null-safe). */
msg::PayloadPtr
blockOf(const msg::PayloadPtr &all, int i, Bytes m)
{
    return slicePayload(all, m * static_cast<Bytes>(i), m);
}

sim::Task<msg::PayloadPtr>
reduceScatterLinear(const CollCtx &ctx, CollArgs a)
{
    // Fold the whole p*m vector at rank 0, then scatter the blocks.
    CollCtx sub = ctx;
    sub.costs.entry = 0;
    msg::PayloadPtr total = co_await phase(
        sub, kReduce, machine::Algo::Binomial,
        CollArgs(a.m * static_cast<Bytes>(ctx.size), 0,
                 std::move(a.data)));
    co_return co_await phase(sub, kScatter, machine::Algo::Binomial,
                             CollArgs(a.m, 0, std::move(total)));
}

/** Any-p pairwise exchange: p-1 rounds of one m-byte block each. */
sim::Task<msg::PayloadPtr>
reduceScatterPairwise(const CollCtx &ctx, CollArgs a)
{
    int p = ctx.size;
    msg::PayloadPtr acc = blockOf(a.data, ctx.rank, a.m);
    for (int i = 1; i < p; ++i) {
        int to = ctx.relative(ctx.rank, i);
        int from = ctx.relative(ctx.rank, -i);
        co_await ctx.stage(2 * a.m);
        msg::Message got = co_await ctx.sendrecv(
            to, a.m, from, blockOf(a.data, to, a.m));
        co_await ctx.arith(a.m);
        acc = ctx.fold(acc, got.payload);
    }
    co_return acc;
}

/** Power-of-two halving exchange; O(log p) rounds, each moving and
 *  folding half of the remaining range.  Pairwise on other sizes. */
sim::Task<msg::PayloadPtr>
reduceScatterHalving(const CollCtx &ctx, CollArgs a)
{
    int p = ctx.size;
    if (!isPow2(p))
        co_return co_await reduceScatterPairwise(ctx, std::move(a));
    Bytes m = a.m;
    int lo = 0;
    int hi = p; // my active block range [lo, hi)
    msg::PayloadPtr acc = std::move(a.data);

    for (int half = p / 2; half >= 1; half >>= 1) {
        int partner = ctx.rank ^ half;
        int mid = lo + (hi - lo) / 2;
        bool keep_low = ctx.rank < mid;

        Bytes keep_off =
            m * static_cast<Bytes>((keep_low ? lo : mid) - lo);
        Bytes send_off =
            m * static_cast<Bytes>((keep_low ? mid : lo) - lo);
        Bytes half_bytes = m * static_cast<Bytes>(hi - lo) / 2;

        co_await ctx.stage(2 * half_bytes);
        msg::Message got = co_await ctx.sendrecv(
            partner, half_bytes, partner,
            slicePayload(acc, send_off, half_bytes));
        co_await ctx.arith(half_bytes);
        acc = ctx.fold(slicePayload(acc, keep_off, half_bytes),
                       got.payload);

        if (keep_low)
            hi = mid;
        else
            lo = mid;
    }
    co_return acc;
}

constexpr AlgoEntry kAlgos[] = {
    {machine::Algo::Linear, reduceScatterLinear},
    {machine::Algo::RecursiveHalving, reduceScatterHalving},
    {machine::Algo::Pairwise, reduceScatterPairwise},
};

} // namespace

constinit const CollOp kReduceScatter{machine::Coll::ReduceScatter,
                                      "reduce_scatter", false,
                                      Payload::Blocks, false, kAlgos};

} // namespace ccsim::mpi

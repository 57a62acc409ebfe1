/**
 * @file
 * Reduce algorithms: linear fan-in and binomial tree (era default).
 * All supported operators are associative and commutative, so
 * arrival-order folding is sound.
 */

#include "mpi/collectives.hh"

namespace ccsim::mpi {

namespace {

sim::Task<msg::PayloadPtr>
reduceLinear(const CollCtx &ctx, CollArgs a)
{
    int p = ctx.size;
    if (ctx.rank != a.root) {
        co_await ctx.stage(a.m);
        co_await ctx.send(a.root, a.m, std::move(a.data));
        co_return nullptr;
    }
    for (int i = 1; i < p; ++i) {
        co_await ctx.stage(a.m);
        msg::Message got = co_await ctx.recv(msg::kAnySource);
        co_await ctx.arith(a.m);
        a.data = ctx.fold(a.data, got.payload);
    }
    co_return a.data;
}

sim::Task<msg::PayloadPtr>
reduceBinomial(const CollCtx &ctx, CollArgs a)
{
    int p = ctx.size;
    int r = (ctx.rank - a.root % p + p) % p;
    auto abs = [&](int rel) { return (rel + a.root) % p; };

    int mask = 1;
    while (mask < p) {
        if ((r & mask) == 0) {
            int src = r | mask;
            if (src < p) {
                co_await ctx.stage(a.m);
                msg::Message got = co_await ctx.recv(abs(src));
                co_await ctx.arith(a.m);
                a.data = ctx.fold(a.data, got.payload);
            }
        } else {
            co_await ctx.stage(a.m);
            co_await ctx.send(abs(r - mask), a.m, a.data);
            co_return nullptr;
        }
        mask <<= 1;
    }
    co_return a.data;
}

constexpr AlgoEntry kAlgos[] = {
    {machine::Algo::Linear, reduceLinear},
    {machine::Algo::Binomial, reduceBinomial},
};

} // namespace

constinit const CollOp kReduce{machine::Coll::Reduce, "reduce", true,
                               Payload::M, false, kAlgos};

} // namespace ccsim::mpi

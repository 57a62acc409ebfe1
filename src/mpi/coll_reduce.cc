/**
 * @file
 * Reduce algorithms: linear fan-in and binomial tree (era default).
 * All supported operators are associative and commutative, so
 * arrival-order folding is sound.
 */

#include "mpi/collectives.hh"
#include "util/logging.hh"

namespace ccsim::mpi {

namespace {

sim::Task<msg::PayloadPtr>
reduceLinear(const CollCtx &ctx, Bytes m, int root, msg::PayloadPtr mine)
{
    int p = ctx.size;
    if (ctx.rank != root) {
        co_await ctx.stage(m);
        co_await ctx.send(root, m, std::move(mine));
        co_return nullptr;
    }
    msg::PayloadPtr acc = std::move(mine);
    for (int i = 1; i < p; ++i) {
        co_await ctx.stage(m);
        msg::Message got = co_await ctx.recv(msg::kAnySource);
        co_await ctx.arith(m);
        acc = ctx.fold(acc, got.payload);
    }
    co_return acc;
}

sim::Task<msg::PayloadPtr>
reduceBinomial(const CollCtx &ctx, Bytes m, int root, msg::PayloadPtr mine)
{
    int p = ctx.size;
    int r = (ctx.rank - root % p + p) % p;
    auto abs = [&](int rel) { return (rel + root) % p; };

    msg::PayloadPtr acc = std::move(mine);
    int mask = 1;
    while (mask < p) {
        if ((r & mask) == 0) {
            int src = r | mask;
            if (src < p) {
                co_await ctx.stage(m);
                msg::Message got = co_await ctx.recv(abs(src));
                co_await ctx.arith(m);
                acc = ctx.fold(acc, got.payload);
            }
        } else {
            co_await ctx.stage(m);
            co_await ctx.send(abs(r - mask), m, acc);
            co_return nullptr;
        }
        mask <<= 1;
    }
    co_return acc;
}

} // namespace

sim::Task<msg::PayloadPtr>
reduceImpl(const CollCtx &ctx, machine::Algo algo, Bytes m, int root,
           msg::PayloadPtr mine)
{
    if (root < 0 || root >= ctx.size)
        fatal("reduce: root %d outside communicator of %d", root,
              ctx.size);
    if (m < 0)
        fatal("reduce: negative message length");
    if (mine && static_cast<Bytes>(mine->size()) != m)
        fatal("reduce: contribution is %zu bytes, expected %lld",
              mine->size(), static_cast<long long>(m));

    co_await ctx.entry();
    if (ctx.size == 1)
        co_return mine;

    switch (algo) {
      case machine::Algo::Linear:
        co_return co_await reduceLinear(ctx, m, root, std::move(mine));
      case machine::Algo::Binomial:
        co_return co_await reduceBinomial(ctx, m, root, std::move(mine));
      default:
        fatal("reduce: unsupported algorithm '%s'",
              machine::algoName(algo).c_str());
    }
}

} // namespace ccsim::mpi

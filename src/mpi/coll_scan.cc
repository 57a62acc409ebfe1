/**
 * @file
 * Inclusive-scan (prefix) algorithms: linear pipeline and
 * recursive doubling (Hillis-Steele over ranks; era default).
 */

#include "mpi/collectives.hh"
#include "util/logging.hh"

namespace ccsim::mpi {

namespace {

sim::Task<msg::PayloadPtr>
scanLinear(const CollCtx &ctx, Bytes m, msg::PayloadPtr mine)
{
    msg::PayloadPtr acc = std::move(mine);
    if (ctx.rank > 0) {
        co_await ctx.stage(m);
        msg::Message got = co_await ctx.recv(ctx.rank - 1);
        co_await ctx.arith(m);
        acc = ctx.fold(got.payload, acc); // earlier ranks on the left
    }
    if (ctx.rank < ctx.size - 1) {
        co_await ctx.stage(m);
        co_await ctx.send(ctx.rank + 1, m, acc);
    }
    co_return acc;
}

sim::Task<msg::PayloadPtr>
scanRecDoubling(const CollCtx &ctx, Bytes m, msg::PayloadPtr mine)
{
    // scan: fold over [segment start, rank]; total: fold over my
    // whole current segment [rank - k + 1, rank] (what gets sent).
    msg::PayloadPtr scan = mine;
    msg::PayloadPtr total = std::move(mine);

    for (int k = 1; k < ctx.size; k <<= 1) {
        int up = ctx.rank + k;
        int down = ctx.rank - k;
        Bytes handled = (up < ctx.size ? m : 0) + (down >= 0 ? m : 0);
        co_await ctx.stage(handled);
        msg::Request sreq;
        bool sent = false;
        if (up < ctx.size) {
            sreq = ctx.isend(up, m, total);
            sent = true;
        }
        if (down >= 0) {
            msg::Message got = co_await ctx.recv(down);
            co_await ctx.arith(m);
            scan = ctx.fold(got.payload, scan);
            total = ctx.fold(got.payload, total);
        }
        if (sent)
            co_await ctx.wait(std::move(sreq));
    }
    co_return scan;
}

} // namespace

sim::Task<msg::PayloadPtr>
scanImpl(const CollCtx &ctx, machine::Algo algo, Bytes m,
         msg::PayloadPtr mine)
{
    if (m < 0)
        fatal("scan: negative message length");
    if (mine && static_cast<Bytes>(mine->size()) != m)
        fatal("scan: contribution is %zu bytes, expected %lld",
              mine->size(), static_cast<long long>(m));

    co_await ctx.entry();
    if (ctx.size == 1)
        co_return mine;

    switch (algo) {
      case machine::Algo::Linear:
        co_return co_await scanLinear(ctx, m, std::move(mine));
      case machine::Algo::RecursiveDoubling:
        co_return co_await scanRecDoubling(ctx, m, std::move(mine));
      default:
        fatal("scan: unsupported algorithm '%s'",
              machine::algoName(algo).c_str());
    }
}

} // namespace ccsim::mpi

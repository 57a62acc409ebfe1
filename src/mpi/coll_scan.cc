/**
 * @file
 * Inclusive-scan (prefix) algorithms: linear pipeline and
 * recursive doubling (Hillis-Steele over ranks; era default).
 */

#include "mpi/collectives.hh"

namespace ccsim::mpi {

namespace {

sim::Task<msg::PayloadPtr>
scanLinear(const CollCtx &ctx, CollArgs a)
{
    if (ctx.rank > 0) {
        co_await ctx.stage(a.m);
        msg::Message got = co_await ctx.recv(ctx.rank - 1);
        co_await ctx.arith(a.m);
        a.data = ctx.fold(got.payload, a.data); // earlier ranks left
    }
    if (ctx.rank < ctx.size - 1) {
        co_await ctx.stage(a.m);
        co_await ctx.send(ctx.rank + 1, a.m, a.data);
    }
    co_return a.data;
}

sim::Task<msg::PayloadPtr>
scanRecDoubling(const CollCtx &ctx, CollArgs a)
{
    // scan: fold over [segment start, rank]; total: fold over my
    // whole current segment [rank - k + 1, rank] (what gets sent).
    Bytes m = a.m;
    msg::PayloadPtr scan = a.data;
    msg::PayloadPtr total = std::move(a.data);

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

constexpr AlgoEntry kAlgos[] = {
    {machine::Algo::Linear, scanLinear},
    {machine::Algo::RecursiveDoubling, scanRecDoubling},
};

} // namespace

constinit const CollOp kScan{machine::Coll::Scan, "scan", false,
                             Payload::M, false, kAlgos};

} // namespace ccsim::mpi

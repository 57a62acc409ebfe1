/**
 * @file
 * Barrier algorithms: linear (fan-in + release), binomial tree,
 * dissemination, and the T3D hardware barrier tree.
 */

#include "machine/machine.hh"
#include "mpi/collectives.hh"
#include "util/logging.hh"

namespace ccsim::mpi {

namespace {

/** Everyone reports to rank 0, which then releases everyone. */
sim::Task<msg::PayloadPtr>
barrierLinear(const CollCtx &ctx, CollArgs)
{
    int p = ctx.size;
    if (ctx.rank == 0) {
        for (int i = 1; i < p; ++i) {
            co_await ctx.stage();
            co_await ctx.recv(msg::kAnySource);
        }
        for (int i = 1; i < p; ++i) {
            co_await ctx.stage();
            co_await ctx.send(i, 0);
        }
    } else {
        co_await ctx.stage();
        co_await ctx.send(0, 0);
        co_await ctx.recv(0);
    }
    co_return nullptr;
}

/** Binomial fan-in to rank 0, binomial fan-out release. */
sim::Task<msg::PayloadPtr>
barrierTree(const CollCtx &ctx, CollArgs)
{
    int p = ctx.size;
    int r = ctx.rank;

    int mask = 1;
    while (mask < p) {
        if (r & mask) {
            co_await ctx.stage();
            co_await ctx.send(r - mask, 0);
            break;
        }
        int src = r | mask;
        if (src < p) {
            co_await ctx.stage();
            co_await ctx.recv(src);
        }
        mask <<= 1;
    }

    // Release phase: binomial broadcast of a zero-byte token.
    mask = 1;
    while (mask < p) {
        if (r & mask) {
            co_await ctx.recv(r - mask);
            break;
        }
        mask <<= 1;
    }
    mask >>= 1;
    while (mask > 0) {
        if (r + mask < p) {
            co_await ctx.stage();
            co_await ctx.send(r + mask, 0);
        }
        mask >>= 1;
    }
    co_return nullptr;
}

/**
 * Dissemination: ceil(log2 p) rounds; in round k every rank signals
 * (rank + 2^k) and waits for (rank - 2^k).  What MPICH used.
 */
sim::Task<msg::PayloadPtr>
barrierDissemination(const CollCtx &ctx, CollArgs)
{
    for (int k = 1; k < ctx.size; k <<= 1) {
        co_await ctx.stage();
        int to = ctx.relative(ctx.rank, k);
        int from = ctx.relative(ctx.rank, -k);
        co_await ctx.sendrecv(to, 0, from);
    }
    co_return nullptr;
}

/** The dedicated barrier network.  It spans the whole machine, so a
 *  sub-communicator falls back to the software barrier. */
sim::Task<msg::PayloadPtr>
barrierHardware(const CollCtx &ctx, CollArgs a)
{
    if (ctx.size != ctx.mach->size())
        co_return co_await barrierDissemination(ctx, std::move(a));
    machine::HardwareBarrier *hw = ctx.mach->hwBarrier();
    if (!hw)
        fatal("hardware barrier requested on '%s', which has none",
              ctx.mach->config().name.c_str());
    co_await hw->arrive(ctx.global(ctx.rank));
    co_return nullptr;
}

constexpr AlgoEntry kAlgos[] = {
    {machine::Algo::Linear, barrierLinear},
    {machine::Algo::Binomial, barrierTree},
    {machine::Algo::Dissemination, barrierDissemination},
    {machine::Algo::Hardware, barrierHardware},
};

} // namespace

constinit const CollOp kBarrier{machine::Coll::Barrier, "barrier", false,
                                Payload::None, false, kAlgos};

} // namespace ccsim::mpi

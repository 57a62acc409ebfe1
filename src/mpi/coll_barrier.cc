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
sim::Task<void>
barrierLinear(const CollCtx &ctx)
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
}

/** Binomial fan-in to rank 0, binomial fan-out release. */
sim::Task<void>
barrierTree(const CollCtx &ctx)
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
}

/**
 * Dissemination: ceil(log2 p) rounds; in round k every rank signals
 * (rank + 2^k) and waits for (rank - 2^k).  What MPICH used.
 */
sim::Task<void>
barrierDissemination(const CollCtx &ctx)
{
    for (int k = 1; k < ctx.size; k <<= 1) {
        co_await ctx.stage();
        int to = ctx.relative(ctx.rank, k);
        int from = ctx.relative(ctx.rank, -k);
        co_await ctx.sendrecv(to, 0, from);
    }
}

/** The dedicated barrier network (requires full-machine group). */
sim::Task<void>
barrierHardware(const CollCtx &ctx)
{
    machine::HardwareBarrier *hw = ctx.mach->hwBarrier();
    if (!hw)
        fatal("hardware barrier requested on '%s', which has none",
              ctx.mach->config().name.c_str());
    co_await hw->arrive(ctx.global(ctx.rank));
}

} // namespace

sim::Task<void>
barrierImpl(const CollCtx &ctx, machine::Algo algo)
{
    co_await ctx.entry();
    if (ctx.size == 1)
        co_return;

    // The hardware tree spans the whole machine; a sub-communicator
    // must fall back to the software barrier.
    if (algo == machine::Algo::Hardware &&
        ctx.size != ctx.mach->size())
        algo = machine::Algo::Dissemination;

    switch (algo) {
      case machine::Algo::Linear:
        co_await barrierLinear(ctx);
        break;
      case machine::Algo::Binomial:
        co_await barrierTree(ctx);
        break;
      case machine::Algo::Dissemination:
        co_await barrierDissemination(ctx);
        break;
      case machine::Algo::Hardware:
        co_await barrierHardware(ctx);
        break;
      default:
        fatal("barrier: unsupported algorithm '%s'",
              machine::algoName(algo).c_str());
    }
}

} // namespace ccsim::mpi

/**
 * @file
 * Total-exchange (alltoall) algorithms: linear (all nonblocking,
 * staggered), pairwise exchange (era default; XOR partners on
 * power-of-two sizes, ring offsets otherwise), and the Bruck
 * log-round algorithm for short messages.
 */

#include "mpi/collectives.hh"
#include "util/logging.hh"

namespace ccsim::mpi {

namespace {

/** Block i of a p-block alltoall contribution (null-safe). */
msg::PayloadPtr
blockOf(const msg::PayloadPtr &all, int i, Bytes m)
{
    return slicePayload(all, m * static_cast<Bytes>(i), m);
}

sim::Task<msg::PayloadPtr>
alltoallLinear(const CollCtx &ctx, CollArgs a)
{
    int p = ctx.size;
    std::vector<msg::PayloadPtr> out(static_cast<size_t>(p));
    out[static_cast<size_t>(ctx.rank)] = blockOf(a.data, ctx.rank, a.m);

    std::vector<msg::Request> rreqs;
    std::vector<msg::Request> sreqs;
    rreqs.reserve(static_cast<size_t>(p - 1));
    sreqs.reserve(static_cast<size_t>(p - 1));
    for (int i = 1; i < p; ++i)
        rreqs.push_back(ctx.irecv(ctx.relative(ctx.rank, -i)));
    for (int i = 1; i < p; ++i) {
        int dst = ctx.relative(ctx.rank, i);
        co_await ctx.stage(2 * a.m);
        sreqs.push_back(ctx.isend(dst, a.m, blockOf(a.data, dst, a.m)));
    }
    for (auto &r : rreqs) {
        msg::Message got = co_await ctx.wait(std::move(r));
        int from = ctx.commRankOf(got.src);
        if (from < 0)
            panic("alltoall: message from stranger node %d", got.src);
        out[static_cast<size_t>(from)] = got.payload;
    }
    for (auto &s : sreqs)
        co_await ctx.wait(std::move(s));
    co_return concatPayloads(out);
}

sim::Task<msg::PayloadPtr>
alltoallPairwise(const CollCtx &ctx, CollArgs a)
{
    int p = ctx.size;
    bool pow2 = isPow2(p);
    std::vector<msg::PayloadPtr> out(static_cast<size_t>(p));
    out[static_cast<size_t>(ctx.rank)] = blockOf(a.data, ctx.rank, a.m);

    for (int i = 1; i < p; ++i) {
        int to, from;
        if (pow2) {
            to = from = ctx.rank ^ i; // true pairwise exchange
        } else {
            to = ctx.relative(ctx.rank, i);
            from = ctx.relative(ctx.rank, -i);
        }
        co_await ctx.stage(2 * a.m);
        msg::Message got = co_await ctx.sendrecv(
            to, a.m, from, blockOf(a.data, to, a.m));
        out[static_cast<size_t>(from)] = got.payload;
    }
    co_return concatPayloads(out);
}

/**
 * Bruck: ceil(log2 p) rounds of combined blocks.  Fewer, larger
 * messages — wins for small m, loses for large m (each block moves
 * up to log2 p times).
 */
sim::Task<msg::PayloadPtr>
alltoallBruck(const CollCtx &ctx, CollArgs a)
{
    int p = ctx.size;
    Bytes m = a.m;

    // Phase 1: local rotation so slot i holds the block destined to
    // relative rank i.
    std::vector<msg::PayloadPtr> cur(static_cast<size_t>(p));
    for (int i = 0; i < p; ++i)
        cur[static_cast<size_t>(i)] =
            blockOf(a.data, ctx.relative(ctx.rank, i), m);

    // Phase 2: for each bit k, every slot whose index has that bit
    // set advances 2^k ranks forward; refill the slots from behind.
    for (int k = 1; k < p; k <<= 1) {
        std::vector<int> idx;
        for (int i = 1; i < p; ++i)
            if (i & k)
                idx.push_back(i);

        std::vector<msg::PayloadPtr> parts;
        parts.reserve(idx.size());
        for (int i : idx)
            parts.push_back(cur[static_cast<size_t>(i)]);
        msg::PayloadPtr sendbuf = concatPayloads(parts);
        Bytes bytes = m * static_cast<Bytes>(idx.size());

        int to = ctx.relative(ctx.rank, k);
        int from = ctx.relative(ctx.rank, -k);
        co_await ctx.stage(2 * bytes);
        msg::Message got = co_await ctx.sendrecv(to, bytes, from,
                                                 std::move(sendbuf));
        for (std::size_t j = 0; j < idx.size(); ++j)
            cur[static_cast<size_t>(idx[j])] =
                got.payload
                    ? slicePayload(got.payload,
                                   m * static_cast<Bytes>(j), m)
                    : nullptr;
    }

    // Phase 3: inverse rotation; slot i now holds the block *from*
    // relative rank -i.
    std::vector<msg::PayloadPtr> out(static_cast<size_t>(p));
    for (int i = 0; i < p; ++i)
        out[static_cast<size_t>(ctx.relative(ctx.rank, -i))] =
            cur[static_cast<size_t>(i)];
    co_return concatPayloads(out);
}

constexpr AlgoEntry kAlgos[] = {
    {machine::Algo::Linear, alltoallLinear},
    {machine::Algo::Pairwise, alltoallPairwise},
    {machine::Algo::Bruck, alltoallBruck},
};

} // namespace

constinit const CollOp kAlltoall{machine::Coll::Alltoall, "alltoall",
                                 false, Payload::Blocks, false, kAlgos};

} // namespace ccsim::mpi

/**
 * @file
 * Broadcast algorithms: linear fan-out, binomial tree (MPICH / CRI
 * default of the era), van de Geijn scatter+allgather and a segmented
 * chain pipeline for long messages.
 */

#include <algorithm>

#include "mpi/collectives.hh"

namespace ccsim::mpi {

namespace {

sim::Task<msg::PayloadPtr>
bcastLinear(const CollCtx &ctx, CollArgs a)
{
    if (ctx.rank == a.root) {
        for (int i = 0; i < ctx.size; ++i) {
            if (i == a.root)
                continue;
            co_await ctx.stage(a.m);
            co_await ctx.send(i, a.m, a.data);
        }
        co_return a.data;
    }
    msg::Message got = co_await ctx.recv(a.root);
    co_return got.payload;
}

sim::Task<msg::PayloadPtr>
bcastBinomial(const CollCtx &ctx, CollArgs a)
{
    int p = ctx.size;
    int r = (ctx.rank - a.root % p + p) % p;
    auto abs = [&](int rel) { return (rel + a.root) % p; };

    int mask = 1;
    while (mask < p) {
        if (r & mask) {
            co_await ctx.stage(a.m);
            msg::Message got = co_await ctx.recv(abs(r - mask));
            a.data = got.payload;
            break;
        }
        mask <<= 1;
    }
    mask >>= 1;
    while (mask > 0) {
        if (r + mask < p) {
            co_await ctx.stage(a.m);
            co_await ctx.send(abs(r + mask), a.m, a.data);
        }
        mask >>= 1;
    }
    co_return a.data;
}

/**
 * van de Geijn long-message broadcast: binomial-scatter the message
 * in p chunks, then ring-allgather the chunks.  Per-byte cost is
 * ~2 m (p-1)/p instead of m log2 p.
 */
sim::Task<msg::PayloadPtr>
bcastScatterAllgather(const CollCtx &ctx, CollArgs a)
{
    int p = ctx.size;
    Bytes chunk = (a.m + p - 1) / p;

    // Pad the root's payload to p equal chunks.
    msg::PayloadPtr padded;
    if (ctx.rank == a.root && a.data) {
        auto buf = std::make_shared<std::vector<std::byte>>(*a.data);
        buf->resize(static_cast<size_t>(chunk * p));
        padded = buf;
    }

    // The phases inherit this call's stage costs but must not
    // re-charge the collective entry cost.
    CollCtx sub = ctx;
    sub.costs.entry = 0;
    msg::PayloadPtr my_chunk =
        co_await phase(sub, kScatter, machine::Algo::Binomial,
                       CollArgs(chunk, a.root, std::move(padded)));
    msg::PayloadPtr all =
        co_await phase(sub, kAllgather, machine::Algo::Ring,
                       CollArgs(chunk, -1, std::move(my_chunk)));
    co_return slicePayload(all, 0, a.m);
}

/** Segment size of the pipelined chain broadcast. */
constexpr Bytes kBcastSegment = 8 * KiB;

/**
 * Segmented chain pipeline: ranks form a line in root-relative
 * order; each segment is forwarded as soon as it lands.  Time is
 * ~(S + p - 2) segment steps instead of S log2 p — the long-message
 * regime's friend, terrible for short messages.
 */
sim::Task<msg::PayloadPtr>
bcastPipelined(const CollCtx &ctx, CollArgs a)
{
    int p = ctx.size;
    int rel = (ctx.rank - a.root % p + p) % p;
    auto abs = [&](int r) { return (r + a.root) % p; };

    int segments =
        static_cast<int>((a.m + kBcastSegment - 1) / kBcastSegment);
    if (segments == 0)
        segments = 1;

    std::vector<msg::PayloadPtr> parts(
        static_cast<size_t>(segments));
    for (int s = 0; s < segments; ++s) {
        Bytes off = kBcastSegment * static_cast<Bytes>(s);
        Bytes len = std::min(kBcastSegment, a.m - off);
        if (a.m == 0)
            len = 0;
        if (rel > 0) {
            msg::Message got = co_await ctx.recv(abs(rel - 1));
            parts[static_cast<size_t>(s)] = got.payload;
        } else {
            parts[static_cast<size_t>(s)] =
                slicePayload(a.data, off, len);
        }
        if (rel < p - 1) {
            co_await ctx.stage(len);
            co_await ctx.send(abs(rel + 1), len,
                              parts[static_cast<size_t>(s)]);
        }
    }
    if (rel == 0)
        co_return a.data;
    co_return concatPayloads(parts);
}

constexpr AlgoEntry kAlgos[] = {
    {machine::Algo::Linear, bcastLinear},
    {machine::Algo::Binomial, bcastBinomial},
    {machine::Algo::ScatterAllgather, bcastScatterAllgather},
    {machine::Algo::Pipelined, bcastPipelined},
};

} // namespace

constinit const CollOp kBcast{machine::Coll::Bcast, "bcast", true,
                              Payload::M, true, kAlgos};

} // namespace ccsim::mpi

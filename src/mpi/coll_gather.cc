/**
 * @file
 * Gather algorithms: linear fan-in at the root (the era default —
 * the paper's measured O(p) gather latency comes from exactly this)
 * and binomial tree; gatherv's linear fan-in.
 */

#include <algorithm>

#include "mpi/collectives.hh"
#include "util/logging.hh"

namespace ccsim::mpi {

namespace {

/**
 * Everyone sends directly to the root, which consumes arrivals in
 * whatever order they land.  Root cost per child is one receive
 * completion — the measured per-node latency slope.
 */
sim::Task<msg::PayloadPtr>
gatherLinear(const CollCtx &ctx, CollArgs a)
{
    int p = ctx.size;
    if (ctx.rank != a.root) {
        co_await ctx.stage(a.m);
        co_await ctx.send(a.root, a.m, std::move(a.data));
        co_return nullptr;
    }

    std::vector<msg::PayloadPtr> blocks(static_cast<size_t>(p));
    blocks[static_cast<size_t>(a.root)] = std::move(a.data);
    bool carrying = blocks[static_cast<size_t>(a.root)] != nullptr;

    // Post every receive up front (as MPICH does): rendezvous
    // handshakes then overlap, and the root becomes wire-limited
    // instead of handshake-serialized for long messages.
    std::vector<msg::Request> reqs;
    reqs.reserve(static_cast<size_t>(p - 1));
    for (int i = 1; i < p; ++i)
        reqs.push_back(ctx.irecv(msg::kAnySource));
    for (auto &r : reqs) {
        co_await ctx.stage(a.m);
        msg::Message got = co_await ctx.wait(std::move(r));
        int from = ctx.commRankOf(got.src);
        if (from < 0)
            panic("gather: message from stranger node %d", got.src);
        blocks[static_cast<size_t>(from)] = got.payload;
        carrying = carrying || got.payload != nullptr;
    }
    co_return carrying ? concatPayloads(blocks) : nullptr;
}

/**
 * Binomial fan-in over root-relative ranks; each subtree forwards a
 * contiguous block of relative ranks, so the root only needs one
 * final rotation when root != 0.
 */
sim::Task<msg::PayloadPtr>
gatherBinomial(const CollCtx &ctx, CollArgs a)
{
    int p = ctx.size;
    int r = (ctx.rank - a.root % p + p) % p;
    auto abs = [&](int rel) { return (rel + a.root) % p; };

    msg::PayloadPtr acc = std::move(a.data); // covers rel [r, r + cnt)
    int cnt = 1;

    int mask = 1;
    while (mask < p) {
        if ((r & mask) == 0) {
            int src = r | mask;
            if (src < p) {
                int blk = std::min(mask, p - src);
                co_await ctx.stage(a.m * static_cast<Bytes>(blk));
                msg::Message got = co_await ctx.recv(abs(src));
                acc = concatPayload(acc, got.payload);
                cnt += blk;
            }
        } else {
            co_await ctx.stage(a.m * static_cast<Bytes>(cnt));
            co_await ctx.send(abs(r - mask),
                              a.m * static_cast<Bytes>(cnt), acc);
            co_return nullptr;
        }
        mask <<= 1;
    }
    co_return rotateBlocksToAbsolute(acc, p, a.m, a.root);
}

/**
 * gatherv: rank i sends its counts[i] bytes straight to the root.
 * Linear only, as in the era's MPICH: trees do not compose with
 * ragged counts.
 */
sim::Task<msg::PayloadPtr>
gathervLinear(const CollCtx &ctx, CollArgs a)
{
    int p = ctx.size;
    if (ctx.rank != a.root) {
        Bytes my_count = (*a.counts)[static_cast<size_t>(ctx.rank)];
        co_await ctx.stage(my_count);
        co_await ctx.send(a.root, my_count, std::move(a.data));
        co_return nullptr;
    }

    std::vector<msg::PayloadPtr> blocks(static_cast<size_t>(p));
    blocks[static_cast<size_t>(a.root)] = std::move(a.data);
    bool carrying = blocks[static_cast<size_t>(a.root)] != nullptr;
    std::vector<msg::Request> reqs;
    for (int i = 0; i < p; ++i)
        if (i != a.root)
            reqs.push_back(ctx.irecv(msg::kAnySource));
    for (auto &r : reqs) {
        msg::Message got = co_await ctx.wait(std::move(r));
        int from = ctx.commRankOf(got.src);
        if (from < 0)
            panic("gatherv: message from stranger node %d", got.src);
        co_await ctx.stage(got.bytes);
        blocks[static_cast<size_t>(from)] = got.payload;
        carrying = carrying || got.payload != nullptr;
    }
    co_return carrying ? concatPayloads(blocks) : nullptr;
}

constexpr AlgoEntry kAlgos[] = {
    {machine::Algo::Linear, gatherLinear},
    {machine::Algo::Binomial, gatherBinomial},
};

constexpr AlgoEntry kVectorAlgos[] = {
    {machine::Algo::Linear, gathervLinear},
};

} // namespace

constinit const CollOp kGather{machine::Coll::Gather, "gather", true,
                               Payload::M, false, kAlgos};
constinit const CollOp kGatherv{machine::Coll::Gather, "gatherv", true,
                                Payload::Counts, false, kVectorAlgos};

} // namespace ccsim::mpi

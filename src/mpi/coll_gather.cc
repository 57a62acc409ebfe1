/**
 * @file
 * Gather algorithms: linear fan-in at the root (the era default —
 * the paper's measured O(p) gather latency comes from exactly this)
 * and binomial tree.
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
gatherLinear(const CollCtx &ctx, Bytes m, int root, msg::PayloadPtr mine)
{
    int p = ctx.size;
    if (ctx.rank != root) {
        co_await ctx.stage(m);
        co_await ctx.send(root, m, std::move(mine));
        co_return nullptr;
    }

    std::vector<msg::PayloadPtr> blocks(static_cast<size_t>(p));
    blocks[static_cast<size_t>(root)] = std::move(mine);
    bool carrying = blocks[static_cast<size_t>(root)] != nullptr;

    // Post every receive up front (as MPICH does): rendezvous
    // handshakes then overlap, and the root becomes wire-limited
    // instead of handshake-serialized for long messages.
    std::vector<msg::Request> reqs;
    reqs.reserve(static_cast<size_t>(p - 1));
    for (int i = 1; i < p; ++i)
        reqs.push_back(ctx.irecv(msg::kAnySource));
    for (auto &r : reqs) {
        co_await ctx.stage(m);
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
gatherBinomial(const CollCtx &ctx, Bytes m, int root, msg::PayloadPtr mine)
{
    int p = ctx.size;
    int r = (ctx.rank - root % p + p) % p;
    auto abs = [&](int rel) { return (rel + root) % p; };

    msg::PayloadPtr acc = std::move(mine); // covers rel [r, r + cnt)
    int cnt = 1;

    int mask = 1;
    while (mask < p) {
        if ((r & mask) == 0) {
            int src = r | mask;
            if (src < p) {
                int blk = std::min(mask, p - src);
                co_await ctx.stage(m * static_cast<Bytes>(blk));
                msg::Message got = co_await ctx.recv(abs(src));
                acc = concatPayload(acc, got.payload);
                cnt += blk;
            }
        } else {
            co_await ctx.stage(m * static_cast<Bytes>(cnt));
            co_await ctx.send(abs(r - mask),
                              m * static_cast<Bytes>(cnt), acc);
            co_return nullptr;
        }
        mask <<= 1;
    }
    co_return rotateBlocksToAbsolute(acc, p, m, root);
}

} // namespace

sim::Task<msg::PayloadPtr>
gathervImpl(const CollCtx &ctx, machine::Algo algo,
            const std::vector<Bytes> &counts, int root,
            msg::PayloadPtr mine)
{
    int p = ctx.size;
    if (algo != machine::Algo::Linear)
        fatal("gatherv: only the linear algorithm is implemented, "
              "got %s", machine::algoName(algo).c_str());
    if (root < 0 || root >= p)
        fatal("gatherv: root %d outside communicator of %d", root, p);
    if (static_cast<int>(counts.size()) != p)
        fatal("gatherv: %zu counts for %d ranks", counts.size(), p);
    for (Bytes c : counts)
        if (c < 0)
            fatal("gatherv: negative count");
    Bytes my_count = counts[static_cast<size_t>(ctx.rank)];
    if (mine && static_cast<Bytes>(mine->size()) != my_count)
        fatal("gatherv: contribution is %zu bytes, expected %lld",
              mine->size(), static_cast<long long>(my_count));

    co_await ctx.entry();
    if (p == 1)
        co_return mine;

    if (ctx.rank != root) {
        co_await ctx.stage(my_count);
        co_await ctx.send(root, my_count, std::move(mine));
        co_return nullptr;
    }

    std::vector<msg::PayloadPtr> blocks(static_cast<size_t>(p));
    blocks[static_cast<size_t>(root)] = std::move(mine);
    bool carrying = blocks[static_cast<size_t>(root)] != nullptr;
    std::vector<msg::Request> reqs;
    for (int i = 0; i < p; ++i)
        if (i != root)
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

sim::Task<msg::PayloadPtr>
gatherImpl(const CollCtx &ctx, machine::Algo algo, Bytes m, int root,
           msg::PayloadPtr mine)
{
    if (root < 0 || root >= ctx.size)
        fatal("gather: root %d outside communicator of %d", root,
              ctx.size);
    if (m < 0)
        fatal("gather: negative message length");
    if (mine && static_cast<Bytes>(mine->size()) != m)
        fatal("gather: contribution is %zu bytes, expected %lld",
              mine->size(), static_cast<long long>(m));

    co_await ctx.entry();
    if (ctx.size == 1)
        co_return mine;

    switch (algo) {
      case machine::Algo::Linear:
        co_return co_await gatherLinear(ctx, m, root, std::move(mine));
      case machine::Algo::Binomial:
        co_return co_await gatherBinomial(ctx, m, root, std::move(mine));
      default:
        fatal("gather: unsupported algorithm '%s'",
              machine::algoName(algo).c_str());
    }
}

} // namespace ccsim::mpi

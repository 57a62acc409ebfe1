/**
 * @file
 * The collective table's lookups and its one argument check.  The
 * rows themselves live next to their algorithms in coll_<op>.cc.
 */

#include <iterator>

#include "mpi/collectives.hh"
#include "tuning/selection_table.hh"
#include "util/logging.hh"

namespace ccsim::mpi {

using machine::Algo;
using machine::Coll;

const AlgoEntry *
CollOp::find(Algo a) const
{
    for (const AlgoEntry &e : algos)
        if (e.algo == a)
            return &e;
    return nullptr;
}

std::string
CollOp::missing(Algo a) const
{
    std::string has;
    for (const AlgoEntry &e : algos)
        has += (has.empty() ? "" : ", ") + machine::algoName(e.algo);
    return strFormat("%s has no algorithm '%s' (it has: %s)", name,
                     machine::algoName(a).c_str(), has.c_str());
}

Algo
CollOp::resolve(const machine::MachineConfig &cfg, int p, Bytes m,
                Algo requested) const
{
    if (payload == Payload::Counts &&
        (requested == Algo::Default || requested == Algo::Auto))
        return algos.front().algo;
    return tuning::resolveAlgo(cfg, op, p, m, requested);
}

const CollOp &
collOp(Coll op, bool vector)
{
    static constexpr const CollOp *kRows[] = {
        &kBarrier,  &kBcast,  &kGather,    &kScatter,       &kAllgather,
        &kAlltoall, &kReduce, &kAllreduce, &kReduceScatter, &kScan,
    };
    static_assert(std::size(kRows) == machine::kNumColl);
    if (op < Coll::Barrier || op >= Coll::NumColl)
        panic("collOp: bad collective %d", static_cast<int>(op));
    if (!vector)
        return *kRows[static_cast<int>(op)];
    if (op == Coll::Gather)
        return kGatherv;
    if (op == Coll::Scatter)
        return kScatterv;
    panic("collOp: %s has no vector form", machine::collName(op).c_str());
}

void
requireAlgo(const CollOp &row, Algo a)
{
    if (!row.find(a))
        raiseError(ConfigError(row.missing(a)));
}

AlgoFn
checkCall(const CollOp &row, const CollCtx &ctx, Algo algo,
          const CollArgs &args)
{
    const int p = ctx.size;
    if (row.rooted && (args.root < 0 || args.root >= p))
        fatal("%s: root %d outside communicator of %d", row.name,
              args.root, p);

    Bytes expected = args.m;
    if (row.payload == Payload::Counts) {
        const std::size_t n = args.counts ? args.counts->size() : 0;
        if (static_cast<int>(n) != p)
            fatal("%s: %zu counts for %d ranks", row.name, n, p);
        Bytes total = 0;
        for (Bytes c : *args.counts) {
            if (c < 0)
                fatal("%s: negative count", row.name);
            total += c;
        }
        expected = row.root_only
                       ? total
                       : (*args.counts)[static_cast<size_t>(ctx.rank)];
    } else if (args.m < 0) {
        fatal("%s: negative message length", row.name);
    } else if (row.payload == Payload::Blocks) {
        expected = args.m * static_cast<Bytes>(p);
    }
    if (args.data && (!row.root_only || ctx.rank == args.root) &&
        static_cast<Bytes>(args.data->size()) != expected)
        fatal("%s: %s is %zu bytes, expected %lld", row.name,
              row.root_only ? "root payload" : "contribution",
              args.data->size(), static_cast<long long>(expected));

    if (const AlgoEntry *e = row.find(algo))
        return e->run;
    fatal("%s", row.missing(algo).c_str());
}

sim::Task<msg::PayloadPtr>
phase(const CollCtx &ctx, const CollOp &row, Algo algo, CollArgs args)
{
    const AlgoFn run = checkCall(row, ctx, algo, args);
    co_await ctx.entry();
    co_return co_await run(ctx, std::move(args));
}

} // namespace ccsim::mpi

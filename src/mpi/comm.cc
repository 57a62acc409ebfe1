#include "mpi/comm.hh"

#include <algorithm>
#include <type_traits>

#include "util/logging.hh"

namespace ccsim::mpi {

namespace {

/** Point-to-point traffic uses even contexts, collectives odd. */
int
ptpContext(int ctx_id)
{
    return ctx_id * 2;
}

int
collContext(int ctx_id)
{
    return ctx_id * 2 + 1;
}

} // namespace

Comm::Comm(machine::Machine &mach, int rank)
    : mach_(&mach), probe_(mach.probe()), rank_(rank),
      size_(mach.size()), group_(nullptr), ctx_id_(0)
{
    if (rank < 0 || rank >= size_)
        fatal("Comm: rank %d outside machine of %d nodes", rank, size_);
}

Comm::Comm(machine::Machine &mach, int rank, int size,
           std::shared_ptr<const std::vector<int>> group, int ctx_id)
    : mach_(&mach), probe_(mach.probe()), rank_(rank), size_(size),
      group_(std::move(group)), ctx_id_(ctx_id)
{
}

int
Comm::globalRank(int r) const
{
    if (r < 0 || r >= size_)
        panic("Comm::globalRank: rank %d outside communicator of %d", r,
              size_);
    return group_ ? (*group_)[static_cast<size_t>(r)] : r;
}

msg::Transport &
Comm::transport() const
{
    return mach_->node(globalRank(rank_));
}

Comm
Comm::subgroup(const std::vector<int> &members) const
{
    if (members.empty())
        fatal("Comm::subgroup: empty member list");

    std::vector<int> globals;
    globals.reserve(members.size());
    int my_new_rank = -1;
    for (std::size_t i = 0; i < members.size(); ++i) {
        int r = members[i];
        if (r < 0 || r >= size_)
            fatal("Comm::subgroup: member %d outside communicator of %d",
                  r, size_);
        if (r == rank_)
            my_new_rank = static_cast<int>(i);
        globals.push_back(globalRank(r));
    }
    // Duplicate check without disturbing member order.
    std::vector<int> sorted = globals;
    std::sort(sorted.begin(), sorted.end());
    if (std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end())
        fatal("Comm::subgroup: duplicate member");
    if (my_new_rank < 0)
        fatal("Comm::subgroup: calling rank %d is not a member", rank_);

    int ctx = mach_->contextFor(globals);
    int new_size = static_cast<int>(globals.size());
    auto group = std::make_shared<const std::vector<int>>(
        std::move(globals));
    return Comm(*mach_, my_new_rank, new_size, std::move(group), ctx);
}

msg::SendAwaiter
Comm::send(int dst, int tag, Bytes bytes, msg::PayloadPtr payload) const
{
    int g = globalRank(dst);
    report({.kind = machine::CallKind::Send, .peer = g, .tag = tag,
            .bytes = bytes});
    return transport().send(g, tag, ptpContext(ctx_id_), bytes,
                            std::move(payload));
}

msg::RecvAwaiter
Comm::recv(int src, int tag) const
{
    int g = src == msg::kAnySource ? src : globalRank(src);
    report({.kind = machine::CallKind::Recv, .peer = g, .tag = tag});
    return transport().recv(g, tag, ptpContext(ctx_id_));
}

msg::Request
Comm::isend(int dst, int tag, Bytes bytes, msg::PayloadPtr payload) const
{
    int g = globalRank(dst);
    report({.kind = machine::CallKind::Isend, .peer = g, .tag = tag,
            .bytes = bytes});
    return transport().isend(g, tag, ptpContext(ctx_id_), bytes,
                             std::move(payload));
}

msg::Request
Comm::irecv(int src, int tag) const
{
    int g = src == msg::kAnySource ? src : globalRank(src);
    report({.kind = machine::CallKind::Irecv, .peer = g, .tag = tag});
    return transport().irecv(g, tag, ptpContext(ctx_id_));
}

msg::WaitAwaiter
Comm::wait(msg::Request req) const
{
    report({.kind = machine::CallKind::Wait});
    return transport().wait(std::move(req));
}

msg::RecvAwaiter
Comm::sendrecv(int dst, int send_tag, Bytes bytes, int src, int recv_tag,
               msg::PayloadPtr payload) const
{
    int gdst = globalRank(dst);
    int gsrc = globalRank(src);
    report({.kind = machine::CallKind::Sendrecv, .peer = gdst,
            .peer2 = gsrc, .tag = send_tag, .tag2 = recv_tag,
            .bytes = bytes});
    return transport().sendrecv(gdst, send_tag, bytes, gsrc, recv_tag,
                                ptpContext(ctx_id_), std::move(payload));
}

sim::Task<void>
Comm::compute(Time t) const
{
    report({.kind = machine::CallKind::Compute, .duration = t});
    const Time start = mach_->sim().now();
    co_await transport().busy(t);
    if (probe_)
        probe_->compute(globalRank(rank_), start, mach_->sim().now());
}

CollCtx
Comm::makeCtx(const CollOp &row, Algo &algo, Bytes m, Combiner combiner)
{
    const machine::MachineConfig &cfg = mach_->config();
    algo = row.resolve(cfg, size_, m, algo);

    CollCtx ctx;
    ctx.mach = mach_;
    ctx.tp = &transport();
    ctx.rank = rank_;
    ctx.size = size_;
    ctx.group = group_;
    ctx.context = collContext(ctx_id_);
    ctx.tag = coll_seq_++;
    ctx.costs = cfg.costsFor(row.op);
    ctx.ov = msg::CostOverride{ctx.costs.send_overhead_override,
                               ctx.costs.recv_overhead_override};
    ctx.reduce_bw = cfg.reduce_bandwidth_mbs;
    ctx.combiner = std::move(combiner);
    ctx.op = row.op;
    ctx.probe = probe_;
    return ctx;
}

template <typename T>
sim::Task<T>
Comm::call(const CollOp &row, CollArgs args, Algo algo, Combiner combiner)
{
    if (row.payload == Payload::None)
        args.m = 0; // a barrier has no message length
    report({.kind = machine::CallKind::Coll, .bytes = args.m,
            .op = row.op, .algo = algo,
            .root = row.rooted ? args.root : -1, .counts = args.counts,
            .group = group_.get()});
    const CollCtx ctx = makeCtx(row, algo, args.m, std::move(combiner));
    const AlgoFn run = checkCall(row, ctx, algo, args);
    const Time start = mach_->sim().now();
    co_await ctx.entry();
    msg::PayloadPtr out;
    if (ctx.size == 1)
        out = std::move(args.data); // alone, my payload is the result
    else
        out = co_await run(ctx, std::move(args));
    if (probe_)
        probe_->collEnd(globalRank(rank_), row.op, start,
                        mach_->sim().now());
    if constexpr (!std::is_void_v<T>)
        co_return out;
}

template sim::Task<void> Comm::call<void>(const CollOp &, CollArgs, Algo,
                                          Combiner);
template sim::Task<msg::PayloadPtr>
Comm::call<msg::PayloadPtr>(const CollOp &, CollArgs, Algo, Combiner);

// ---- size-only front-ends ---------------------------------------------

sim::Task<void>
Comm::barrier(Algo algo)
{
    return call(kBarrier, CollArgs(0, -1, nullptr), algo);
}

sim::Task<void>
Comm::bcast(Bytes m, int root, Algo algo)
{
    return call(kBcast, CollArgs(m, root, nullptr), algo);
}

sim::Task<void>
Comm::gather(Bytes m, int root, Algo algo)
{
    return call(kGather, CollArgs(m, root, nullptr), algo);
}

sim::Task<void>
Comm::scatter(Bytes m, int root, Algo algo)
{
    return call(kScatter, CollArgs(m, root, nullptr), algo);
}

sim::Task<void>
Comm::allgather(Bytes m, Algo algo)
{
    return call(kAllgather, CollArgs(m, -1, nullptr), algo);
}

sim::Task<void>
Comm::gatherv(const std::vector<Bytes> &counts, int root, Algo algo)
{
    return call(kGatherv, CollArgs(0, root, nullptr, &counts), algo);
}

sim::Task<void>
Comm::scatterv(const std::vector<Bytes> &counts, int root, Algo algo)
{
    return call(kScatterv, CollArgs(0, root, nullptr, &counts), algo);
}

sim::Task<void>
Comm::alltoall(Bytes m, Algo algo)
{
    return call(kAlltoall, CollArgs(m, -1, nullptr), algo);
}

sim::Task<void>
Comm::reduce(Bytes m, int root, Algo algo)
{
    return call(kReduce, CollArgs(m, root, nullptr), algo);
}

sim::Task<void>
Comm::allreduce(Bytes m, Algo algo)
{
    return call(kAllreduce, CollArgs(m, -1, nullptr), algo);
}

sim::Task<void>
Comm::reduceScatter(Bytes m, Algo algo)
{
    return call(kReduceScatter, CollArgs(m, -1, nullptr), algo);
}

sim::Task<void>
Comm::scan(Bytes m, Algo algo)
{
    return call(kScan, CollArgs(m, -1, nullptr), algo);
}

} // namespace ccsim::mpi

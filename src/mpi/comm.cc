#include "mpi/comm.hh"

#include <algorithm>

#include "tuning/selection_table.hh"
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

sim::Task<void>
Comm::send(int dst, int tag, Bytes bytes, msg::PayloadPtr payload) const
{
    int g = globalRank(dst);
    report({.kind = machine::CallKind::Send, .peer = g, .tag = tag,
            .bytes = bytes});
    return transport().send(g, tag, ptpContext(ctx_id_), bytes,
                            std::move(payload));
}

sim::Task<msg::Message>
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

sim::Task<msg::Message>
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
Comm::makeCtx(Coll op, Algo &algo, Bytes m, Combiner combiner)
{
    const machine::MachineConfig &cfg = mach_->config();
    algo = tuning::resolveAlgo(cfg, op, size_, m, algo);

    CollCtx ctx;
    ctx.mach = mach_;
    ctx.tp = &transport();
    ctx.rank = rank_;
    ctx.size = size_;
    ctx.group = group_;
    ctx.context = collContext(ctx_id_);
    ctx.tag = coll_seq_++;
    ctx.costs = cfg.costsFor(op);
    ctx.ov = msg::CostOverride{ctx.costs.send_overhead_override,
                               ctx.costs.recv_overhead_override};
    ctx.reduce_bw = cfg.reduce_bandwidth_mbs;
    ctx.combiner = std::move(combiner);
    ctx.op = op;
    ctx.probe = probe_;
    return ctx;
}

template <typename T, typename... Args>
sim::Task<T>
Comm::collective(Coll op, Bytes m, int root, Algo algo,
                 const std::vector<Bytes> *counts, Combiner combiner,
                 sim::Task<T> (*impl)(const CollCtx &, Algo, Args...),
                 std::type_identity_t<Args>... args)
{
    report({.kind = machine::CallKind::Coll, .bytes = m, .op = op,
            .algo = algo, .root = root, .counts = counts,
            .group = group_.get()});
    // gatherv/scatterv's only algorithm is Linear; Default (and Auto)
    // mean that, not the machine's (possibly tree-shaped) choice for
    // the base op.
    if (counts && (algo == Algo::Default || algo == Algo::Auto))
        algo = Algo::Linear;
    CollCtx ctx = makeCtx(op, algo, m, std::move(combiner));
    const Time start = mach_->sim().now();
    if constexpr (std::is_void_v<T>) {
        co_await impl(ctx, algo, std::move(args)...);
        if (probe_)
            probe_->collEnd(globalRank(rank_), op, start,
                            mach_->sim().now());
    } else {
        T out = co_await impl(ctx, algo, std::move(args)...);
        if (probe_)
            probe_->collEnd(globalRank(rank_), op, start,
                            mach_->sim().now());
        co_return out;
    }
}

// ---- per-operation cores ----------------------------------------------
// The public size-only and *Data forms both forward here.

sim::Task<msg::PayloadPtr>
Comm::bcastCore(Bytes m, int root, Algo algo, msg::PayloadPtr data)
{
    return collective(Coll::Bcast, m, root, algo, nullptr, {}, bcastImpl,
                      m, root, std::move(data));
}

sim::Task<msg::PayloadPtr>
Comm::gatherCore(Bytes m, int root, Algo algo, msg::PayloadPtr mine)
{
    return collective(Coll::Gather, m, root, algo, nullptr, {},
                      gatherImpl, m, root, std::move(mine));
}

sim::Task<msg::PayloadPtr>
Comm::scatterCore(Bytes m, int root, Algo algo, msg::PayloadPtr all)
{
    return collective(Coll::Scatter, m, root, algo, nullptr, {},
                      scatterImpl, m, root, std::move(all));
}

sim::Task<msg::PayloadPtr>
Comm::gathervCore(const std::vector<Bytes> &counts, int root, Algo algo,
                  msg::PayloadPtr mine)
{
    return collective(Coll::Gather, 0, root, algo, &counts, {},
                      gathervImpl, counts, root, std::move(mine));
}

sim::Task<msg::PayloadPtr>
Comm::scattervCore(const std::vector<Bytes> &counts, int root, Algo algo,
                   msg::PayloadPtr all)
{
    return collective(Coll::Scatter, 0, root, algo, &counts, {},
                      scattervImpl, counts, root, std::move(all));
}

sim::Task<msg::PayloadPtr>
Comm::allgatherCore(Bytes m, Algo algo, msg::PayloadPtr mine)
{
    return collective(Coll::Allgather, m, -1, algo, nullptr, {},
                      allgatherImpl, m, std::move(mine));
}

sim::Task<msg::PayloadPtr>
Comm::alltoallCore(Bytes m, Algo algo, msg::PayloadPtr mine)
{
    return collective(Coll::Alltoall, m, -1, algo, nullptr, {},
                      alltoallImpl, m, std::move(mine));
}

sim::Task<msg::PayloadPtr>
Comm::reduceCore(Bytes m, int root, Algo algo, Combiner combiner,
                 msg::PayloadPtr mine)
{
    return collective(Coll::Reduce, m, root, algo, nullptr,
                      std::move(combiner), reduceImpl, m, root,
                      std::move(mine));
}

sim::Task<msg::PayloadPtr>
Comm::allreduceCore(Bytes m, Algo algo, Combiner combiner,
                    msg::PayloadPtr mine)
{
    return collective(Coll::Allreduce, m, -1, algo, nullptr,
                      std::move(combiner), allreduceImpl, m,
                      std::move(mine));
}

sim::Task<msg::PayloadPtr>
Comm::reduceScatterCore(Bytes m, Algo algo, Combiner combiner,
                        msg::PayloadPtr mine)
{
    return collective(Coll::ReduceScatter, m, -1, algo, nullptr,
                      std::move(combiner), reduceScatterImpl, m,
                      std::move(mine));
}

sim::Task<msg::PayloadPtr>
Comm::scanCore(Bytes m, Algo algo, Combiner combiner,
               msg::PayloadPtr mine)
{
    return collective(Coll::Scan, m, -1, algo, nullptr,
                      std::move(combiner), scanImpl, m, std::move(mine));
}

// ---- size-only front-ends ---------------------------------------------

sim::Task<void>
Comm::barrier(Algo algo)
{
    return collective(Coll::Barrier, 0, -1, algo, nullptr, {},
                      barrierImpl);
}

sim::Task<void>
Comm::bcast(Bytes m, int root, Algo algo)
{
    co_await bcastCore(m, root, algo, nullptr);
}

sim::Task<void>
Comm::gather(Bytes m, int root, Algo algo)
{
    co_await gatherCore(m, root, algo, nullptr);
}

sim::Task<void>
Comm::scatter(Bytes m, int root, Algo algo)
{
    co_await scatterCore(m, root, algo, nullptr);
}

sim::Task<void>
Comm::allgather(Bytes m, Algo algo)
{
    co_await allgatherCore(m, algo, nullptr);
}

sim::Task<void>
Comm::gatherv(const std::vector<Bytes> &counts, int root, Algo algo)
{
    co_await gathervCore(counts, root, algo, nullptr);
}

sim::Task<void>
Comm::scatterv(const std::vector<Bytes> &counts, int root, Algo algo)
{
    co_await scattervCore(counts, root, algo, nullptr);
}

sim::Task<void>
Comm::alltoall(Bytes m, Algo algo)
{
    co_await alltoallCore(m, algo, nullptr);
}

sim::Task<void>
Comm::reduce(Bytes m, int root, Algo algo)
{
    co_await reduceCore(m, root, algo, {}, nullptr);
}

sim::Task<void>
Comm::allreduce(Bytes m, Algo algo)
{
    co_await allreduceCore(m, algo, {}, nullptr);
}

sim::Task<void>
Comm::reduceScatter(Bytes m, Algo algo)
{
    co_await reduceScatterCore(m, algo, {}, nullptr);
}

sim::Task<void>
Comm::scan(Bytes m, Algo algo)
{
    co_await scanCore(m, algo, {}, nullptr);
}

} // namespace ccsim::mpi

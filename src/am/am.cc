#include "am/am.hh"

#include <algorithm>

#include "util/logging.hh"

namespace ccsim::am {

Time
AmEndpoint::occupyCpu(Time cost)
{
    Time start = std::max(fabric_.sim_.now(), cpu_free_);
    cpu_free_ = start + cost;
    return cpu_free_;
}

void
AmEndpoint::post(int dst, int handler_id, std::uint64_t arg,
                 Bytes bytes, msg::PayloadPtr payload)
{
    if (dst < 0 || dst >= fabric_.size())
        panic("AmEndpoint::post: destination %d out of range", dst);
    if (bytes < 0)
        panic("AmEndpoint::post: negative size");
    (void)fabric_.handler(handler_id); // validates the id

    ++sends_;
    const AmParams &params = fabric_.params_;
    Time copy = transferTime(bytes, params.copy_bandwidth_mbs);
    Time issue_done = occupyCpu(params.send_overhead + copy);

    AmArrival arrival{node_, dst, arg, bytes, std::move(payload)};
    if (dst == node_) {
        // Local delivery: straight to the dispatcher.
        AmEndpoint *self = this;
        fabric_.sim_.scheduleAt(
            issue_done,
            [self, handler_id, arrival = std::move(arrival)]() mutable {
                self->deliver(handler_id, std::move(arrival));
            });
        return;
    }

    Time wire_arrival =
        fabric_.net_.transfer(node_, dst, bytes, issue_done);
    AmEndpoint *peer = &fabric_.node(dst);
    fabric_.sim_.scheduleAt(
        wire_arrival,
        [peer, handler_id, arrival = std::move(arrival)]() mutable {
            peer->deliver(handler_id, std::move(arrival));
        });
}

sim::Task<void>
AmEndpoint::send(int dst, int handler_id, std::uint64_t arg,
                 Bytes bytes, msg::PayloadPtr payload)
{
    post(dst, handler_id, arg, bytes, std::move(payload));
    // Block the caller until this node's CPU has finished issuing.
    if (cpu_free_ > fabric_.sim_.now())
        co_await fabric_.sim_.delay(cpu_free_ - fabric_.sim_.now());
}

void
AmEndpoint::deliver(int handler_id, AmArrival arrival)
{
    const AmParams &params = fabric_.params_;
    Time dispatched = occupyCpu(
        params.handler_overhead +
        transferTime(arrival.bytes, params.copy_bandwidth_mbs));
    AmEndpoint *self = this;
    fabric_.sim_.scheduleAt(
        dispatched,
        [self, handler_id, arrival = std::move(arrival)]() mutable {
            ++self->handled_;
            self->fabric_.handler(handler_id)(arrival);
        });
}

AmFabric::AmFabric(sim::Simulator &sim, net::Network &net, int n,
                   const AmParams &params)
    : sim_(sim), net_(net), params_(params)
{
    if (n < 1)
        fatal("AmFabric: need at least one node, got %d", n);
    if (n > net.topology().numNodes())
        fatal("AmFabric: %d nodes exceed the %d-node topology", n,
              net.topology().numNodes());
    if (params.send_overhead < 0 || params.handler_overhead < 0)
        fatal("AmEndpoint: negative overhead");
    if (params.copy_bandwidth_mbs <= 0)
        fatal("AmEndpoint: copy bandwidth must be positive");
    nodes_.reserve(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i)
        nodes_.push_back(std::make_unique<AmEndpoint>(*this, i));
}

int
AmFabric::registerHandler(Handler h)
{
    if (!h)
        fatal("AmFabric::registerHandler: empty handler");
    handlers_.push_back(std::move(h));
    return static_cast<int>(handlers_.size()) - 1;
}

const Handler &
AmFabric::handler(int id) const
{
    if (id < 0 || static_cast<size_t>(id) >= handlers_.size())
        panic("AmFabric: handler id %d out of range", id);
    return handlers_[static_cast<size_t>(id)];
}

AmEndpoint &
AmFabric::node(int i)
{
    if (i < 0 || i >= size())
        panic("AmFabric::node: %d out of range [0, %d)", i, size());
    return *nodes_[static_cast<size_t>(i)];
}

} // namespace ccsim::am

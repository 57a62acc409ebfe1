/**
 * @file
 * Active messages: the lightweight messaging layer the paper's
 * conclusions call for evaluating ("We suggest extended research be
 * conducted in evaluating the use of active messages or fast
 * messages in MPI applications" — citing Culler et al. and MPI-FM).
 *
 * An active message names a HANDLER at the destination instead of
 * being matched against a posted receive: no envelope matching, no
 * unexpected-message buffering, no rendezvous — the handler runs as
 * soon as the message arrives and the node's processor is free.
 * That removes most of the per-message software overhead that
 * dominates every startup latency in the paper, at the cost of a
 * more restrictive programming model (handlers must not block).
 *
 * Model: each node has an AmEndpoint with its own CPU timeline; the
 * simulator, network and AmParams are the AmFabric's, once per
 * machine.  send()/post() charge a (small) send overhead, the
 * injection copy runs at the node copy bandwidth, the network is the
 * same contention-modelled fabric MPI uses, and on arrival the
 * handler charges a (small) handler overhead before executing.
 * Handlers may post() further messages (e.g.\ forwarding down a
 * broadcast tree) but must not suspend.
 */

#ifndef CCSIM_AM_AM_HH
#define CCSIM_AM_AM_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "msg/message.hh"
#include "net/network.hh"
#include "sim/simulator.hh"
#include "sim/task.hh"
#include "util/units.hh"

namespace ccsim::am {

/** Software costs of the active-message layer. */
struct AmParams
{
    /** CPU cost to issue one active message. */
    Time send_overhead = 0;

    /** CPU cost to dispatch a handler at arrival. */
    Time handler_overhead = 0;

    /** Injection/extraction copy bandwidth, MB/s. */
    double copy_bandwidth_mbs = 400.0;
};

/** What a handler receives. */
struct AmArrival
{
    int src = 0;
    int dst = 0;
    std::uint64_t arg = 0;     //!< small immediate argument
    Bytes bytes = 0;           //!< payload length
    msg::PayloadPtr payload;   //!< optional payload
};

/** Handler executed at the destination node. */
using Handler = std::function<void(const AmArrival &)>;

class AmFabric;

/** One node's active-message endpoint: its CPU timeline and
 *  counters. */
class AmEndpoint
{
  public:
    /** Endpoint of node @p node; @p fabric owns it and outlives it. */
    AmEndpoint(AmFabric &fabric, int node) : fabric_(fabric), node_(node)
    {
    }

    AmEndpoint(const AmEndpoint &) = delete;
    AmEndpoint &operator=(const AmEndpoint &) = delete;

    int node() const { return node_; }

    /**
     * Fire-and-forget issue (callable from handlers): charges the
     * send overhead on this node's CPU timeline without suspending
     * anyone and schedules the handler invocation at the
     * destination.  @p handler_id must be registered on the fabric.
     */
    void post(int dst, int handler_id, std::uint64_t arg = 0,
              Bytes bytes = 0, msg::PayloadPtr payload = nullptr);

    /**
     * Coroutine issue (for rank programs): like post() but completes
     * when this node's CPU has finished issuing.
     */
    sim::Task<void> send(int dst, int handler_id,
                         std::uint64_t arg = 0, Bytes bytes = 0,
                         msg::PayloadPtr payload = nullptr);

    /** Messages issued by this endpoint. */
    std::uint64_t sends() const { return sends_; }

    /** Handlers executed on this endpoint. */
    std::uint64_t handled() const { return handled_; }

  private:
    friend class AmFabric;

    /** Arrival processing: dispatch after the handler overhead. */
    void deliver(int handler_id, AmArrival arrival);

    /** Reserve this node's CPU from now; returns completion time. */
    Time occupyCpu(Time cost);

    AmFabric &fabric_;
    int node_;
    Time cpu_free_ = 0;
    std::uint64_t sends_ = 0;
    std::uint64_t handled_ = 0;
};

/** All endpoints of a machine plus what they share: the simulator,
 *  network, costs and handler table. */
class AmFabric
{
  public:
    /** Build @p n endpoints over @p net; @p params is checked once,
     *  before any endpoint is built. */
    AmFabric(sim::Simulator &sim, net::Network &net, int n,
             const AmParams &params);

    /** Register a handler; the returned id is valid on every node
     *  (SPMD-style registration). */
    int registerHandler(Handler h);

    AmEndpoint &node(int i);
    int size() const { return static_cast<int>(nodes_.size()); }

  private:
    friend class AmEndpoint;

    const Handler &handler(int id) const;

    sim::Simulator &sim_;
    net::Network &net_;
    AmParams params_;
    std::vector<std::unique_ptr<AmEndpoint>> nodes_;
    std::vector<Handler> handlers_;
};

} // namespace ccsim::am

#endif // CCSIM_AM_AM_HH

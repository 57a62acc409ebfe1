/**
 * @file
 * machine::Probe: the one observation object of a Machine.
 *
 * It extends stats::Probe, which carries the points the msg and net
 * layers report (sends, receives, queue depths, link bytes and
 * stalls), with the points only mpi::Comm sees: every MPI call as
 * requested, and each collective's stages, messages and end.  A
 * Machine creates its probe when the first consumer arrives and hands
 * the same object to every layer, each only while one of its points
 * has a consumer: the Network while metrics are on, every Transport
 * while metrics or a trace are on, every Comm while anything listens.
 * With nothing listening all those pointers are null and each site
 * costs one test.
 *
 * Three consumers read the points:
 *
 *  - metrics (MachineConfig::collect_metrics): the stats groups,
 *    updated in place and read back by Machine::metricsSnapshot();
 *  - a sim::Trace (Machine::attachTrace): activity spans, plus
 *    network counter samples at global rank 0's collective ends when
 *    metrics are on too;
 *  - one CallListener (Machine::attachListener), e.g.\ the replay
 *    Recorder: the calls as requested, and the point-reset event.
 *    This is the probe's only virtual dispatch.
 */

#ifndef CCSIM_MACHINE_PROBE_HH
#define CCSIM_MACHINE_PROBE_HH

#include <array>
#include <vector>

#include "machine/collective_types.hh"
#include "stats/probe.hh"
#include "util/units.hh"

namespace ccsim::net {
class Network;
}

namespace ccsim::machine {

/** What an mpi::Comm call asks for (one replay trace action each). */
enum class CallKind
{
    Compute,  //!< occupy the CPU for a duration
    Send,     //!< blocking send
    Isend,    //!< nonblocking send (FIFO wait queue)
    Recv,     //!< blocking receive
    Irecv,    //!< nonblocking receive (FIFO wait queue)
    Wait,     //!< wait for the oldest outstanding request
    Sendrecv, //!< combined exchange
    Coll,     //!< any collective (op says which)
};

/**
 * One mpi::Comm call with its arguments as requested: before
 * algorithm resolution, before any simulated time passes.  Ranks are
 * global node ids; msg::kAnySource and kAnyTag pass through as -1.
 */
struct Call
{
    CallKind kind = CallKind::Compute;
    int node = 0;      //!< calling global rank
    Time duration = 0; //!< Compute: CPU time
    int peer = -1;     //!< Send*/Recv*: dst/src; Sendrecv: dst
    int peer2 = -1;    //!< Sendrecv: src
    int tag = 0;       //!< ptp tag (Sendrecv: send tag)
    int tag2 = 0;      //!< Sendrecv: receive tag
    Bytes bytes = 0;   //!< payload / collective message length (0 for
                       //!< barrier and the vector collectives)
    Coll op = Coll::Barrier;   //!< the collective; gatherv/scatterv
                               //!< report their base op with counts set
    Algo algo = Algo::Default; //!< the algorithm as requested
    int root = -1;             //!< communicator-local root, -1 if none
    const std::vector<Bytes> *counts = nullptr; //!< gatherv/scatterv
    const std::vector<int> *group = nullptr; //!< sub-communicator's
                                             //!< global ranks, else null
};

/**
 * Consumer of the call events.  Callbacks run synchronously on the
 * calling rank's coroutine and must not block or re-enter the
 * communicator.
 */
class CallListener
{
  public:
    virtual ~CallListener() = default;

    /** One mpi::Comm call, as requested. */
    virtual void onCall(const Call &call) = 0;

    /** Point boundary (Probe::reset): drop per-point state, so a
     *  listener reused across sweep points keeps repeated points
     *  byte-identical. */
    virtual void onReset() {}
};

/** The probe a Machine hands to every layer. */
class Probe final : public stats::Probe
{
  public:
    /** The probe of a machine whose network is @p net. */
    Probe(const net::Network &net, bool metrics);

    CallListener *listener = nullptr; //!< call consumer, or null
    std::array<stats::CollOpMetrics, kNumColl> coll; //!< by Coll

    /** An mpi::Comm call as requested. */
    void
    call(const Call &c)
    {
        if (listener)
            listener->onCall(c);
    }

    /** A stage of collective @p op began (CollCtx::stage). */
    void
    collStage(Coll op)
    {
        if (metrics)
            coll[static_cast<std::size_t>(op)].stages.add();
    }

    /** A collective @p op issued a message (CollCtx send paths). */
    void
    collMessage(Coll op)
    {
        if (metrics)
            coll[static_cast<std::size_t>(op)].msgs.add();
    }

    /** A call of collective @p op at global rank @p node, begun at
     *  @p start, returned at @p end. */
    void collEnd(int node, Coll op, Time start, Time end);

    /** Point boundary: zero the metric groups and tell the
     *  listener.  Simulated state is untouched. */
    void reset();

  private:
    const net::Network &net_;
};

} // namespace ccsim::machine

#endif // CCSIM_MACHINE_PROBE_HH

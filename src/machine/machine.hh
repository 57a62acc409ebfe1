/**
 * @file
 * Machine: one instantiated multicomputer — simulator, network,
 * per-node transports, and special hardware services — built from a
 * MachineConfig for a given node count.
 *
 * A Machine owns everything a run needs:
 * @code
 *     machine::Machine m(machine::t3dConfig(), 64);
 *     auto program = [&](int rank) -> sim::Task<void> { ... };
 *     m.spawnAll([&](int rank) { return program(rank); });
 *     m.run();
 * @endcode
 *
 * Name the coroutine lambda: a coroutine's frame refers to the
 * closure that created it, and a lambda passed straight to spawnAll
 * becomes a temporary std::function that dies when spawnAll returns,
 * long before the rank programs finish.
 */

#ifndef CCSIM_MACHINE_MACHINE_HH
#define CCSIM_MACHINE_MACHINE_HH

#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "fault/fault_injector.hh"
#include "machine/hw_barrier.hh"
#include "machine/machine_config.hh"
#include "machine/probe.hh"
#include "msg/transport.hh"
#include "net/network.hh"
#include "sim/simulator.hh"
#include "sim/trace.hh"
#include "stats/snapshot.hh"

namespace ccsim::machine {

/** A ready-to-run simulated multicomputer. */
class Machine
{
  public:
    /** Instantiate @p config for @p p nodes (validates the config). */
    Machine(MachineConfig config, int p);

    /**
     * Instantiate a shared immutable config for @p p nodes without
     * copying it — the cheap path for concurrent sessions that build
     * many Machines from one description (sharedPreset() et al.).
     */
    Machine(ConfigHandle config, int p);

    Machine(const Machine &) = delete;
    Machine &operator=(const Machine &) = delete;

    /** Number of nodes. */
    int size() const { return size_; }

    /** The configuration this machine was built from. */
    const MachineConfig &config() const { return *config_; }

    sim::Simulator &sim() { return sim_; }
    net::Network &network() { return *network_; }
    msg::Fabric &fabric() { return *fabric_; }

    /** Transport endpoint of node @p rank. */
    msg::Transport &node(int rank) { return fabric_->node(rank); }

    /** Barrier tree, or nullptr when the machine has none. */
    HardwareBarrier *hwBarrier() { return hw_barrier_.get(); }

    /** Fault injector, or nullptr when config().fault is disabled. */
    fault::FaultInjector *faultInjector() { return fault_.get(); }

    /** Fault outcome of the run so far (empty when disabled). */
    fault::FaultReport faultReport() const
    {
        return fault_ ? fault_->report() : fault::FaultReport{};
    }

    /**
     * The probe every layer reports to (machine/probe.hh), or null
     * while nothing listens.  It exists from construction when
     * config().collect_metrics is set, else from the first attach.
     */
    Probe *probe() { return probe_.get(); }

    /**
     * Record activity spans into @p trace (not owned; must outlive
     * the run).  Attach observers before the rank programs start:
     * each mpi::Comm takes the probe when it is constructed.
     */
    void attachTrace(sim::Trace &trace);

    /** Report every mpi::Comm call to @p listener (e.g.\ the replay
     *  Recorder); not owned, same rules as attachTrace. */
    void attachListener(CallListener &listener);

    /**
     * Assemble the machine-wide MetricsSnapshot: every live metric
     * group under stable names, plus the per-link traffic table and
     * the fault / simulator counters (see docs/METRICS.md for the
     * schema).  Empty when metrics are off.
     */
    stats::MetricsSnapshot metricsSnapshot();

    /** Spawn one rank program per node (rank passed to the factory).
     *  The factory must call a named coroutine lambda that outlives
     *  the run, not be one itself (see the file comment). */
    void spawnAll(const std::function<sim::Task<void>(int)> &factory);

    /** Run the event loop to completion. */
    void run() { sim_.run(); }

    /**
     * Deterministic communicator-context allocation: the same global
     * rank list always maps to the same context id, so every member
     * of a new communicator derives the identical id without
     * coordination.  Id 0 is the world communicator.
     */
    int contextFor(const std::vector<int> &global_ranks);

  private:
    /** The probe, created on first use. */
    Probe &makeProbe();

    ConfigHandle config_;
    int size_;
    std::unique_ptr<net::Network> network_;
    std::unique_ptr<fault::FaultInjector> fault_;
    std::unique_ptr<Probe> probe_;
    std::unique_ptr<msg::Fabric> fabric_;
    std::unique_ptr<HardwareBarrier> hw_barrier_;
    std::map<std::vector<int>, int> context_registry_;
    /** Declared last so it is destroyed first: the frames a failed or
     *  deadlocked run leaves, and its pending events, still hold
     *  request and handshake slots from the fabric's pools. */
    sim::Simulator sim_;
};

} // namespace ccsim::machine

#endif // CCSIM_MACHINE_MACHINE_HH

/**
 * @file
 * Replayer: execute a recorded/authored Program on any Machine.
 *
 * The replayer spawns one coroutine per rank that walks the rank's
 * action list through a real mpi::Comm — compute occupies the CPU,
 * point-to-point and collectives go through the full transport /
 * network / algorithm stack — so a trace taken from one machine
 * answers "how would this application behave on the SP2 / T3D /
 * Paragon?" with the simulator's full fidelity, including
 * contention, fault injection, and activity tracing.
 *
 * Determinism contract: replaying the trace a Recorder captured, on
 * the machine it was captured from, reproduces the original
 * simulated times byte-identically; replaySweep() keeps that
 * property at any --jobs level (each point owns its Machine and
 * results land in point order).
 */

#ifndef CCSIM_REPLAY_REPLAYER_HH
#define CCSIM_REPLAY_REPLAYER_HH

#include <vector>

#include "fault/fault_injector.hh"
#include "harness/sweep.hh"
#include "machine/machine_config.hh"
#include "machine/probe.hh"
#include "replay/program.hh"
#include "sim/trace.hh"
#include "stats/snapshot.hh"

namespace ccsim::replay {

/** Knobs of one replay run. */
struct ReplayOptions
{
    /**
     * Message-size scaling: every byte count in the trace (ptp
     * payloads, collective lengths, vector counts) is multiplied by
     * this factor and rounded to the nearest byte.  1.0 is the exact
     * identity (no floating-point involved), preserving the
     * byte-identical record -> replay contract; other values sweep a
     * workload across message scales without re-recording.
     */
    double scale = 1.0;

    /** Record an activity trace (each span labelled with its trace
     *  action, so Perfetto timelines read at action granularity). */
    bool collect_trace = false;

    /** Collect a MetricsSnapshot (observation only — simulated times
     *  are byte-identical with metrics on or off). */
    bool metrics = false;

    /**
     * Call listener attached to the run's Machine (e.g.\ a
     * Recorder), or null.  Not owned; must outlive the run.  The
     * replayer resets the machine's probe at the start of every
     * point, which calls CallListener::onReset(), so a listener
     * reused across sweep points drops its per-point state and
     * repeated points stay byte-identical.  A listener shared by
     * several points of a replaySweep() requires --jobs 1 (points
     * would otherwise race on it).
     */
    machine::CallListener *listener = nullptr;
};

/** Outcome of one replay run. */
struct ReplayResult
{
    std::string machine;
    int np = 0;
    double scale = 1.0;

    /** Per-rank simulated completion time. */
    std::vector<Time> completion;

    /** Activity spans (empty unless options.collect_trace). */
    sim::Trace trace;

    /** Fault-layer activity (empty when faults are disabled). */
    fault::FaultReport faults;

    /** Observability snapshot (empty unless options.metrics or
     *  cfg.collect_metrics). */
    stats::MetricsSnapshot metrics;

    /** Completion time of the slowest rank — the workload's
     *  simulated makespan. */
    Time makespan() const;
};

/** Executes Programs on Machines. */
class Replayer
{
  public:
    /** Replay @p prog on a fresh Machine built from @p cfg. */
    static ReplayResult run(const machine::MachineConfig &cfg,
                            const Program &prog,
                            const ReplayOptions &opt = {});
};

/** One (machine, options) replay point of a sweep. */
struct ReplayPoint
{
    machine::MachineConfig cfg;
    ReplayOptions options;
};

/**
 * Replay @p prog at every point on @p runner's worker pool
 * (harness::SweepRunner::runTasks): results[i] is points[i]'s
 * outcome at any --jobs level.
 */
std::vector<ReplayResult>
replaySweep(const Program &prog, const std::vector<ReplayPoint> &points,
            harness::SweepRunner &runner);

} // namespace ccsim::replay

#endif // CCSIM_REPLAY_REPLAYER_HH

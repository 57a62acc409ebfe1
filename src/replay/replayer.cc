#include "replay/replayer.hh"

#include <algorithm>
#include <cmath>
#include <deque>
#include <map>

#include "machine/machine.hh"
#include "mpi/comm.hh"
#include "replay/trace_parser.hh"
#include "util/logging.hh"

namespace ccsim::replay {

namespace {

/** Scale a byte count; 1.0 is the exact identity (no FP at all). */
Bytes
scaleBytes(Bytes b, double scale)
{
    if (scale == 1.0)
        return b;
    return static_cast<Bytes>(
        std::llround(static_cast<double>(b) * scale));
}

/**
 * One rank's replay coroutine.  Sub-communicators are created
 * lazily and cached per member list, so repeated collectives on the
 * same group reuse one Comm (and hence the same tag sequence the
 * recorded run produced).  Outstanding isend/irecv requests form a
 * FIFO queue that `wait` drains oldest-first — the standard
 * time-independent-trace convention (see docs/REPLAY.md).
 */
sim::Task<void>
runRank(machine::Machine &mach, const Program &prog, int rank,
        double scale, sim::Trace *trace, std::vector<Time> &completion)
{
    mpi::Comm world(mach, rank);
    std::map<std::vector<int>, mpi::Comm> subgroups;
    std::deque<msg::Request> pending;

    for (const Action &a : prog.ranks[static_cast<std::size_t>(rank)]) {
        if (trace)
            trace->setPhase(rank, actionKeyword(a.kind, a.op,
                                                a.vector_variant));
        switch (a.kind) {
          case ActionKind::Compute:
            co_await world.compute(a.duration);
            break;
          case ActionKind::Send:
            co_await world.send(a.peer, a.tag,
                                scaleBytes(a.bytes, scale));
            break;
          case ActionKind::Isend:
            pending.push_back(world.isend(
                a.peer, a.tag, scaleBytes(a.bytes, scale)));
            break;
          case ActionKind::Recv:
            co_await world.recv(a.peer, a.tag);
            break;
          case ActionKind::Irecv:
            pending.push_back(world.irecv(a.peer, a.tag));
            break;
          case ActionKind::Wait: {
            if (pending.empty())
                fatal("%s: rank %d: wait with no outstanding request "
                      "(line %d)", prog.source.c_str(), rank, a.line);
            msg::Request req = pending.front();
            pending.pop_front();
            co_await world.wait(req);
            break;
          }
          case ActionKind::Sendrecv:
            co_await world.sendrecv(a.peer, a.tag,
                                    scaleBytes(a.bytes, scale),
                                    a.peer2, a.tag2);
            break;
          case ActionKind::Coll: {
            mpi::Comm *comm = &world;
            if (!a.group.empty()) {
                auto it = subgroups.find(a.group);
                if (it == subgroups.end())
                    it = subgroups
                             .emplace(a.group,
                                      world.subgroup(a.group))
                             .first;
                comm = &it->second;
            }
            std::vector<Bytes> counts = a.counts; // gatherv/scatterv
            for (Bytes &c : counts)
                c = scaleBytes(c, scale);
            co_await comm->call(
                mpi::collOp(a.op, a.vector_variant),
                mpi::CollArgs(scaleBytes(a.bytes, scale), a.root, nullptr,
                              a.vector_variant ? &counts : nullptr),
                a.algo);
            break;
          }
        }
    }
    if (trace)
        trace->setPhase(rank, "");
    completion[static_cast<std::size_t>(rank)] = mach.sim().now();
}

/**
 * Raise ConfigError for the first collective action whose algorithm,
 * resolved as Comm::call will resolve it (group size, scaled length),
 * is not in its operation's row: the trace parser rejects a named
 * algorithm, but a configured default or a selection rule only meets
 * the machine here.
 */
void
requireAlgorithms(const machine::MachineConfig &cfg, const Program &prog,
                  double scale)
{
    for (const std::vector<Action> &actions : prog.ranks)
        for (const Action &a : actions) {
            if (a.kind != ActionKind::Coll)
                continue;
            const mpi::CollOp &row = mpi::collOp(a.op, a.vector_variant);
            const int p = a.group.empty()
                              ? prog.np
                              : static_cast<int>(a.group.size());
            const Bytes m = row.payload == mpi::Payload::None
                                ? 0
                                : scaleBytes(a.bytes, scale);
            mpi::requireAlgo(row, row.resolve(cfg, p, m, a.algo));
        }
}

} // namespace

Time
ReplayResult::makespan() const
{
    Time t = 0;
    for (Time c : completion)
        t = std::max(t, c);
    return t;
}

ReplayResult
Replayer::run(const machine::MachineConfig &cfg, const Program &prog,
              const ReplayOptions &opt)
{
    if (prog.np < 1)
        fatal("replay: program '%s' has no ranks",
              prog.source.c_str());
    if (opt.scale <= 0.0)
        fatal("replay: scale %g must be positive", opt.scale);
    requireAlgorithms(cfg, prog, opt.scale);

    machine::MachineConfig run_cfg = cfg;
    run_cfg.collect_metrics = cfg.collect_metrics || opt.metrics;
    machine::Machine mach(run_cfg, prog.np);
    ReplayResult res;
    res.machine = cfg.name;
    res.np = prog.np;
    res.scale = opt.scale;
    res.completion.assign(static_cast<std::size_t>(prog.np), 0);
    if (opt.listener)
        mach.attachListener(*opt.listener);
    if (opt.collect_trace)
        mach.attachTrace(res.trace);

    // Point boundary: zero any metric state and tell the listener to
    // drop per-point accumulation.  A listener reused across sweep
    // points (e.g.\ a Recorder) would otherwise carry the previous
    // point's state into this one, so repeated points would not be
    // byte-identical.
    if (machine::Probe *probe = mach.probe())
        probe->reset();

    sim::Trace *trace = opt.collect_trace ? &res.trace : nullptr;
    for (int r = 0; r < prog.np; ++r)
        mach.sim().spawn(
            runRank(mach, prog, r, opt.scale, trace, res.completion));
    mach.run();

    res.faults = mach.faultReport();
    res.metrics = mach.metricsSnapshot();
    return res;
}

std::vector<ReplayResult>
replaySweep(const Program &prog, const std::vector<ReplayPoint> &points,
            harness::SweepRunner &runner)
{
    std::vector<ReplayResult> results(points.size());
    runner.runTasks(points.size(), [&](std::size_t i) {
        results[i] =
            Replayer::run(points[i].cfg, prog, points[i].options);
    });
    return results;
}

} // namespace ccsim::replay

/**
 * @file
 * Recorder: a machine::CallListener that turns any live run into a
 * replayable Program.
 *
 * Attach it before spawning rank programs:
 *
 * @code
 *     machine::Machine m(cfg, p);
 *     replay::Recorder rec(p);
 *     rec.attach(m);
 *     auto program = [&](int rank) -> sim::Task<void> { ... };
 *     m.spawnAll([&](int rank) { return program(rank); }); // see machine.hh
 *     m.run();
 *     rec.writeFile("app.trace");
 * @endcode
 *
 * The machine's probe reports each call with its arguments *as
 * requested* (before algorithm resolution), so recorded traces are
 * machine-portable:
 * Algo::Default stays "default" and re-resolves against whichever
 * machine replays the trace.  Replaying a recording on the machine it
 * was taken from reproduces the original simulated times
 * byte-identically (compute durations are stored with full picosecond
 * resolution).
 */

#ifndef CCSIM_REPLAY_RECORDER_HH
#define CCSIM_REPLAY_RECORDER_HH

#include <iosfwd>
#include <string>

#include "machine/probe.hh"
#include "replay/program.hh"

namespace ccsim::machine {
class Machine;
}

namespace ccsim::replay {

/** Captures mpi::Comm calls into a Program. */
class Recorder : public machine::CallListener
{
  public:
    /** Record a run of @p np ranks. */
    explicit Recorder(int np);

    /** Convenience: machine.attachListener(*this).  The recorder must
     *  outlive the machine's run. */
    void attach(machine::Machine &m);

    /** The trace recorded so far. */
    const Program &program() const { return prog_; }

    /** Move the recording out (the recorder resets to empty). */
    Program take();

    /** Write the recording in trace format. */
    void write(std::ostream &os) const;

    /** write() to a file (fatal on I/O failure). */
    void writeFile(const std::string &path) const;

    // -- CallListener ----------------------------------------------------

    /** Append @p call to its rank's action list. */
    void onCall(const machine::Call &call) override;

    /** Point boundary (replay sweeps): drop the actions recorded so
     *  far so each point's recording starts fresh and repeated points
     *  are byte-identical.  np and source are kept. */
    void onReset() override;

  private:
    std::vector<Action> &rankList(int node);

    Program prog_;
};

} // namespace ccsim::replay

#endif // CCSIM_REPLAY_RECORDER_HH

/**
 * @file
 * The in-memory form of a time-independent MPI action trace.
 *
 * A Program is what the TraceParser produces and the Replayer
 * executes: one validated action list per rank, independent of
 * simulated time (compute is stored as a duration, communication as
 * its arguments) so the same trace replays on any machine model —
 * the property SimGrid's SMPI established for application-skeleton
 * simulation, applied here to the paper's three multicomputers.
 */

#ifndef CCSIM_REPLAY_PROGRAM_HH
#define CCSIM_REPLAY_PROGRAM_HH

#include <string>
#include <vector>

#include "machine/collective_types.hh"
#include "machine/probe.hh"
#include "util/units.hh"

namespace ccsim::replay {

/** What one trace line asks a rank to do: one mpi::Comm call, so
 *  the kinds are the ones the machine probe reports. */
using ActionKind = machine::CallKind;

/** Printable action keyword ("compute", "isend", or the collective
 *  key for ActionKind::Coll). */
std::string actionKeyword(ActionKind k, machine::Coll op,
                          bool vector_variant);

/** One parsed trace line. */
struct Action
{
    ActionKind kind = ActionKind::Compute;

    Time duration = 0; //!< Compute: CPU time
    int peer = -1;     //!< Send*/Recv*: global dst/src (-1: any source)
    int peer2 = -1;    //!< Sendrecv: global source
    int tag = 0;       //!< ptp tag (Sendrecv: send tag)
    int tag2 = 0;      //!< Sendrecv: receive tag
    Bytes bytes = 0;   //!< payload / collective message length

    machine::Coll op = machine::Coll::Barrier; //!< Coll only
    machine::Algo algo = machine::Algo::Default;
    int root = 0;                   //!< communicator-local root
    bool vector_variant = false;    //!< gatherv/scatterv
    std::vector<Bytes> counts;      //!< vector-collective byte counts
    std::vector<int> group;         //!< sub-communicator global
                                    //!< ranks; empty = world

    int line = 0; //!< 1-based source line (diagnostics)
};

/** A complete trace: np validated per-rank action lists. */
struct Program
{
    int np = 0;
    std::vector<std::vector<Action>> ranks;
    std::string source; //!< file/stream name for diagnostics

    /** Total action count across ranks. */
    std::size_t
    actions() const
    {
        std::size_t n = 0;
        for (const auto &r : ranks)
            n += r.size();
        return n;
    }
};

} // namespace ccsim::replay

#endif // CCSIM_REPLAY_PROGRAM_HH

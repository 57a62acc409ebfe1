/**
 * @file
 * The empirical tuner: derive a SelectionTable for one machine by
 * measuring every candidate algorithm over a (p, m) grid and keeping
 * the winners, the way Open MPI's tuned component was itself derived
 * from exhaustive benchmark sweeps.
 *
 * The sweep runs on the harness worker pool (SweepRunner), so it
 * parallelizes like every figure bench, and it sits ABOVE the
 * measurement memo cache: every (cfg, p, op, m, algo) point the tuner
 * simulates is exactly a point the figure benches and the model fits
 * also simulate, so a tune after a sweep (or vice versa) is mostly
 * cache hits.  That is also why the tuner measures explicit
 * algorithms only — Auto is resolved before the memo key exists, so
 * a tuned table can never pollute the cache it is derived from.
 *
 * Results are deterministic at any --jobs level (SweepRunner returns
 * results in spec order and ties break by candidate order), so a
 * tuned table is a reproducible artifact worth committing.
 */

#ifndef CCSIM_TUNING_TUNER_HH
#define CCSIM_TUNING_TUNER_HH

#include <vector>

#include "harness/measure.hh"
#include "machine/machine_config.hh"
#include "tuning/selection_table.hh"

namespace ccsim::tuning {

/** The (op, p, m) grid a tune sweeps, and the procedure knobs. */
struct TuneGrid
{
    /** Collectives to tune; empty = all of them. */
    std::vector<machine::Coll> ops;

    /** Machine sizes; empty = the machine's paper sweep. */
    std::vector<int> sizes;

    /** Message lengths; empty = the paper sweep.  Barrier ignores
     *  the length axis, as everywhere else. */
    std::vector<Bytes> lengths;

    harness::MeasureOptions options;
};

/**
 * One grid point's verdict: what the machine's configured default
 * costs there versus the empirical best candidate.
 */
struct RegretCell
{
    machine::Coll op = machine::Coll::Barrier;
    int p = 2;
    Bytes m = 0;

    machine::Algo default_algo = machine::Algo::Default;
    machine::Algo best_algo = machine::Algo::Default;

    Time default_time = 0;
    Time best_time = 0;

    /** Time the default left on the table, as a fraction of the
     *  best ([0, inf); 0 when the default already wins). */
    double
    regret() const
    {
        if (best_time <= 0)
            return 0.0;
        return static_cast<double>(default_time - best_time) /
               static_cast<double>(best_time);
    }
};

/** A tune's output: the winning table plus the regret evidence. */
struct TuneResult
{
    SelectionTable table;
    std::vector<RegretCell> cells; //!< grid order: op, p, m

    /** Summed default-vs-best times over the whole grid — the
     *  headline "how much did 1997's defaults leave on the table". */
    Time total_default = 0;
    Time total_best = 0;

    double
    totalRegret() const
    {
        if (total_best <= 0)
            return 0.0;
        return static_cast<double>(total_default - total_best) /
               static_cast<double>(total_best);
    }

    /** The cell with the largest individual regret (grid order
     *  breaks ties); cells must be non-empty. */
    const RegretCell &worstCell() const;
};

/**
 * The algorithms worth trying for @p op on a machine described by
 * @p cfg: the operation's row of the collective table
 * (mpi/collectives.hh), minus hardware paths the machine lacks
 * (Algo::Hardware requires cfg.hardware_barrier).  Order is fixed and
 * meaningful — the tuner breaks exact ties by it, so it starts with
 * the machine's configured default (a challenger must strictly beat
 * the incumbent), then follows the row.
 */
std::vector<machine::Algo> candidateAlgos(
    const machine::MachineConfig &cfg, machine::Coll op);

/**
 * Tune @p cfg over @p grid: measure every candidate on every (op, p,
 * m) point using @p jobs worker threads (0 = hardware concurrency),
 * pick per-point winners, and compress the winner map into a
 * piecewise SelectionTable (rules only where the winner changes
 * along the m axis, rows only where a p differs from the previous
 * row).  Any selection table already attached to @p cfg is ignored:
 * the tuner measures explicit algorithms only.
 *
 * Fault-conditioned tuning: when @p cfg carries an enabled
 * FaultSpec, the tuner builds decision maps for the *degraded*
 * machine — every candidate of a cell is measured under the same
 * derived fault universe (distinct universes across cells), a
 * candidate that raises FaultError is ranked last in its cell
 * instead of aborting the tune, and with grid.options.ensemble > 1
 * candidates are ranked by (ensemble failures, mean makespan).
 * Pair it with a clean tune of the same grid to see where the 1997
 * clean-condition winners flip under faults (bench/
 * ablation_resilience).
 */
TuneResult tuneMachine(const machine::MachineConfig &cfg,
                       const TuneGrid &grid = {}, int jobs = 0);

} // namespace ccsim::tuning

#endif // CCSIM_TUNING_TUNER_HH

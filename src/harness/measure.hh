/**
 * @file
 * The paper's measurement procedure (Section 2), reproduced:
 *
 * @verbatim
 *     barrier synchronization
 *     get start-time
 *     for (i = 0; i < k; i++)
 *         the-collective-routine-being-measured
 *     get end-time
 *     local-time = (end-time - start-time) / k
 *     communication-time = maximum-reduce(local-time)
 * @endverbatim
 *
 * The program is executed repeatedly (paper: >22 runs, k = 20, five
 * repetitions per machine size); the first runs are discarded as
 * warm-up; the minimal, maximal, and mean times over all processes
 * are collected and the MAXIMUM is what the paper reports, "because
 * it reflects the condition that all processes involved in the
 * machine have finished the operation."
 *
 * Because the simulator is deterministic, the default options use a
 * smaller k and fewer repetitions than the paper — the numbers are
 * identical, only cheaper to produce.  paperFaithful() restores the
 * full procedure (including per-node clock-skew injection, which the
 * paper lists among its accuracy caveats).
 */

#ifndef CCSIM_HARNESS_MEASURE_HH
#define CCSIM_HARNESS_MEASURE_HH

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "fault/fault_report.hh"
#include "machine/machine.hh"
#include "model/predictor.hh"
#include "mpi/comm.hh"
#include "stats/cache_stats.hh"
#include "util/units.hh"

namespace ccsim::harness {

/** Knobs of the Section 2 procedure. */
struct MeasureOptions
{
    int iterations = 5;   //!< k: timed calls per repetition
    int repetitions = 2;  //!< timed repetitions
    int warmup = 1;       //!< untimed leading calls (cold caches)
    Time max_skew = 0;    //!< per-rank clock-skew injection bound
    std::uint64_t seed = 12345; //!< skew RNG seed

    /** Collect a MetricsSnapshot alongside the timings (observation
     *  only: the measured times are identical either way). */
    bool metrics = false;

    /**
     * Reuse memoized results: simulation is deterministic, so a
     * (machine, p, op, m, algo, procedure) point always produces the
     * same times and re-simulating it is pure waste — sweeps over
     * overlapping specs (fits, figures, the CLI) hit the same points
     * constantly.  A point is memoized only when nothing outside the
     * key can influence it: faults disabled, no clock-skew
     * injection, and no metrics collection (a metrics run also
     * carries a snapshot, which is observational state, not a
     * timing).  Cached results are byte-identical to re-simulated
     * ones (see tests/test_measure_memo.cc).
     */
    bool memoize = true;

    /**
     * Fault-ensemble mode: when > 1 and the config's FaultSpec is
     * enabled, the point is simulated this many times under derived
     * fault seeds (mixSeed of the spec seed and the member index)
     * and the Measurement reports ensemble statistics — mean and p95
     * makespan, summed fault/degradation counters, and the failure
     * fraction (members that raised FaultError under fail_fast /
     * retry_escalate).  A faulty point is a random variable; the
     * ensemble is what makes it a well-defined statistic the tuner
     * can rank algorithms by.  Ignored when faults are off.  Members
     * run sequentially inside the point (the sweep point stays the
     * unit of parallelism), so results are byte-identical at any
     * --jobs level.
     */
    int ensemble = 1;

    /**
     * The sweep procedure: k = 3, one repetition, one warm-up run.
     * The simulator is deterministic, so a short loop reproduces the
     * paper's numbers.  The figure benches, `ccsim sweep` and
     * `ccsim tune`, and the serve fast path's calibration all use it,
     * so their points share memo entries.
     */
    static MeasureOptions
    sweep()
    {
        MeasureOptions o;
        o.iterations = 3;
        o.repetitions = 1;
        o.warmup = 1;
        return o;
    }

    /** The paper's full procedure: k = 20, 5 reps, 2 warm-up runs. */
    static MeasureOptions
    paperFaithful()
    {
        MeasureOptions o;
        o.iterations = 20;
        o.repetitions = 5;
        o.warmup = 2;
        using namespace time_literals;
        o.max_skew = 10 * US;
        return o;
    }
};

/** One measured (machine, operation, m, p) point. */
struct Measurement
{
    std::string machine;
    machine::Coll op = machine::Coll::Barrier;
    machine::Algo algo = machine::Algo::Default;
    Bytes m = 0;
    int p = 0;

    Time max_time = 0;  //!< max over ranks, averaged over reps (paper's
                        //!< reported number)
    Time min_time = 0;  //!< min over ranks, averaged over reps
    Time mean_time = 0; //!< mean over ranks, averaged over reps

    /** Fault-layer activity over the whole run (all zero when the
     *  machine's FaultSpec is disabled; summed over members in
     *  ensemble mode). */
    std::uint64_t fault_drops = 0;       //!< messages lost in flight
    std::uint64_t fault_retransmits = 0; //!< retries issued
    std::uint64_t fault_delays = 0;      //!< messages delayed in flight

    /** What graceful recovery cost (zeros under fail_fast; summed
     *  over members in ensemble mode).  makespan_inflation compares
     *  against the memoized clean twin of the same point. */
    fault::DegradationReport degradation;

    /** Ensemble statistics (MeasureOptions::ensemble > 1 with faults
     *  enabled): members attempted, members that raised FaultError,
     *  and the p95 of the per-member makespans.  ensemble_runs == 0
     *  marks a plain single-run measurement. */
    int ensemble_runs = 0;
    int ensemble_failures = 0;
    Time p95_time = 0;

    /** Failed members / attempted members (0.0 for plain runs). */
    double
    failureFraction() const
    {
        return ensemble_runs > 0 ? static_cast<double>(ensemble_failures) /
                                       static_cast<double>(ensemble_runs)
                                 : 0.0;
    }

    /** Full observability snapshot of the run; empty() unless
     *  MeasureOptions::metrics (or cfg.collect_metrics) was set. */
    stats::MetricsSnapshot metrics;

    /** The headline number (the paper reports the maximum). */
    Time time() const { return max_time; }

    /** Convenience: time in microseconds. */
    double us() const { return toMicros(max_time); }
};

/** A rank program measured by the harness: one collective call. */
using CollectiveCall =
    std::function<sim::Task<void>(mpi::Comm &, Bytes)>;

/**
 * Issue a single size-only call of @p op on @p comm (@p root for the
 * rooted operations, ignored by the rest): the building block of the
 * Section 2 loop, a plain forward to Comm::call.
 */
sim::Task<void> runCollectiveOnce(mpi::Comm &comm, machine::Coll op,
                                  Bytes m,
                                  machine::Algo algo
                                  = machine::Algo::Auto,
                                  int root = 0);

/**
 * Run the Section 2 procedure for one collective on one machine.
 *
 * @param cfg   machine description (instantiated fresh)
 * @param p     number of nodes
 * @param op    which collective (root defaults to rank 0)
 * @param m     message length in bytes (per node pair)
 * @param algo  algorithm override.  The default, Algo::Auto, goes
 *              through the machine's selection table when one is
 *              attached and otherwise means Algo::Default — the
 *              machine's configured choice.  Auto is resolved to a
 *              concrete algorithm BEFORE the memo key is formed, so
 *              the returned Measurement (resolved algo included) is
 *              byte-identical to measuring that algorithm explicitly.
 * @param opt   procedure knobs
 */
Measurement measureCollective(const machine::MachineConfig &cfg, int p,
                              machine::Coll op, Bytes m,
                              machine::Algo algo = machine::Algo::Auto,
                              const MeasureOptions &opt = {});

/**
 * Startup latency T0(p): the collective messaging time of the
 * shortest message the machine accepts (the paper approximates T0 by
 * a zero-byte or short message; we use m = 4, one MPI_FLOAT... /4).
 */
Measurement measureStartup(const machine::MachineConfig &cfg, int p,
                           machine::Coll op,
                           machine::Algo algo = machine::Algo::Auto,
                           const MeasureOptions &opt = {});

/** Message length used for the startup-latency approximation. */
constexpr Bytes kStartupMessageBytes = 4;

/**
 * Version tag that leads every measurePointKey() string.  Bumped
 * whenever the key encoding or its field list changes, so keys from
 * an older build never alias new ones; the memo file (memoSave(),
 * `ccsim serve --cache-file`) records it and loads nothing on a
 * mismatch.
 */
inline constexpr char kPointKeyVersion[] = "v5";

/**
 * Canonical cache key of one measurement point — the memo-key
 * canonicalization of DESIGN.md §4.11, public so the `ccsim serve`
 * daemon looks its answers up in the memo (memoLookup()), coalesces
 * backfill jobs and keys fast-path fits on exactly the memo's bytes.
 * Algo::Auto is resolved through cfg.selection before the key is
 * formed, so an auto query shares its key (and cached result) with
 * the same point under the explicit algorithm.  The
 * machine part is every field a saved config document holds
 * (machine::forEachField), fault block included, except the name:
 * two identically parameterized machines are the same machine, and
 * two that differ only in fault state are not.  The skew seed and
 * metrics flags stay out, because keyed result caching is only
 * sound for points where those are off (measurePointCacheable()).
 */
std::string measurePointKey(const machine::MachineConfig &cfg, int p,
                            machine::Coll op, Bytes m,
                            machine::Algo algo = machine::Algo::Auto,
                            const MeasureOptions &opt = {});

/** True when a (cfg, opt) point is eligible for keyed result caching:
 *  memoization on, faults disabled, no skew, no metrics. */
bool measurePointCacheable(const machine::MachineConfig &cfg,
                           const MeasureOptions &opt);

/** The memo's answer for the point keyed @p key (its
 *  measurePointKey() under a concrete @p algo), or nullopt; never
 *  simulates.  measureCollective's own hit path: a hit refreshes the
 *  entry's recency, counts in memoStats() and is byte-identical to
 *  simulating the point. */
std::optional<Measurement> memoLookup(const std::string &key,
                                      const machine::MachineConfig &cfg,
                                      int p, machine::Coll op, Bytes m,
                                      machine::Algo algo);

/** Memo statistics: hits (answers the memo gave, to measureCollective
 *  or memoLookup()), misses (points simulated and stored), bypassed
 *  (ineligible points: faults, skew, metrics collection, or
 *  memoize = false) and evictions (entries dropped by the bound). */
using MemoStats = stats::CacheStats;

/** Process-wide memo statistics (monotonic; thread-safe). */
MemoStats memoStats();

/** Number of distinct points currently cached. */
std::size_t memoSize();

/** Drop every cached point and zero the statistics; the bound stays. */
void memoClear();

/** Cap the memo at @p max entries (0, the default, = unbounded): the
 *  least recently used are evicted, at once and on later inserts. */
void memoSetMaxEntries(std::size_t max);

/** The bound memoSetMaxEntries() set (0 = unbounded). */
std::size_t memoMaxEntries();

/** Write every entry to @p path, least recently used first, and
 *  return the count: a header `ccsim-query-cache v3
 *  key=<kPointKeyVersion> <n>`, then per entry its key and a
 *  `max|min|mean` line in picoseconds.  FatalError when unwritable. */
std::size_t memoSave(const std::string &path);

/** Insert a memoSave() file's entries in order, so a bound keeps the
 *  hottest, and return the count.  A missing file loads nothing, and
 *  so does one of another format or key version (with one warning):
 *  its keys could never hit.  A malformed file is a ConfigError
 *  naming the line. */
std::size_t memoLoad(const std::string &path);

/** The paper's standard sweeps. */
std::vector<int> paperMachineSizes(const std::string &machine_name);
std::vector<Bytes> paperMessageLengths();

/**
 * Aggregated message length f(m, p) of Section 3: m (p - 1) for the
 * one-to-many / many-to-one / reduction operations, m p (p - 1) for
 * total exchange, 0 for barrier.
 */
Bytes aggregatedLength(machine::Coll op, Bytes m, int p);

/**
 * Fit a model::MachineModel for @p cfg by sweeping the Section 2
 * procedure over the given machine sizes and message lengths for
 * every operation in @p ops, measuring algorithm @p algo, then
 * running the paper-style two-stage fit per operation.  Empty sweep
 * vectors use the paper's standard sweeps.  serve::FastPath fits
 * its per-(machine, op, algorithm) models through this too.
 */
model::MachineModel fitMachineModel(
    const machine::MachineConfig &cfg,
    const std::vector<machine::Coll> &ops = {},
    std::vector<int> sizes = {}, std::vector<Bytes> lengths = {},
    const MeasureOptions &opt = {},
    machine::Algo algo = machine::Algo::Default);

/**
 * Point-to-point ping-pong between two nodes of a machine: rank 0
 * sends m bytes to rank 1, which sends m bytes back; repeated
 * @p opt.iterations times after warm-up.  Returns the mean ONE-WAY
 * time (round trip / 2) in the Measurement's max_time.  The
 * distance between the two nodes is the topology's default for
 * adjacent ranks (0 and 1).
 */
Measurement measurePingPong(const machine::MachineConfig &cfg, Bytes m,
                            const MeasureOptions &opt = {});

} // namespace ccsim::harness

#endif // CCSIM_HARNESS_MEASURE_HH

/**
 * @file
 * Shared plumbing for the figure/table bench binaries: option
 * parsing (--quick trims sweeps for smoke runs, --csv DIR dumps
 * machine-readable series, --jobs N sizes the sweep worker pool),
 * the measurement options used by all benches, the SweepSession
 * declare-run-lookup wrapper around harness::SweepRunner, and
 * paper-vs-simulated formatting helpers.
 */

#ifndef CCSIM_BENCH_BENCH_COMMON_HH
#define CCSIM_BENCH_BENCH_COMMON_HH

#include <map>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "harness/measure.hh"
#include "harness/sweep.hh"
#include "machine/machine_config.hh"
#include "model/paper_data.hh"
#include "model/timing_expr.hh"
#include "tuning/selection_cli.hh"
#include "util/table.hh"
#include "util/units.hh"

namespace ccsim::bench {

/** Command-line options common to every bench binary (parsed with
 *  cli::Options, the same schema machinery the ccsim CLI uses). */
struct BenchOptions
{
    bool quick = false;      //!< trim sweeps (CI smoke mode)
    std::string csv_dir;     //!< dump CSV series here when non-empty
    int jobs = 0;            //!< sweep workers (0: hardware concurrency)
    bool metrics = false;    //!< collect MetricsSnapshots per point
    //! --algo: the per-call algorithm for benches that honour it
    //! (Auto resolves through the machine's selection table).
    machine::Algo algo = machine::Algo::Auto;
    std::string selection;   //!< --selection: table preset or file

    static BenchOptions parse(int argc, char **argv);

    /** Attach --selection to @p cfg (no-op when not given). */
    void applySelection(machine::MachineConfig &cfg) const;
};

/**
 * Declare-run-lookup front-end for harness::SweepRunner, shaped for
 * the way the bench binaries are written: a declaration pass mirrors
 * the printing loops and add()s every point, run() simulates them
 * all on the worker pool, then the printing pass get()s each result
 * by key.  Keys are (machine name + tag, p, op, m, algo); the tag
 * disambiguates ablation variants that share a machine name (e.g.\
 * contention on/off, eager-threshold settings).  add() dedups, so
 * overlapping panels cost one simulation.
 */
class SweepSession
{
  public:
    explicit SweepSession(const BenchOptions &opts,
                          harness::MeasureOptions mopt =
                              harness::MeasureOptions{});

    /** Declare one point (deduped by key). */
    void add(const machine::MachineConfig &cfg, int p, machine::Coll op,
             Bytes m, machine::Algo algo = machine::Algo::Auto,
             const std::string &tag = "");

    /** Declare the startup-latency point (short-message T0 proxy). */
    void addStartup(const machine::MachineConfig &cfg, int p,
                    machine::Coll op,
                    machine::Algo algo = machine::Algo::Auto,
                    const std::string &tag = "");

    /** Simulate all declared points on the worker pool. */
    void run();

    /** Look up a declared point's measurement (run() must be done). */
    const harness::Measurement &
    get(const machine::MachineConfig &cfg, int p, machine::Coll op,
        Bytes m, machine::Algo algo = machine::Algo::Auto,
        const std::string &tag = "") const;

    /** Startup-latency counterpart of get(). */
    const harness::Measurement &
    getStartup(const machine::MachineConfig &cfg, int p,
               machine::Coll op,
               machine::Algo algo = machine::Algo::Auto,
               const std::string &tag = "") const;

    /** Throughput of the last run() (points/sec, wall seconds). */
    const harness::SweepRunner::Stats &stats() const;

    /**
     * All declared points' MetricsSnapshots merged in declaration
     * order — deterministic at any --jobs level, because results are
     * collected in spec order regardless of worker schedule.  Empty
     * unless the session's MeasureOptions enabled metrics.
     */
    stats::MetricsSnapshot mergedMetrics() const;

  private:
    using Key = std::tuple<std::string, int, int, Bytes, int>;

    static Key key(const machine::MachineConfig &cfg, int p,
                   machine::Coll op, Bytes m, machine::Algo algo,
                   const std::string &tag);

    harness::SweepRunner runner_;
    harness::MeasureOptions mopt_;
    std::vector<harness::SweepPoint> points_;
    std::map<Key, std::size_t> index_;
    std::vector<harness::Measurement> results_;
    bool ran_ = false;
};

/** Machine sizes for a sweep (paper's 2..128, T3D capped at 64). */
std::vector<int> sweepSizes(const std::string &machine, bool quick);

/** Message lengths for a sweep (4 B .. 64 KB, powers of four). */
std::vector<Bytes> sweepLengths(bool quick);

/** "150.2" style microsecond cell. */
std::string usCell(double us);

/** Paper prediction cell, or "-" if Table 3 has no row. */
std::string paperUsCell(const std::string &machine, machine::Coll op,
                        Bytes m, int p);

/** Write a CSV file (header + rows) under opts.csv_dir if set. */
void maybeWriteCsv(const BenchOptions &opts, const std::string &name,
                   const std::vector<std::string> &header,
                   const std::vector<std::vector<std::string>> &rows);

/** Banner with the binary's purpose and the paper reference. */
void printBanner(const std::string &title, const std::string &what);

} // namespace ccsim::bench

#endif // CCSIM_BENCH_BENCH_COMMON_HH

/**
 * @file
 * FastPath — the daemon's tier-2 answer source: fitted closed-form
 * models T(m, p) = (a g1(p) + b) + (c g2(p) + d) m, calibrated from
 * a small simulated grid per (machine, op, algorithm) and evaluated
 * in nanoseconds thereafter.
 *
 * The first query of a (machine, op, algo) triple pays a calibration
 * sweep (a dozen small simulations; the points land in the memo, so
 * re-calibration is nearly free while they are within its
 * `--cache-max` bound).  All later queries of that triple evaluate
 * the cached model::TimingExpression directly.  Answers are flagged
 * `approx` on the wire and carry no error bound: Paragon scatter at
 * p = 16, m = 4096 answers 799.5 us against 367.8 us exact (2.17x),
 * inside the calibration grid.  The tolerance test in
 * tests/test_serve.cc checks three T3D points only; a measured bound
 * is ROADMAP item 2.
 *
 * Thread-safe: fits are built and looked up under one mutex; the fit
 * key is formed before taking it.  The calibration runs while holding
 * it, which serializes first-touch fits of distinct triples —
 * deliberate, because concurrent calibrations would contend for the
 * same cores the backfill pool uses, and every subsequent lookup is a
 * map probe.
 */

#ifndef CCSIM_SERVE_FASTPATH_HH
#define CCSIM_SERVE_FASTPATH_HH

#include <map>
#include <mutex>
#include <string>

#include "harness/measure.hh"
#include "model/fit.hh"
#include "stats/cache_stats.hh"

namespace ccsim::serve {

/** Per-(machine, op, algo) fitted-model store; see file comment. */
class FastPath
{
  public:
    /** Procedure knobs of the calibration sweep: the sweep preset
     *  (MeasureOptions::sweep()), small because the simulator is
     *  deterministic. */
    static harness::MeasureOptions calibrationOptions();

    /** Machine sizes / message lengths of the calibration grid. */
    static const std::vector<int> &calibrationSizes();
    static const std::vector<Bytes> &calibrationLengths();

    /**
     * Predicted time of one point in microseconds.  @p algo may be
     * Algo::Auto (resolved through cfg.selection for this (p, m)
     * before the fit is chosen, exactly as the exact tier resolves
     * it).  First use of a triple calibrates; ConfigError and friends
     * from the underlying simulation propagate.
     */
    double predictUs(const machine::MachineConfig &cfg,
                     machine::Coll op, machine::Algo algo, int p,
                     Bytes m);

    /** Fitted expression of one triple (calibrating on first use) —
     *  the API examples/latency_predictor.cc builds tables from. */
    model::TimingExpression
    expressionFor(const machine::MachineConfig &cfg, machine::Coll op,
                  machine::Algo algo);

    /** Number of calibrated (machine, op, algo) triples. */
    std::size_t fits() const;

    /** hits = evaluated an existing fit, misses = calibrated. */
    stats::CacheStats stats() const;

  private:
    /** The fit keyed @p key (built by the caller, outside mu_) of
     *  the concrete algorithm @p concrete; calibrates on a miss. */
    const model::TimingExpression &
    fitForLocked(const machine::MachineConfig &cfg, machine::Coll op,
                 machine::Algo concrete, const std::string &key);

    mutable std::mutex mu_;
    std::map<std::string, model::TimingExpression> fits_;
    stats::CacheStats stats_;
};

} // namespace ccsim::serve

#endif // CCSIM_SERVE_FASTPATH_HH

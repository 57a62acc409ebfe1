/**
 * @file
 * A streaming statistics helper used by the measurement harness:
 * min / max / mean / standard deviation without storing samples.
 */

#ifndef CCSIM_UTIL_STATS_HH
#define CCSIM_UTIL_STATS_HH

#include <cstddef>

namespace ccsim {

/**
 * Welford-style streaming accumulator.  Numerically stable mean and
 * variance without storing samples.
 */
class RunningStats
{
  public:
    /** Fold one sample into the accumulator. */
    void add(double x);

    /** Number of samples seen. */
    std::size_t count() const { return n_; }

    /** Smallest sample (0 if empty). */
    double min() const;

    /** Largest sample (0 if empty). */
    double max() const;

    /** Arithmetic mean (0 if empty). */
    double mean() const;

    /** Population variance (0 if fewer than 2 samples). */
    double variance() const;

    /** Population standard deviation. */
    double stddev() const;

    /** Sum of all samples. */
    double sum() const { return mean() * static_cast<double>(n_); }

    /** Reset to the empty state. */
    void reset();

  private:
    std::size_t n_ = 0;
    double mean_ = 0.0;
    double m2_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
};

} // namespace ccsim

#endif // CCSIM_UTIL_STATS_HH

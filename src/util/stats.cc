#include "util/stats.hh"

#include <algorithm>
#include <cmath>

namespace ccsim {

void
RunningStats::add(double x)
{
    if (n_ == 0) {
        min_ = max_ = x;
    } else {
        min_ = std::min(min_, x);
        max_ = std::max(max_, x);
    }
    ++n_;
    double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
}

double
RunningStats::min() const
{
    return n_ ? min_ : 0.0;
}

double
RunningStats::max() const
{
    return n_ ? max_ : 0.0;
}

double
RunningStats::mean() const
{
    return n_ ? mean_ : 0.0;
}

double
RunningStats::variance() const
{
    if (n_ < 2)
        return 0.0;
    return m2_ / static_cast<double>(n_);
}

double
RunningStats::stddev() const
{
    return std::sqrt(variance());
}

void
RunningStats::reset()
{
    *this = RunningStats();
}

} // namespace ccsim

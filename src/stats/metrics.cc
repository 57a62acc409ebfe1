#include "stats/metrics.hh"

#include <cmath>

namespace ccsim::stats {

namespace {

/** Bucket for @p v: 0 for v <= 1, else 1 + floor(log2(v)), clamped. */
int
bucketFor(double v)
{
    if (!(v > 1.0))
        return 0;
    int exp = 0;
    double frac = std::frexp(v, &exp); // v = frac * 2^exp, frac in [0.5, 1)
    // frexp puts an exact power of two at frac == 0.5; 2^k belongs in
    // bucket k (upper bounds are inclusive), every other value in the
    // same octave in bucket k + 1.
    int b = (frac == 0.5) ? exp - 1 : exp;
    if (b >= Histogram::kBuckets)
        b = Histogram::kBuckets - 1;
    return b;
}

} // namespace

void
Histogram::add(double value, double weight)
{
    buckets_[bucketFor(value)] += weight;
    if (count_ == 0) {
        min_ = value;
        max_ = value;
    } else {
        if (value < min_)
            min_ = value;
        if (value > max_)
            max_ = value;
    }
    ++count_;
    total_weight_ += weight;
    weighted_sum_ += value * weight;
}

double
Histogram::mean() const
{
    return total_weight_ > 0.0 ? weighted_sum_ / total_weight_ : 0.0;
}

double
Histogram::bucketWeight(int i) const
{
    return (i >= 0 && i < kBuckets) ? buckets_[i] : 0.0;
}

double
Histogram::bucketUpperBound(int i)
{
    return std::ldexp(1.0, i < 0 ? 0 : i);
}

void
Histogram::merge(const Histogram &other)
{
    if (other.count_ == 0)
        return;
    for (int i = 0; i < kBuckets; ++i)
        buckets_[i] += other.buckets_[i];
    if (count_ == 0) {
        min_ = other.min_;
        max_ = other.max_;
    } else {
        if (other.min_ < min_)
            min_ = other.min_;
        if (other.max_ > max_)
            max_ = other.max_;
    }
    count_ += other.count_;
    total_weight_ += other.total_weight_;
    weighted_sum_ += other.weighted_sum_;
}

void
Histogram::reset()
{
    *this = Histogram();
}

void
TransportMetrics::reset()
{
    eager_sends.reset();
    rdv_sends.reset();
    self_sends.reset();
    recvs.reset();
    blt_sends.reset();
    unexpected_hw.reset();
    pending_rts_hw.reset();
    pending_recv_hw.reset();
    inject_backlog_us.reset();
    msg_bytes.reset();
}

void
CollOpMetrics::reset()
{
    calls.reset();
    stages.reset();
    msgs.reset();
    time_us.reset();
}

void
LinkMetrics::reset()
{
    bytes.clear();
    stall.clear();
    total_stall = 0;
    stalled_transfers = 0;
}

} // namespace ccsim::stats

/**
 * @file
 * The metrics layer: counters, high-water gauges, and weighted
 * log2-bucketed histograms, grouped per subsystem into the plain
 * structs the probe (stats/probe.hh) updates in place.
 *
 * Design rules (docs/METRICS.md states the guarantees):
 *
 *  - ZERO COST WHEN DISABLED: the groups live inside the machine's
 *    probe, which exists only when something listens; each hot-path
 *    site is one `if (probe_)` test of a null pointer.
 *  - OBSERVATION ONLY: no metric update ever charges simulated time
 *    or perturbs event order, so simulated results are byte-identical
 *    with metrics on or off.
 *  - DETERMINISTIC: all metrics live inside one Machine and are
 *    consumed by the single-threaded simulator in event order, so a
 *    snapshot is identical at any sweep --jobs level.
 *
 * The primitives are deliberately plain structs updated by direct
 * field access (no name lookup on the hot path); names are attached
 * only when a MetricsSnapshot is assembled (see stats/snapshot.hh).
 */

#ifndef CCSIM_STATS_METRICS_HH
#define CCSIM_STATS_METRICS_HH

#include <cstdint>

#include "util/lazy_array.hh"
#include "util/units.hh"

namespace ccsim::stats {

/** Monotonic event count. */
class Counter
{
  public:
    void add(std::uint64_t n = 1) { v_ += n; }
    std::uint64_t value() const { return v_; }
    void reset() { v_ = 0; }

  private:
    std::uint64_t v_ = 0;
};

/** High-water-mark gauge: remembers the largest observed value. */
class Gauge
{
  public:
    void
    observe(double x)
    {
        if (!seen_ || x > v_) {
            v_ = x;
            seen_ = true;
        }
    }

    double value() const { return seen_ ? v_ : 0.0; }
    bool seen() const { return seen_; }

    void
    reset()
    {
        v_ = 0.0;
        seen_ = false;
    }

  private:
    double v_ = 0.0;
    bool seen_ = false;
};

/**
 * Weighted histogram over power-of-two buckets.
 *
 * Bucket 0 holds values <= 1 (including zero and negatives); bucket
 * i >= 1 holds values in (2^(i-1), 2^i].  Each observation carries a
 * weight, which makes the histogram time-weighted when callers pass
 * a dwell or busy time as the weight (e.g.\ "link utilization
 * weighted by busy time").  An unweighted distribution is the
 * weight = 1 special case.
 *
 * merge() is exact: merging two histograms equals adding all their
 * observations to one (the property the sweep layer's deterministic
 * cross-worker merge relies on; test_metrics asserts it).
 */
class Histogram
{
  public:
    static constexpr int kBuckets = 64;

    void add(double value, double weight = 1.0);

    std::uint64_t count() const { return count_; }
    double totalWeight() const { return total_weight_; }
    double weightedSum() const { return weighted_sum_; }
    double min() const { return count_ ? min_ : 0.0; }
    double max() const { return count_ ? max_ : 0.0; }

    /** Weighted mean of observed values (0 when empty). */
    double mean() const;

    /** Weight in bucket @p i (see class comment for the ranges). */
    double bucketWeight(int i) const;

    /** Inclusive upper bound of bucket @p i (2^i; bucket 0 -> 1). */
    static double bucketUpperBound(int i);

    /** Fold @p other in; exact (see class comment). */
    void merge(const Histogram &other);

    void reset();

  private:
    double buckets_[kBuckets] = {};
    std::uint64_t count_ = 0;
    double total_weight_ = 0.0;
    double weighted_sum_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
};

/**
 * What the messaging layer records: protocol mix, wire payload
 * distribution, and the queue depths the paper's NIC/software story
 * turns on (a gather root's unexpected-message queue, the RTS queue
 * under rendezvous, the injection DMA backlog).  One instance is
 * shared by every Transport of a machine; the simulator is
 * single-threaded, so high-water marks are true machine-wide maxima.
 */
struct TransportMetrics
{
    Counter eager_sends;  //!< payloads that went eager
    Counter rdv_sends;    //!< payloads that went rendezvous
    Counter self_sends;   //!< local (same-node) deliveries
    Counter recvs;        //!< receives completed
    Counter blt_sends;    //!< rendezvous payloads moved by the BLT

    Gauge unexpected_hw;   //!< unexpected-message queue high water
    Gauge pending_rts_hw;  //!< parked-RTS queue high water
    Gauge pending_recv_hw; //!< parked-receive queue high water
    Gauge inject_backlog_us; //!< injection (DMA/coprocessor) backlog

    Histogram msg_bytes; //!< wire payload sizes, weight 1 per message

    void reset();
};

/**
 * Per-collective-operation activity recorded by the mpi layer: call
 * and algorithm-stage counts, messages issued from inside the
 * operation, and the distribution of per-call completion times.
 * The machine probe keeps one per machine::Coll.
 */
struct CollOpMetrics
{
    Counter calls;  //!< completed invocations (any rank)
    Counter stages; //!< algorithm stages entered (CollCtx::stage)
    Counter msgs;   //!< sends/sendrecvs issued inside the op
    Histogram time_us; //!< per-rank call duration, microseconds

    void reset();
};

/** One link's traffic, side by side so a hop updates one record. */
struct LinkLoad
{
    Bytes bytes = 0; //!< payload bytes carried
    Time busy = 0;   //!< wire serialisation time
};

/**
 * What the network records: per link, the payload bytes it carried
 * and the time it spent serialising them; per transfer, its hops and
 * payload; and the grant stall of every transfer that waited, charged
 * to the link whose occupancy set its start — "who is the
 * bottleneck", the paper's contention question.  Lazily paged, so the
 * tables cost O(links touched) even on million-link fabrics.
 */
struct LinkMetrics
{
    LazyArray<LinkLoad> load; //!< bytes and busy time per link
    LazyArray<Time> stall;    //!< wait time charged to each link
    std::uint64_t transfers = 0; //!< transfers (one route walk each)
    std::uint64_t hops = 0;      //!< links crossed, over all transfers
    Bytes payload_bytes = 0;     //!< payload, over all transfers
    Time total_stall = 0;        //!< sum of per-transfer waits
    std::uint64_t stalled_transfers = 0; //!< transfers that waited

    void reset();
};

} // namespace ccsim::stats

#endif // CCSIM_STATS_METRICS_HH

/**
 * @file
 * Shared plumbing of ccsim_perf: the run configuration, the result
 * record every workload fills, the in-memory span tracer, the
 * Section 2 point runner that walks the public layers one call at a
 * time, and small statistics / digest / memory helpers.
 *
 * The benchmark measures the simulator from outside: every span
 * wraps a call into a public function (Machine's constructor,
 * spawnAll, run, metricsSnapshot, Server::handleLine, ...).  Nothing
 * here reaches into src/ internals.
 */

#ifndef CCSIM_BENCH_PERF_COMMON_HH
#define CCSIM_BENCH_PERF_COMMON_HH

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "harness/measure.hh"
#include "machine/machine_config.hh"
#include "stats/snapshot.hh"
#include "util/random.hh"
#include "util/units.hh"

namespace ccsim::perf {

/** Monotonic host clock, nanoseconds. */
std::int64_t nowNs();

/** Seconds elapsed since @p start_ns. */
double secondsSince(std::int64_t start_ns);

/**
 * The host's current slowdown, measured with a reference kernel.
 *
 * A shared host runs the simulator up to 1.5x slower for seconds to
 * minutes at a time, as other guests load the cores it shares.  The
 * phases are longer than a run, so medians inside a run cannot remove
 * them.  The reference kernel is a fixed scalar ALU loop in this file:
 * only the host changes how long it takes, never the simulator.
 * Probing the benchmark host showed it slowing with simulator code
 * through every phase; the ratio of the two repeated within about 1 %
 * where the raw times spread by 15 %.  Every timing metric is
 * therefore a measured time divided by the slowdown the kernel showed
 * at that moment: the time the host would take at its idle speed.
 * bench.host_slowdown reports the median slowdown, so raw time is
 * about metric x host_slowdown.
 *
 * This class samples on the caller's thread, between the operations
 * it times: for a thread that computes without blocking.
 */
class HostSpeed
{
  public:
    /** Sample the kernel when kPeriodNs has passed since the last
     *  sample; call between timed operations, never inside one. */
    void poll();

    /** Median of the last few samples over the idle-host time (1 on an
     *  idle host); samples first when there is none. */
    double slowdown();

    /** Median of every sample over the idle-host time. */
    double overall() const;

  private:
    static constexpr std::int64_t kPeriodNs = 20000000;
    static constexpr std::size_t kRecent = 5;
    std::vector<double> samples_; //!< kernel time / idle-host time
    std::int64_t last_ = 0;
};

/** The host's slowdown where the caller runs, over a few kernel runs
 *  in a row. */
double slowdownHere();

/**
 * HostSpeed for a CPU whose threads block, as a daemon's do: a thread
 * pinned there at idle priority runs the kernel back to back whenever
 * the CPU has nothing else to run, from construction to destruction.
 *
 * Keeping the CPU busy matters as much as the samples.  A virtual CPU
 * with nothing to run halts, and the host takes a varying time to
 * resume it and bring it back to speed: with its CPUs left idle
 * between queries, serve_zipf's latency measured the host's
 * scheduling (run-to-run spread 0.2) more than the daemon (0.04 with
 * the sampler).
 */
class IdleSampler
{
  public:
    explicit IdleSampler(int cpu);
    ~IdleSampler();
    IdleSampler(const IdleSampler &) = delete;
    IdleSampler &operator=(const IdleSampler &) = delete;

    /** Sleep kGapNs, so the sampler has the CPU if the caller's work
     *  does not leave it idle, and return the time.  A timed interval
     *  lies between two marks. */
    std::int64_t mark() const;

    /** Mean slowdown of the samples taken from kGapNs before @p from
     *  to @p to (1 when there is none). */
    double slowdown(std::int64_t from, std::int64_t to) const;

    /** Median slowdown of every sample so far. */
    double overall() const;

  private:
    static constexpr std::int64_t kGapNs = 10000000;
    mutable std::mutex mu_;
    std::vector<std::pair<std::int64_t, double>> samples_; //!< end, slowdown
    std::atomic<bool> stop_{false};
    std::thread thread_; //!< last: starts once the rest exists
};

/** Pin the calling thread to @p cpu; no-op with fewer than 3 CPUs. */
void pinSelf(int cpu);

/** What one invocation asks for (the ccsim_perf flags). */
struct RunConfig
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 20.0;  //!< timed budget (run_seconds)
    bool trace = false;     //!< add the traced (per-layer) pass
    bool quick = false;     //!< smoke mode: tiny inputs, no timing claims
    bool bless = false;     //!< write the expected digest instead of
                            //!< checking it
    std::string out_dir = "bench/perf/out";
    std::string commit = "unknown";
};

/** One reported number. */
struct Metric
{
    double value = 0.0;
    std::string unit;
};

/** Everything one run reports; see README.md for the schema. */
struct Result
{
    std::map<std::string, Metric> metrics;
    std::vector<std::pair<std::string, double>> phases; //!< wall s
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> failures; //!< first few, for the log
    std::string digest;        //!< hex digest of simulated outputs
    std::string digest_status = "none";

    void set(const std::string &name, double value, const char *unit);
    void phase(const std::string &name, double wall_s);

    /** Count one failed operation and remember why. */
    void fail(const std::string &why);

    /** attempted += 1; fail(why) unless @p ok. */
    void check(bool ok, const std::string &why);
};

/**
 * In-memory span recorder for the --trace pass.  Spans carry a name
 * ("<layer>.<call>"), start and end, the enclosing span, and the id
 * of the operation they belong to.  Single-threaded: each workload
 * records from one thread only.
 */
class Tracer
{
  public:
    struct Span
    {
        std::string name;
        std::int64_t start = 0;
        std::int64_t end = 0;
        std::int32_t parent = -1; //!< index into spans(), -1 = root
        std::uint64_t op = 0;
    };

    /** Totals of one span name. */
    struct Layer
    {
        std::uint64_t count = 0;
        double busy_ns = 0; //!< sum of span durations
        double self_ns = 0; //!< busy minus time covered by children
    };

    /** Closes its span when destroyed. */
    class Scope
    {
      public:
        Scope(Tracer *t, const char *name, std::uint64_t op);
        ~Scope();
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Tracer *t_;
        std::int32_t idx_ = -1;
    };

    std::int32_t begin(const std::string &name, std::uint64_t op);
    void end(std::int32_t idx);

    /** Append a finished span recorded elsewhere (a forked child);
     *  @p parent_offset shifts its parent index into this tracer. */
    void adopt(Span s, std::int32_t parent_offset);

    const std::deque<Span> &spans() const { return spans_; }
    std::map<std::string, Layer> layers() const;

    /** The @p q quantile, over @p name spans, of the share of a span's
     *  duration its child spans cover (0 when there is none).  A low
     *  quantile rather than the minimum: one interrupt between two
     *  child spans of a 10 us point leaves a quarter of it uncovered. */
    double coverage(const std::string &name, double q) const;

    /** Chrome-trace JSON ("X" events, microseconds). */
    void writeChrome(const std::string &path) const;

  private:
    // A deque: appending never moves recorded spans, so a long trace
    // adds no reallocation pauses inside the spans it measures.
    std::deque<Span> spans_;
    std::vector<std::int32_t> open_;
};

/** Nearest-rank quantile of @p v (q in [0, 1]); 0 for empty. */
double quantile(std::vector<double> v, double q);

/** Median of @p v, the mean of the middle two for an even count; 0
 *  for empty. */
double median(std::vector<double> v);

/** FNV-1a over canonical text; order-sensitive. */
class Digest
{
  public:
    void add(const std::string &s);
    std::string hex() const;

  private:
    std::uint64_t h_ = 1469598103934665603ULL;
};

/** Current resident set, kB (/proc/self/statm). */
long currentRssKb();

/** Peak resident set of this process, kB (getrusage). */
long peakRssKb();

/** Zipf(s) sampler over ranks 0..n-1 (rank 0 most popular). */
class Zipf
{
  public:
    Zipf(std::size_t n, double s);
    std::size_t operator()(Rng &rng) const;

  private:
    std::vector<double> cdf_;
};

/** A derived seed for stream @p salt of the run (splitmix-style). */
std::uint64_t subSeed(std::uint64_t seed, std::uint64_t salt);

/** Fisher-Yates shuffle driven by @p rng. */
template <typename T>
void
shuffle(std::vector<T> &v, Rng &rng)
{
    for (std::size_t i = v.size(); i > 1; --i)
        std::swap(v[i - 1], v[rng.nextBounded(i)]);
}

/** The measurement knobs of every figure bench (k = 3, one rep). */
harness::MeasureOptions benchOptions();

/** Outcome of drivePoint(). */
struct PointRun
{
    Time max_time = 0;
    std::uint64_t events = 0;
    stats::MetricsSnapshot metrics; //!< empty unless metrics were on
};

/**
 * The Section 2 procedure of harness::measureCollective (no clock
 * skew, no faults), driven through the public layers one call at a
 * time: the Machine constructor, spawnAll of the loop over
 * runCollectiveOnce, Machine::run, metricsSnapshot, and teardown.
 * With @p tr set, each call is a child span of one "harness.point"
 * span.  max_time equals measureCollective's for the same point;
 * the workloads check that.
 */
PointRun drivePoint(const machine::MachineConfig &cfg, int p,
                    machine::Coll op, Bytes m,
                    const harness::MeasureOptions &opt, bool metrics,
                    Tracer *tr = nullptr, std::uint64_t op_id = 0);

/**
 * Per-layer counters folded over many runs' MetricsSnapshots:
 * counters add, high-water gauges and link utilisation take the max.
 */
class LayerCounters
{
  public:
    void add(const stats::MetricsSnapshot &s);

    /** Set the msg.*, net.*, mpi.*, sim.* and fault.* metrics. */
    void report(Result &r) const;

  private:
    std::uint64_t counter(const std::string &name) const;

    std::map<std::string, std::uint64_t> counters_;
    double unexpected_hw_ = 0;
    double queue_depth_hw_ = 0;
    double max_link_util_ = 0;
    double stall_us_ = 0;
};

/** Report mean duration (ns) of span @p span as metric @p metric. */
void reportSpanMean(Result &r, const std::map<std::string,
                    Tracer::Layer> &layers, const std::string &span,
                    const std::string &metric);

/**
 * Compare r.digest with expected/<workload>.<seed>.digest (falling
 * back to seed 1's file when @p seed_independent), or write it with
 * --bless.  A mismatch counts as a failure.
 */
void checkDigest(const RunConfig &cfg, Result &r, bool seed_independent);

/** Workload entry points. */
void runPaperSweep(const RunConfig &cfg, Result &r, Tracer *tr);
void runScaleOut(const RunConfig &cfg, Result &r, Tracer *tr);
void runServeZipf(const RunConfig &cfg, Result &r, Tracer *tr);
void runReplayFaults(const RunConfig &cfg, Result &r, Tracer *tr);

} // namespace ccsim::perf

#endif // CCSIM_BENCH_PERF_COMMON_HH

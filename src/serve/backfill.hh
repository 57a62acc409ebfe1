/**
 * @file
 * BackfillQueue — the daemon's tier-3 engine: exact simulation of
 * cache misses, batched onto the existing harness::SweepRunner worker
 * pool.
 *
 * Connection threads trySubmit() fully-resolved points and get a
 * ticket, or prefetch() them without one.
 * A single collector thread gathers whatever is pending, runs the
 * batch through SweepRunner::runTasks (so `--jobs K` bounds simulation
 * parallelism exactly like `ccsim sweep --jobs K` does, independent of
 * how many clients are connected), and publishes per-ticket outcomes.
 * measureCollective stores every eligible point it simulates in the
 * harness memo, the daemon's answer tier, so a finished job needs no
 * store of its own.  Clients either wait() (blocking delivery) or
 * poll() later (ticket delivery).
 *
 * Submissions of a key already pending or in flight coalesce onto the
 * existing job — ten clients asking for the same uncached point cost
 * one simulation.
 *
 * A point that throws (bad config reaching the simulator, a panic)
 * fails only its own tickets — the batch's other points complete
 * normally, and the stored (component, message, exit_code) triple
 * lets the server answer with the same typed error a direct `ccsim
 * measure` would exit with.
 *
 * stop() drains: no new jobs are accepted, every already accepted
 * point still simulates, then the collector exits — the SIGINT
 * contract of `ccsim serve`.
 *
 * Overload hardening (DESIGN.md §4.14): setMaxPending(n) bounds the
 * number of jobs waiting for the collector.  trySubmit() refuses
 * (sheds) instead of growing the queue past the bound — the server
 * answers such requests from the approximate fast path with a `shed`
 * flag on the wire — while coalescing submissions are always accepted
 * (they add a ticket, not a job).  waitFor() bounds how long a
 * blocking client waits: on timeout the ticket is abandoned, and the
 * eventual result is dropped at publish time instead of accumulating
 * in the results map forever.
 */

#ifndef CCSIM_SERVE_BACKFILL_HH
#define CCSIM_SERVE_BACKFILL_HH

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "harness/sweep.hh"
#include "machine/machine_config.hh"

namespace ccsim::serve {

/** One fully-resolved simulation point awaiting backfill. */
struct BackfillJob
{
    machine::ConfigHandle cfg;   //!< shared immutable machine
    int p = 2;
    machine::Coll op = machine::Coll::Barrier;
    Bytes m = 0;
    machine::Algo algo = machine::Algo::Default; //!< concrete
    harness::MeasureOptions options;
    std::string key; //!< measurePointKey (coalescing identity)
};

/** Outcome of one ticket. */
struct BackfillResult
{
    bool done = false;   //!< simulation finished (ok or failed)
    bool failed = false; //!< the point threw
    harness::Measurement meas; //!< valid when done and not failed

    // valid when failed: the thrown ccsim::Error, reconstructible
    std::string component;
    std::string message;
    int exit_code = 0;
};

/** Ticketed batch backfill onto a SweepRunner pool; file comment. */
class BackfillQueue
{
  public:
    /** @p jobs as SweepRunner takes it (0 = hardware concurrency,
     *  1 = inline serial reference). */
    explicit BackfillQueue(int jobs);

    /** stop()s (draining) if still running. */
    ~BackfillQueue();

    BackfillQueue(const BackfillQueue &) = delete;
    BackfillQueue &operator=(const BackfillQueue &) = delete;

    /**
     * Enqueue @p job and set @p ticket.  Jobs with a key already
     * pending or in flight coalesce (one simulation, many tickets),
     * and a coalescing submission never grows the queue, so it is
     * always accepted.  Otherwise, when the queue is draining or
     * already holds maxPending() uncollected jobs, refuse: return
     * false, bump the shed counter, and leave @p ticket untouched.
     * With no bound set, only a draining queue refuses.  The server's
     * load-shedding entry point: a false return means "answer from
     * the fast path, flag shed".
     */
    bool trySubmit(const BackfillJob &job, std::uint64_t &ticket);

    /**
     * Fire-and-forget submit: no ticket, the only observable outcome
     * is the memo entry.  The auto tier's "answer fast now,
     * upgrade the cache in the background" path.  Quietly a no-op
     * while stopping (opportunistic work races shutdown by design)
     * or when the key is already live.
     */
    void prefetch(const BackfillJob &job);

    /** Block until @p ticket completes; consumes the ticket. */
    BackfillResult wait(std::uint64_t ticket);

    /**
     * wait() with a deadline: the result if it lands within
     * @p timeout_ms, else nullopt — and the ticket is ABANDONED: its
     * simulation still runs (and still feeds the memo), but the
     * per-ticket result is discarded at publish time rather than
     * retained for a waiter that gave up.  timeout_ms <= 0 blocks
     * like wait().
     */
    std::optional<BackfillResult> waitFor(std::uint64_t ticket,
                                          int timeout_ms);

    /**
     * Non-blocking: done (consuming the ticket), or done = false for
     * a ticket still pending/in flight.  FatalError("serve") for a
     * ticket never issued or already consumed.
     */
    BackfillResult poll(std::uint64_t ticket);

    /** Points waiting for the collector (not yet simulating). */
    std::size_t queueDepth() const;

    /** Cap the uncollected-job count (0 = unbounded) that
     *  trySubmit() and prefetch() respect. */
    void setMaxPending(std::size_t max);

    std::size_t maxPending() const;

    /** Monotonic totals for /metrics. */
    std::uint64_t submitted() const;  //!< tickets issued
    std::uint64_t coalesced() const;  //!< tickets that joined a job
    std::uint64_t completed() const;  //!< points simulated ok
    std::uint64_t failed() const;     //!< points that threw
    std::uint64_t batches() const;    //!< collector batches run
    std::uint64_t shed() const;       //!< trySubmits refused at bound

    /** Resolved worker-pool width. */
    int jobs() const;

    /** Block until everything submitted so far has completed. */
    void drain();

    /** Refuse new work, drain, and join the collector.  Idempotent. */
    void stop();

  private:
    struct Job
    {
        BackfillJob spec;
        std::vector<std::uint64_t> tickets;
    };

    void collectorLoop();
    void runBatch(std::vector<std::shared_ptr<Job>> batch);

    harness::SweepRunner runner_;

    mutable std::mutex mu_;
    std::condition_variable work_cv_;   //!< collector wake-up
    std::condition_variable done_cv_;   //!< waiters / drainers
    std::deque<std::shared_ptr<Job>> pending_;
    std::unordered_map<std::string, std::shared_ptr<Job>> live_keys_;
    std::unordered_set<std::uint64_t> open_tickets_;
    std::unordered_set<std::uint64_t> abandoned_; //!< waitFor timeouts
    std::map<std::uint64_t, BackfillResult> results_;
    std::uint64_t next_ticket_ = 1;
    std::size_t inflight_ = 0; //!< points in the running batch
    std::size_t max_pending_ = 0; //!< 0 = unbounded
    bool stopping_ = false;

    std::uint64_t submitted_ = 0;
    std::uint64_t coalesced_ = 0;
    std::uint64_t completed_ = 0;
    std::uint64_t failed_ = 0;
    std::uint64_t batches_ = 0;
    std::uint64_t shed_ = 0;

    std::thread collector_;
};

} // namespace ccsim::serve

#endif // CCSIM_SERVE_BACKFILL_HH

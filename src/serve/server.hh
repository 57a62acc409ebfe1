/**
 * @file
 * Server — the `ccsim serve` daemon: a line-oriented TCP front end
 * over the three-tier answering brain.
 *
 * Tiers, in the order a predict request tries them (docs/SERVE.md):
 *
 *  1. Cache — the harness memo (harness::memoLookup), the process's
 *     one store of simulated points, keyed on measurePointKey, so
 *     hits are byte-identical to fresh simulation.  The constructor
 *     sets its process-wide bound from cache_max; start() and stop()
 *     load and save cache_file.
 *  2. FastPath — fitted closed-form T(m, p) per (machine, op, algo),
 *     microseconds in microseconds out, flagged `approx`.
 *  3. BackfillQueue — exact simulation batched onto a SweepRunner
 *     pool (`--jobs` bounds simulation parallelism, NOT client
 *     concurrency), delivered blocking or by ticket.
 *
 * tier=auto answers a miss from the fast path immediately AND
 * backfills the exact result in the background, so the same query
 * later upgrades to a cache hit.
 *
 * Concurrency model: one accept loop plus one thread per connection
 * (clients are interactive and few; simulation work is delegated to
 * the backfill pool, so client threads stay cheap).  Every Algo::Auto
 * is resolved through the machine's selection table BEFORE the cache
 * key is formed — an auto query and its explicit-algorithm twin share
 * one cache entry.
 *
 * handleLine() — request line in, response line out — is the entire
 * protocol brain, public so tests drive it without sockets.
 */

#ifndef CCSIM_SERVE_SERVER_HH
#define CCSIM_SERVE_SERVER_HH

#include <atomic>
#include <chrono>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "serve/backfill.hh"
#include "serve/fastpath.hh"
#include "serve/protocol.hh"
#include "stats/snapshot.hh"

namespace ccsim::serve {

/** Daemon knobs (the `ccsim serve` flags). */
struct ServerOptions
{
    int port = 0;          //!< 0: kernel-assigned ephemeral port
    int jobs = 1;          //!< backfill SweepRunner width (0 = cores)
    std::string port_file; //!< write the bound port here (scripts);
                           //!< removed again on a clean stop()
    bool verbose = false;  //!< log one line per request to stderr

    // Hardening knobs (DESIGN.md §4.14).
    std::size_t cache_max = 65536; //!< memo bound (0 = none)
    std::string cache_file; //!< load at start(), save at stop()
    int deadline_ms = 0;    //!< default blocking-exact deadline
                            //!< (0 = wait forever); per-request
                            //!< deadline_ms overrides
    std::size_t backfill_max = 1024; //!< queue bound; full = shed
                                     //!< to the fast tier (0 = none)
};

/** The prediction daemon; see file comment. */
class Server
{
  public:
    explicit Server(ServerOptions opts = {});

    /** stop()s if still running. */
    ~Server();

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /** Bind 127.0.0.1, listen, spawn the accept loop.
     *  FatalError("serve") when the port is taken or sockets fail. */
    void start();

    /** The bound port (valid after start()). */
    int port() const { return port_; }

    /** True once a client sent `shutdown` (the CLI's cue to stop()). */
    bool shutdownRequested() const { return shutdown_requested_; }

    /** Stop accepting, close connections, drain the backfill queue,
     *  join every thread.  Idempotent; safe without start(). */
    void stop();

    /**
     * The protocol brain: one request line in, one JSON response line
     * out (no trailing newline).  Never throws — malformed requests
     * and simulation failures become {"status":"error",...} lines.
     */
    std::string handleLine(const std::string &line);

    /** The daemon's observability snapshot: per-tier hit counters,
     *  QPS, backfill queue stats, request-latency histogram with
     *  p50/p99 gauges. */
    stats::MetricsSnapshot metricsSnapshot() const;

    // Direct tier access for tests and the example.
    FastPath &fastPath() { return fastpath_; }
    BackfillQueue &backfill() { return backfill_; }

  private:
    machine::ConfigHandle resolveConfig(const Request &req);
    std::string handlePredict(const Request &req);
    std::string handlePoll(const Request &req);
    Answer fastAnswer(const machine::MachineConfig &cfg,
                      const Request &req, machine::Algo algo);

    void acceptLoop();
    void connectionLoop(int fd);

    ServerOptions opts_;
    FastPath fastpath_;
    BackfillQueue backfill_;

    // resolved (config source, selection) -> immutable shared config
    std::mutex cfg_mu_;
    std::map<std::string, machine::ConfigHandle> cfg_cache_;

    // request metrics
    mutable std::mutex metrics_mu_;
    std::uint64_t requests_ = 0;
    std::uint64_t predicts_ = 0;
    std::uint64_t polls_ = 0;
    std::uint64_t errors_ = 0;
    std::uint64_t tier_cache_ = 0; //!< also the cache hits
    std::uint64_t cache_misses_ = 0;
    std::uint64_t cache_bypassed_ = 0;
    std::uint64_t tier_fast_ = 0;
    std::uint64_t tier_exact_ = 0;
    std::uint64_t pending_issued_ = 0;
    std::uint64_t deadline_missed_ = 0;
    std::uint64_t connections_ = 0;
    double connections_hw_ = 0;
    stats::Histogram request_us_;
    std::chrono::steady_clock::time_point started_at_ =
        std::chrono::steady_clock::now();

    // sockets and threads
    int listen_fd_ = -1;
    int port_ = 0;
    bool started_ = false; //!< start() ran (gates cache_file save)
    std::atomic<bool> stop_{false};
    std::atomic<bool> shutdown_requested_{false};
    std::atomic<int> open_connections_{0};
    std::thread accept_thread_;
    std::mutex conn_mu_;
    std::vector<std::thread> conn_threads_;
};

} // namespace ccsim::serve

#endif // CCSIM_SERVE_SERVER_HH

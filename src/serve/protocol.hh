/**
 * @file
 * The `ccsim serve` wire protocol: newline-delimited requests in a
 * `verb key=value ...` form, newline-delimited single-line JSON
 * responses.  docs/SERVE.md is the normative grammar; this header is
 * the one parser/formatter pair the daemon, the `ccsim query`
 * client, the tests, and the throughput bench all share, so the two
 * sides cannot drift apart.
 *
 * Requests:
 *
 *     predict machine=T3D op=alltoall p=64 m=65536
 *             [algo=auto] [selection=NAME|FILE] [config=FILE]
 *             [topo=SPEC] [tier=auto|fast|exact]
 *             [wait=block|ticket] [deadline_ms=N]
 *     poll ticket=N
 *     metrics
 *     health
 *     ping
 *     shutdown
 *
 * Responses (one JSON object per line):
 *
 *     {"status":"ok","tier":"cache|fast|exact","approx":false,...}
 *     {"status":"pending","ticket":7}
 *     {"status":"error","component":"config","exit_code":5,
 *      "message":"..."}
 *
 * An answer downgraded by overload protection — the backfill queue
 * was full, or the request's deadline expired while an exact
 * simulation was still running — carries `"shed":true` so clients can
 * tell a degraded approximation from a first-class one.
 *
 * A malformed request raises ccsim::ConfigError from
 * parseRequest(); the server converts it to an error response on the
 * same connection — a protocol mistake never drops the session.
 */

#ifndef CCSIM_SERVE_PROTOCOL_HH
#define CCSIM_SERVE_PROTOCOL_HH

#include <cstdint>
#include <string>

#include "harness/measure.hh"
#include "machine/collective_types.hh"
#include "util/error.hh"
#include "util/units.hh"

namespace ccsim::serve {

/**
 * A serve-layer failure: sockets (bind/connect/recv), an unknown
 * ticket, a request after shutdown began.  Component "serve", exit
 * code 1 (a user/environment error, catchable as FatalError) — NOT
 * to be confused with protocol-level errors, which are ConfigError
 * (exit 5) because they mean the request itself was malformed.
 */
struct ServeError : FatalError
{
    explicit ServeError(const std::string &message)
        : FatalError("serve", message, kUserExit)
    {
    }
};

/** Request kinds, first token of every request line. */
enum class Verb
{
    Predict,  //!< answer T(machine, op, algo, p, m)
    Poll,     //!< query the state of a backfill ticket
    Metrics,  //!< dump the daemon's MetricsSnapshot as JSON
    Health,   //!< one-line liveness/saturation summary
    Ping,     //!< liveness probe
    Shutdown, //!< stop accepting, drain the backfill queue, exit
};

/** Which answer tiers a predict request allows. */
enum class TierChoice
{
    Auto,  //!< cache hit if present, else fast answer + backfill
    Fast,  //!< cache hit if present, else fitted answer (no backfill)
    Exact, //!< cache hit if present, else simulate (block or ticket)
};

/** How an exact-tier cache miss is delivered. */
enum class WaitMode
{
    Block,  //!< hold the connection until the simulation lands
    Ticket, //!< respond "pending" with a ticket to poll
};

/** One parsed request line. */
struct Request
{
    Verb verb = Verb::Ping;

    // predict
    std::string machine = "T3D"; //!< preset name (ignored with config)
    std::string config_path;     //!< non-empty: machine config file
    std::string selection;       //!< selection table preset or file
    std::string topo;            //!< non-empty: topology spec override
    machine::Coll op = machine::Coll::Alltoall;
    machine::Algo algo = machine::Algo::Auto;
    int p = 0;
    Bytes m = 0;
    bool has_m = false; //!< m key present (barrier may omit it)
    TierChoice tier = TierChoice::Auto;
    WaitMode wait = WaitMode::Block;

    /** Per-request deadline for a blocking exact answer, ms; 0 = use
     *  the server's default (which may itself be "no deadline").  On
     *  expiry the server sheds to the fast tier instead of holding
     *  the connection. */
    int deadline_ms = 0;

    // poll
    std::uint64_t ticket = 0;
};

/**
 * Parse one request line; ccsim::ConfigError (component "config",
 * exit code 5) on an unknown verb, unknown/duplicate/malformed keys,
 * or missing required keys — typed, so the server can answer with a
 * structured error response instead of dropping the connection.
 */
Request parseRequest(const std::string &line);

/** Serialize @p req back to a canonical request line (client side;
 *  parseRequest(formatRequest(r)) round-trips). */
std::string formatRequest(const Request &req);

/** Which of the three serving tiers produced an answer. */
enum class AnswerTier
{
    Cache, //!< previously simulated, replayed from the query cache
    Fast,  //!< closed-form fitted model (approximate)
    Exact, //!< freshly simulated on the backfill pool
};

/** Wire name of a tier ("cache", "fast", "exact"). */
std::string tierName(AnswerTier t);

/** One ok answer.  Exact/cache answers carry the full picosecond
 *  triple of the underlying Measurement (byte-identical to a fresh
 *  simulation of the same tuple); fast answers carry only the
 *  fitted microsecond prediction and are flagged approx. */
struct Answer
{
    AnswerTier tier = AnswerTier::Exact;
    bool approx = false;
    /** Overload protection downgraded this answer (full backfill
     *  queue or an expired deadline); serialized only when true. */
    bool shed = false;
    std::string machine;
    machine::Coll op = machine::Coll::Barrier;
    machine::Algo algo = machine::Algo::Default;
    int p = 0;
    Bytes m = 0;
    double time_us = 0.0; //!< headline time (max over ranks)
    Time max_ps = 0;
    Time min_ps = 0;
    Time mean_ps = 0;

    /** Build an exact/cache answer from a Measurement. */
    static Answer of(const harness::Measurement &meas, AnswerTier t);
};

/** {"status":"ok",...} with "%.9g" number formatting (the snapshot
 *  layer's rule), so equal answers serialize byte-identically. */
std::string okResponse(const Answer &a);

/** {"status":"pending","ticket":N} */
std::string pendingResponse(std::uint64_t ticket);

/** {"status":"error","component":...,"exit_code":...,"message":...} */
std::string errorResponse(const Error &e);

/** {"status":"ok","pong":true} */
std::string pongResponse();

/** What the `health` verb reports: is the daemon up, how loaded is
 *  it, and how often has overload protection engaged. */
struct HealthInfo
{
    bool draining = false;        //!< shutdown drain in progress
    std::size_t cache_size = 0;
    std::size_t cache_max = 0;    //!< 0 = unbounded
    std::size_t backfill_depth = 0;
    std::size_t backfill_max = 0; //!< 0 = unbounded
    std::uint64_t shed = 0;       //!< queue-full fast-path fallbacks
    std::uint64_t deadline_missed = 0;
    int connections = 0;
    double uptime_s = 0.0;
};

/** {"status":"ok","health":"ok|draining",...} */
std::string healthResponse(const HealthInfo &h);

/** {"status":"ok","shutdown":true} */
std::string shutdownResponse();

} // namespace ccsim::serve

#endif // CCSIM_SERVE_PROTOCOL_HH

/**
 * @file
 * Client — the blocking line-protocol client of a `ccsim serve`
 * daemon.  One TCP connection, request line out, response line back.
 * `ccsim query`, the protocol tests, and bench/perf's serve_zipf
 * workload all speak through this class, so none of them hand-roll
 * sockets.
 *
 * Failures (unreachable daemon, connection dropped mid-request)
 * raise FatalError with component "serve"; protocol-level errors
 * arrive as ordinary {"status":"error",...} response lines and are
 * the caller's to interpret.
 */

#ifndef CCSIM_SERVE_CLIENT_HH
#define CCSIM_SERVE_CLIENT_HH

#include <string>

#include "serve/protocol.hh"

namespace ccsim::serve {

/** Blocking request/response client; see file comment. */
class Client
{
  public:
    Client() = default;

    /** close()s. */
    ~Client();

    Client(const Client &) = delete;
    Client &operator=(const Client &) = delete;

    /** Connect to a daemon on 127.0.0.1:@p port.
     *  FatalError("serve") when nothing is listening. */
    void connect(int port);

    /** True between connect() and close(). */
    bool connected() const { return fd_ >= 0; }

    /**
     * Send one request line, return the one response line (JSON,
     * newline stripped).  FatalError("serve") if the connection dies
     * before a full response arrives.
     */
    std::string request(const std::string &line);

    /** formatRequest() + request(). */
    std::string request(const Request &req);

    /** Close the connection (idempotent). */
    void close();

  private:
    int fd_ = -1;
    std::string buf_; //!< bytes past the last returned response line
};

} // namespace ccsim::serve

#endif // CCSIM_SERVE_CLIENT_HH

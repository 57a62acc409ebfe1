#include "serve/server.hh"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "harness/measure.hh"
#include "machine/config_io.hh"
#include "tuning/selection_table.hh"
#include "util/error.hh"
#include "util/key_value.hh"

namespace ccsim::serve {

namespace {

/** FatalError refined to the serve component (CLI exit code 1). */
[[noreturn]] void
serveError(const std::string &what)
{
    throw ServeError(what + ": " + std::strerror(errno));
}

/** Collapse MetricsSnapshot::writeJson's pretty-printing onto one
 *  line (the response framing is one JSON object per line). */
std::string
oneLine(const std::string &json)
{
    std::string out;
    out.reserve(json.size());
    for (std::size_t i = 0; i < json.size(); ++i) {
        if (json[i] == '\n') {
            while (i + 1 < json.size() && json[i + 1] == ' ')
                ++i;
            continue;
        }
        out += json[i];
    }
    return out;
}

/** Weighted quantile over the log2 buckets: the upper bound of the
 *  bucket where the cumulative weight crosses q (the histogram's
 *  native resolution — good to a factor of two, like every other
 *  consumer of these buckets). */
double
histQuantile(const stats::Histogram &h, double q)
{
    double total = h.totalWeight();
    if (total <= 0)
        return 0.0;
    double target = q * total;
    double cum = 0.0;
    for (int i = 0; i < stats::Histogram::kBuckets; ++i) {
        cum += h.bucketWeight(i);
        if (cum >= target)
            return stats::Histogram::bucketUpperBound(i);
    }
    return h.max();
}

void
sendAll(int fd, const std::string &data)
{
    std::size_t off = 0;
    while (off < data.size()) {
        ssize_t n = ::send(fd, data.data() + off, data.size() - off,
                           MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return; // peer went away; the connection loop will notice
        }
        off += static_cast<std::size_t>(n);
    }
}

} // namespace

Server::Server(ServerOptions opts)
    : opts_(opts), backfill_(opts.jobs)
{
    harness::memoSetMaxEntries(opts_.cache_max);
    backfill_.setMaxPending(opts_.backfill_max);
}

Server::~Server()
{
    stop();
}

machine::ConfigHandle
Server::resolveConfig(const Request &req)
{
    const bool from_file = !req.config_path.empty();
    if (req.selection.empty() && req.topo.empty())
        return from_file
                   ? machine::sharedConfigFile(req.config_path)
                   : machine::sharedPreset(req.machine);

    std::string key = (from_file ? "file:" + req.config_path
                                 : "preset:" + lowered(req.machine))
                      + "|sel=" + req.selection
                      + "|topo=" + req.topo;
    std::lock_guard<std::mutex> lock(cfg_mu_);
    auto it = cfg_cache_.find(key);
    if (it != cfg_cache_.end())
        return it->second;

    machine::MachineConfig cfg =
        from_file ? *machine::sharedConfigFile(req.config_path)
                  : *machine::sharedPreset(req.machine);
    if (!req.topo.empty())
        cfg.topo_spec = req.topo;
    if (!req.selection.empty())
        tuning::attachSelection(cfg, req.selection);
    auto handle =
        std::make_shared<const machine::MachineConfig>(std::move(cfg));
    cfg_cache_.emplace(key, handle);
    return handle;
}

Answer
Server::fastAnswer(const machine::MachineConfig &cfg,
                   const Request &req, machine::Algo algo)
{
    Answer a;
    a.tier = AnswerTier::Fast;
    a.approx = true;
    a.machine = cfg.name;
    a.op = req.op;
    a.algo = algo;
    a.p = req.p;
    a.m = req.m;
    a.time_us = fastpath_.predictUs(cfg, req.op, algo, req.p, req.m);
    return a;
}

std::string
Server::handlePredict(const Request &req)
{
    machine::ConfigHandle cfg = resolveConfig(req);
    // Resolve Auto to a concrete algorithm BEFORE forming the cache
    // key: an auto query and its explicit twin share one entry.
    machine::Algo algo =
        tuning::resolveAlgo(*cfg, req.op, req.p, req.m, req.algo);
    // Default MeasureOptions: the exact tier runs the same procedure
    // `ccsim measure` runs, so answers agree byte for byte.
    harness::MeasureOptions opt;
    const bool cacheable = harness::measurePointCacheable(*cfg, opt);
    // The key covers the fault block too, so identical faulty
    // requests coalesce onto one backfill job and distinct ones never
    // share one.
    const std::string key =
        harness::measurePointKey(*cfg, req.p, req.op, req.m, algo, opt);

    std::optional<harness::Measurement> hit;
    if (cacheable)
        hit = harness::memoLookup(key, *cfg, req.p, req.op, req.m, algo);
    {
        std::lock_guard<std::mutex> lock(metrics_mu_);
        ++(!cacheable ? cache_bypassed_ : hit ? tier_cache_ : cache_misses_);
    }
    if (hit)
        return okResponse(Answer::of(*hit, AnswerTier::Cache));

    BackfillJob job;
    job.cfg = cfg;
    job.p = req.p;
    job.op = req.op;
    job.m = req.m;
    job.algo = algo;
    job.options = opt;
    job.key = key;

    switch (req.tier) {
      case TierChoice::Fast: {
        Answer a = fastAnswer(*cfg, req, algo);
        std::lock_guard<std::mutex> lock(metrics_mu_);
        ++tier_fast_;
        return okResponse(a);
      }
      case TierChoice::Auto: {
        Answer a = fastAnswer(*cfg, req, algo);
        if (cacheable)
            backfill_.prefetch(job);
        std::lock_guard<std::mutex> lock(metrics_mu_);
        ++tier_fast_;
        return okResponse(a);
      }
      case TierChoice::Exact:
        break;
    }

    // Exact tier: bounded submission.  A full backfill queue (or a
    // draining daemon) sheds to the fast tier instead of growing the
    // queue or erroring — the answer is flagged so clients can tell.
    std::uint64_t ticket = 0;
    if (!backfill_.trySubmit(job, ticket)) {
        Answer a = fastAnswer(*cfg, req, algo);
        a.shed = true;
        std::lock_guard<std::mutex> lock(metrics_mu_);
        ++tier_fast_;
        return okResponse(a);
    }

    if (req.wait == WaitMode::Ticket) {
        std::lock_guard<std::mutex> lock(metrics_mu_);
        ++pending_issued_;
        return pendingResponse(ticket);
    }

    // Blocking delivery, bounded by the request deadline (or the
    // server default).  On expiry the simulation keeps running and
    // still feeds the memo; this client gets the fast answer now.
    int deadline = req.deadline_ms > 0 ? req.deadline_ms
                                       : opts_.deadline_ms;
    std::optional<BackfillResult> got =
        backfill_.waitFor(ticket, deadline);
    if (!got) {
        Answer a = fastAnswer(*cfg, req, algo);
        a.shed = true;
        std::lock_guard<std::mutex> lock(metrics_mu_);
        ++deadline_missed_;
        ++tier_fast_;
        return okResponse(a);
    }
    BackfillResult r = *got;
    if (r.failed)
        throw Error(r.component, r.message, r.exit_code);
    {
        std::lock_guard<std::mutex> lock(metrics_mu_);
        ++tier_exact_;
    }
    return okResponse(Answer::of(r.meas, AnswerTier::Exact));
}

std::string
Server::handlePoll(const Request &req)
{
    BackfillResult r = backfill_.poll(req.ticket);
    if (!r.done)
        return pendingResponse(req.ticket);
    if (r.failed)
        throw Error(r.component, r.message, r.exit_code);
    {
        std::lock_guard<std::mutex> lock(metrics_mu_);
        ++tier_exact_;
    }
    return okResponse(Answer::of(r.meas, AnswerTier::Exact));
}

std::string
Server::handleLine(const std::string &line)
{
    auto t0 = std::chrono::steady_clock::now();
    std::string resp;
    try {
        Request req = parseRequest(line);
        {
            std::lock_guard<std::mutex> lock(metrics_mu_);
            ++requests_;
            if (req.verb == Verb::Predict)
                ++predicts_;
            else if (req.verb == Verb::Poll)
                ++polls_;
        }
        switch (req.verb) {
          case Verb::Ping:
            resp = pongResponse();
            break;
          case Verb::Metrics:
            resp = oneLine(metricsSnapshot().toJson());
            break;
          case Verb::Health: {
            HealthInfo h;
            h.draining = stop_ || shutdown_requested_;
            h.cache_size = harness::memoSize();
            h.cache_max = harness::memoMaxEntries();
            h.backfill_depth = backfill_.queueDepth();
            h.backfill_max = backfill_.maxPending();
            h.shed = backfill_.shed();
            h.connections = open_connections_;
            h.uptime_s = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() -
                             started_at_)
                             .count();
            {
                std::lock_guard<std::mutex> lock(metrics_mu_);
                h.deadline_missed = deadline_missed_;
            }
            resp = healthResponse(h);
            break;
          }
          case Verb::Shutdown:
            shutdown_requested_ = true;
            resp = shutdownResponse();
            break;
          case Verb::Poll:
            resp = handlePoll(req);
            break;
          case Verb::Predict:
            resp = handlePredict(req);
            break;
        }
    } catch (const Error &e) {
        {
            std::lock_guard<std::mutex> lock(metrics_mu_);
            ++errors_;
        }
        resp = errorResponse(e);
    } catch (const std::exception &e) {
        {
            std::lock_guard<std::mutex> lock(metrics_mu_);
            ++errors_;
        }
        resp = errorResponse(
            ServeError(e.what()));
    }
    double us = std::chrono::duration<double, std::micro>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
    {
        std::lock_guard<std::mutex> lock(metrics_mu_);
        request_us_.add(us);
    }
    if (opts_.verbose)
        std::fprintf(stderr, "ccsim serve: %s -> %s\n", line.c_str(),
                     resp.c_str());
    return resp;
}

stats::MetricsSnapshot
Server::metricsSnapshot() const
{
    stats::MetricsSnapshot snap;

    const stats::CacheStats fs = fastpath_.stats();
    snap.counters["serve.backfill_batches"] = backfill_.batches();
    snap.counters["serve.backfill_coalesced"] = backfill_.coalesced();
    snap.counters["serve.backfill_completed"] = backfill_.completed();
    snap.counters["serve.backfill_failed"] = backfill_.failed();
    snap.counters["serve.backfill_shed"] = backfill_.shed();
    snap.counters["serve.backfill_submitted"] = backfill_.submitted();
    snap.counters["serve.cache_evictions"] = harness::memoStats().evictions;
    snap.counters["serve.cache_size"] = harness::memoSize();
    snap.counters["serve.fastpath_evals"] = fs.hits;
    snap.counters["serve.fastpath_fits"] = fs.misses;
    snap.gauges["serve.cache_max"] =
        static_cast<double>(harness::memoMaxEntries());

    std::lock_guard<std::mutex> lock(metrics_mu_);
    snap.counters["serve.cache_bypassed"] = cache_bypassed_;
    snap.counters["serve.cache_hits"] = tier_cache_;
    snap.counters["serve.cache_misses"] = cache_misses_;
    snap.counters["serve.connections"] = connections_;
    snap.counters["serve.deadline_missed"] = deadline_missed_;
    snap.counters["serve.errors"] = errors_;
    snap.counters["serve.polls"] = polls_;
    snap.counters["serve.predicts"] = predicts_;
    snap.counters["serve.pending_tickets"] = pending_issued_;
    snap.counters["serve.requests"] = requests_;
    snap.counters["serve.tier_cache"] = tier_cache_;
    snap.counters["serve.tier_exact"] = tier_exact_;
    snap.counters["serve.tier_fast"] = tier_fast_;

    double uptime_s = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() -
                          started_at_)
                          .count();
    std::uint64_t answered = tier_cache_ + tier_fast_ + tier_exact_;
    snap.gauges["serve.backfill_max"] =
        static_cast<double>(backfill_.maxPending());
    snap.gauges["serve.backfill_queue_depth"] =
        static_cast<double>(backfill_.queueDepth());
    snap.gauges["serve.connections_hw"] = connections_hw_;
    snap.gauges["serve.jobs"] = backfill_.jobs();
    snap.gauges["serve.qps"] =
        uptime_s > 0 ? static_cast<double>(requests_) / uptime_s : 0;
    snap.gauges["serve.request_us_p50"] =
        histQuantile(request_us_, 0.50);
    snap.gauges["serve.request_us_p99"] =
        histQuantile(request_us_, 0.99);
    snap.gauges["serve.tier_cache_rate"] =
        answered ? static_cast<double>(tier_cache_) /
                       static_cast<double>(answered)
                 : 0;
    snap.gauges["serve.tier_exact_rate"] =
        answered ? static_cast<double>(tier_exact_) /
                       static_cast<double>(answered)
                 : 0;
    snap.gauges["serve.tier_fast_rate"] =
        answered ? static_cast<double>(tier_fast_) /
                       static_cast<double>(answered)
                 : 0;
    snap.gauges["serve.uptime_s"] = uptime_s;

    snap.histograms["serve.request_us"] =
        stats::HistogramSnapshot::of(request_us_);
    return snap;
}

void
Server::start()
{
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listen_fd_ < 0)
        serveError("socket() failed");
    int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one,
                 sizeof(one));

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(opts_.port));
    if (::bind(listen_fd_, reinterpret_cast<sockaddr *>(&addr),
               sizeof(addr)) < 0)
        serveError("cannot bind 127.0.0.1:" +
                   std::to_string(opts_.port));
    if (::listen(listen_fd_, 64) < 0)
        serveError("listen() failed");

    socklen_t len = sizeof(addr);
    if (::getsockname(listen_fd_,
                      reinterpret_cast<sockaddr *>(&addr), &len) < 0)
        serveError("getsockname() failed");
    port_ = ntohs(addr.sin_port);

    if (!opts_.port_file.empty()) {
        std::ofstream pf(opts_.port_file);
        pf << port_ << "\n";
        if (!pf)
            throw ServeError("cannot write port file " +
                                 opts_.port_file);
    }

    if (!opts_.cache_file.empty()) {
        std::size_t n = harness::memoLoad(opts_.cache_file);
        if (opts_.verbose && n > 0)
            std::fprintf(stderr,
                         "ccsim serve: warmed %zu cache entries "
                         "from %s\n",
                         n, opts_.cache_file.c_str());
    }

    started_ = true;
    accept_thread_ = std::thread([this] { acceptLoop(); });
}

void
Server::acceptLoop()
{
    while (!stop_) {
        pollfd pfd{listen_fd_, POLLIN, 0};
        int ready = ::poll(&pfd, 1, 200);
        if (ready <= 0)
            continue; // timeout or EINTR: re-check stop_
        int fd = ::accept(listen_fd_, nullptr, nullptr);
        if (fd < 0)
            continue;

        timeval tv{0, 200 * 1000};
        ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
        int one = 1;
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

        int open = ++open_connections_;
        std::lock_guard<std::mutex> lock(conn_mu_);
        {
            std::lock_guard<std::mutex> mlock(metrics_mu_);
            ++connections_;
            if (open > connections_hw_)
                connections_hw_ = open;
        }
        conn_threads_.emplace_back(
            [this, fd] { connectionLoop(fd); });
    }
}

void
Server::connectionLoop(int fd)
{
    std::string buf;
    char chunk[4096];
    bool closing = false;
    while (!closing && !stop_) {
        ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
        if (n == 0)
            break; // peer closed
        if (n < 0) {
            if (errno == EAGAIN || errno == EWOULDBLOCK ||
                errno == EINTR)
                continue; // timeout: re-check stop_
            break;
        }
        buf.append(chunk, static_cast<std::size_t>(n));

        std::size_t nl;
        while ((nl = buf.find('\n')) != std::string::npos) {
            std::string line = buf.substr(0, nl);
            buf.erase(0, nl + 1);
            if (!line.empty() && line.back() == '\r')
                line.pop_back();
            if (line.empty())
                continue;
            sendAll(fd, handleLine(line) + "\n");
            if (shutdown_requested_) {
                closing = true;
                break;
            }
        }
    }
    ::close(fd);
    --open_connections_;
}

void
Server::stop()
{
    bool was_stopped = stop_.exchange(true);
    if (accept_thread_.joinable())
        accept_thread_.join();
    {
        std::lock_guard<std::mutex> lock(conn_mu_);
        for (std::thread &t : conn_threads_)
            if (t.joinable())
                t.join();
        conn_threads_.clear();
    }
    backfill_.stop();
    if (listen_fd_ >= 0) {
        ::close(listen_fd_);
        listen_fd_ = -1;
    }
    if (started_) {
        started_ = false;
        // Persist the warmed memo; a failed save must not turn a
        // clean drain into a crash, so it only warns.
        if (!opts_.cache_file.empty()) {
            try {
                harness::memoSave(opts_.cache_file);
            } catch (const Error &e) {
                std::fprintf(stderr, "ccsim serve: %s\n", e.what());
            }
        }
        // A clean drain removes the port file so scripts watching it
        // see the daemon as down, not merely unresponsive.
        if (!opts_.port_file.empty())
            std::remove(opts_.port_file.c_str());
    }
    (void)was_stopped;
}

} // namespace ccsim::serve

/**
 * @file
 * serve_zipf: an in-process prediction daemon under Zipf traffic.
 *
 * The query cache, the fast path, the backfill queue and the wire
 * protocol dominate; simulation runs only in the background.  The
 * memo key is exercised from a second caller (it is the serve cache
 * key).  The daemon's cache holds half of the 360-key universe, so
 * misses, fast answers and background simulation go on at a steady
 * rate instead of dying out once the cache is warm: the latency
 * percentiles describe a stationary mix.
 *
 * Phases, after set-up (daemon start plus one tier=fast pass over the
 * key universe, which runs the fast-path fits):
 *
 *  1. open loop at a fixed 2000 q/s over (at most) 2 connections,
 *     Zipf(1.0) keys, tier=auto; latency from each request's due time.
 *     The first part fills the cache and is not measured;
 *  2. closed loop on the same connections: the capacity;
 *  3. tier=exact queries, in seeded order, on the 270 keys of a second
 *     grid outside the universe, checked against direct simulation
 *     and digested.
 *
 * Every exact or cached answer seen in phases 1-2 is checked against
 * direct simulation too.  Latency and capacity are measured over
 * short windows, each corrected for the host's speed over it
 * (IdleSampler), and reported for the quarter of the windows the host
 * disturbed least.
 */

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <memory>
#include <thread>

#include <sched.h>
#include <sys/prctl.h>
#include <time.h>

#include "common.hh"
#include "machine/config_io.hh"
#include "serve/client.hh"
#include "serve/server.hh"

namespace ccsim::perf {

namespace {

using machine::Coll;

constexpr double kRateQps = 2000.0;
constexpr double kWarmShare = 0.2;   //!< of the budget: cache fill
constexpr double kOpenShare = 0.5;   //!< of the budget: phase 1
constexpr double kClosedShare = 0.2; //!< of the budget: phase 2
constexpr double kWindowS = 0.5;     //!< load window, phases 1-2
constexpr double kBucketS = 0.1;     //!< capacity counting bucket
constexpr std::size_t kCacheMax = 180;
/** Set-up repetitions at the start (the last one serves the run) and
 *  at the end, so the samples are not all taken in one burst. */
constexpr int kSetupRepsFirst = 3;
constexpr int kSetupRepsLast = 2;
constexpr std::size_t kHandleCalls = 20000;

const char *const kMachines[] = {"SP2", "T3D", "Paragon"};
constexpr Coll kOps[] = {Coll::Bcast,   Coll::Alltoall, Coll::Reduce,
                         Coll::Scatter, Coll::Gather,   Coll::Scan};
constexpr int kSizes[] = {4, 8, 16, 32, 64};

struct Key
{
    const machine::MachineConfig *cfg = nullptr;
    Coll op = Coll::Bcast;
    int p = 0;
    Bytes m = 0;
    std::string label; //!< "machine op p m"
};

std::vector<Key>
keyGrid(const std::map<std::string, machine::MachineConfig> &presets,
        std::initializer_list<Bytes> lengths)
{
    std::vector<Key> out;
    for (const char *mc : kMachines)
        for (Coll op : kOps)
            for (int p : kSizes)
                for (Bytes m : lengths) {
                    Key k{&presets.at(mc), op, p, m, ""};
                    k.label = std::string(mc) + " " +
                              machine::collKey(op) + " " +
                              std::to_string(p) + " " + std::to_string(m);
                    out.push_back(std::move(k));
                }
    return out;
}

std::string
requestLine(const Key &k, const char *tier)
{
    return "predict machine=" + k.cfg->name +
           " op=" + machine::collKey(k.op) + " p=" + std::to_string(k.p) +
           " m=" + std::to_string(k.m) + " tier=" + tier;
}

/** A reply's verdict: ok and not shed; max_ps when exact/cached. */
struct Reply
{
    bool ok = false;
    bool exact = false; //!< tier cache or exact
    Time max_ps = 0;
};

Reply
parseReply(const std::string &resp)
{
    Reply r;
    r.ok = resp.rfind("{\"status\":\"ok\"", 0) == 0 &&
           resp.find("\"shed\":true") == std::string::npos;
    r.exact = resp.find("\"approx\":false") != std::string::npos;
    const auto pos = resp.find("\"max_ps\":");
    if (pos != std::string::npos)
        r.max_ps = std::strtoll(resp.c_str() + pos + 9, nullptr, 10);
    return r;
}

/** A running daemon with its client connections. */
struct Session
{
    std::unique_ptr<serve::Server> server;
    std::vector<std::unique_ptr<serve::Client>> clients;

    ~Session()
    {
        clients.clear();
        if (server)
            server->stop();
    }
};

/** What one load-generating thread saw. */
struct ThreadLog
{
    std::vector<std::pair<std::size_t, double>> lat_us; //!< window, us
    std::vector<double> late_us;
    //! closed-loop completions: window, time
    std::vector<std::pair<std::size_t, std::int64_t>> done_ns;
    std::vector<std::pair<std::size_t, Time>> answers; //!< key, max_ps
    std::uint64_t sent = 0;
    std::uint64_t bad = 0;
    std::string first_bad;
    std::size_t max_depth = 0;
};

/*
 * CPU placement: the clients (load generators, and the caller in
 * set-up and phase 3) and the daemon's request threads share the load
 * CPU; background simulation has a CPU of its own.  Threads inherit
 * the creating thread's mask, so pinning the caller around Server's
 * constructor (which starts the backfill thread) and start() (the
 * accept thread, which starts the connection threads) places the
 * daemon.  Left to the scheduler, a request is handed over on one CPU
 * in some runs and across two in others, and background simulation
 * sometimes shares a request thread's CPU: the latency of a run then
 * depends on where its threads happened to land.  On one CPU a
 * hand-over is a local wake-up, with no interrupt to another CPU.
 * CPU 0, which takes most device interrupts, is left out.  An
 * IdleSampler on each CPU keeps it from halting and measures its
 * speed.  Without three CPUs nothing is pinned.
 */
constexpr int kLoadCpu = 1;
constexpr int kBackfillCpu = 2;

/** Exact queries per host-speed correction in phase 3. */
constexpr std::size_t kExactGroup = 10;

/** Sleep until @p due_ns on nowNs()'s clock (CLOCK_MONOTONIC).  A
 *  generator that spun through the last stretch instead shared the
 *  load CPU with the request threads and slowed them, most of all in
 *  the host's slow phases.  Each generator thread sets its timer slack
 *  to the minimum, so the wake-up is on time. */
void
sleepUntil(std::int64_t due_ns)
{
    const timespec due{static_cast<time_t>(due_ns / 1000000000),
                       static_cast<long>(due_ns % 1000000000)};
    while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &due, nullptr) ==
           EINTR) {
    }
}

} // namespace

void
runServeZipf(const RunConfig &cfg, Result &r, Tracer *tr)
{
    std::map<std::string, machine::MachineConfig> presets;
    for (const char *mc : kMachines)
        presets[mc] = machine::presetByName(mc);
    const std::vector<Key> universe =
        keyGrid(presets, {16, 256, 4 * KiB, 64 * KiB});
    std::vector<Key> exact_keys = keyGrid(presets, {64, 1 * KiB, 16 * KiB});

    Rng rng(subSeed(cfg.seed, 3));
    std::vector<std::size_t> by_rank(universe.size());
    for (std::size_t i = 0; i < by_rank.size(); ++i)
        by_rank[i] = i;
    shuffle(by_rank, rng);
    shuffle(exact_keys, rng);
    const Zipf zipf(universe.size(), 1.0);
    const std::size_t nclients = std::clamp<std::size_t>(
        std::thread::hardware_concurrency(), 1, 2);

    std::vector<std::string> auto_lines, fast_lines;
    for (const Key &k : universe) {
        auto_lines.push_back(requestLine(k, "auto"));
        fast_lines.push_back(requestLine(k, "fast"));
    }

    pinSelf(kLoadCpu);
    const IdleSampler load_speed(kLoadCpu);
    const IdleSampler backfill_speed(kBackfillCpu);

    // Set-up: daemon start, connections, and the fast-path fits, which
    // run on the load CPU and dominate.
    std::unique_ptr<Session> s;
    std::vector<double> setup_s;
    auto setUp = [&] {
        s.reset();
        harness::memoClear();
        const std::int64_t from = load_speed.mark();
        const std::int64_t t0 = nowNs();
        s = std::make_unique<Session>();
        serve::ServerOptions so;
        so.jobs = 1;
        so.cache_max = kCacheMax;
        cpu_set_t any;
        const bool have_mask = sched_getaffinity(0, sizeof(any), &any) == 0;
        pinSelf(kBackfillCpu);
        s->server = std::make_unique<serve::Server>(so);
        pinSelf(kLoadCpu);
        s->server->start();
        if (have_mask)
            sched_setaffinity(0, sizeof(any), &any);
        for (std::size_t c = 0; c < nclients; ++c) {
            s->clients.push_back(std::make_unique<serve::Client>());
            s->clients.back()->connect(s->server->port());
        }
        for (std::size_t i = 0; i < universe.size(); ++i)
            r.check(parseReply(s->clients[0]->request(fast_lines[i])).ok,
                    universe[i].label + ": fast-pass reply");
        const double wall_s = secondsSince(t0);
        setup_s.push_back(wall_s /
                          load_speed.slowdown(from, load_speed.mark()));
    };
    const std::int64_t setup_start = nowNs();
    for (int rep = 0; rep < kSetupRepsFirst; ++rep)
        setUp();
    r.phase("setup", secondsSince(setup_start));
    serve::Server &server = *s->server;

    // Phases 1 and 2 share the generator threads' key streams.
    std::vector<ThreadLog> logs(nclients);
    std::vector<Rng> streams;
    for (std::size_t c = 0; c < nclients; ++c)
        streams.emplace_back(subSeed(cfg.seed, 10 + c));

    auto send = [&](std::size_t c, std::size_t window, std::int64_t due,
                    bool open) {
        ThreadLog &log = logs[c];
        const std::size_t idx = by_rank[zipf(streams[c])];
        const std::int64_t sent = nowNs();
        std::string resp;
        try {
            resp = s->clients[c]->request(auto_lines[idx]);
        } catch (const std::exception &e) {
            resp = e.what();
        }
        const std::int64_t done = nowNs();
        ++log.sent;
        const Reply rep = parseReply(resp);
        if (!rep.ok) {
            if (log.bad++ == 0)
                log.first_bad = universe[idx].label + ": " + resp;
        } else if (rep.exact) {
            log.answers.emplace_back(idx, rep.max_ps);
        }
        if (open) {
            log.lat_us.emplace_back(window,
                                    static_cast<double>(done - due) * 1e-3);
            log.late_us.push_back(static_cast<double>(sent - due) * 1e-3);
            log.max_depth =
                std::max(log.max_depth, server.backfill().queueDepth());
        } else {
            log.done_ns.emplace_back(window, done);
        }
    };

    // Load on every connection from now until @p length_ns: open, at
    // kRateQps in total, with latency from each due time; or closed,
    // back to back.  Returns the start.
    const auto period = static_cast<std::int64_t>(1e9 * nclients / kRateQps);
    auto load = [&](bool open, std::size_t window, std::int64_t length_ns) {
        const std::int64_t start = nowNs() + 1000000;
        const std::int64_t end = start + length_ns;
        std::vector<std::thread> threads;
        for (std::size_t c = 0; c < nclients; ++c)
            threads.emplace_back([&, c] {
                pinSelf(kLoadCpu);
                prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
                if (!open) {
                    sleepUntil(start);
                    while (nowNs() < end)
                        send(c, window, 0, false);
                    return;
                }
                const std::int64_t offset =
                    static_cast<std::int64_t>(c) * period /
                    static_cast<std::int64_t>(nclients);
                for (std::int64_t k = 0;; ++k) {
                    const std::int64_t due = start + offset + k * period;
                    if (due >= end)
                        break;
                    sleepUntil(due);
                    send(c, window, due, true);
                }
            });
        for (auto &t : threads)
            t.join();
        return start;
    };

    // Phases 1 and 2 run in windows between marks of the load CPU's
    // sampler; a window's times are divided by its slowdown there.
    auto slices = [&](double share) {
        return std::max<std::size_t>(
            1, static_cast<std::size_t>(share * cfg.seconds / kWindowS + 0.5));
    };
    const auto window_ns = static_cast<std::int64_t>(kWindowS * 1e9);
    const auto bucket_ns = static_cast<std::int64_t>(kBucketS * 1e9);
    constexpr auto kBucketsPerWindow =
        static_cast<std::size_t>(kWindowS / kBucketS + 0.5);
    auto runWindows = [&](bool open, std::size_t n,
                          std::vector<std::int64_t> &starts,
                          std::vector<double> &slowdown) {
        std::int64_t from = load_speed.mark();
        for (std::size_t w = 0; w < n; ++w) {
            starts.push_back(load(open, w, window_ns));
            const std::int64_t to = load_speed.mark();
            slowdown.push_back(load_speed.slowdown(from, to));
            from = to;
        }
    };

    // The cache fill is neither measured nor corrected.
    constexpr std::size_t kUnmeasured = ~std::size_t{0};
    const std::int64_t open_start = nowNs();
    load(true, kUnmeasured,
         static_cast<std::int64_t>(kWarmShare * cfg.seconds * 1e9));
    std::vector<std::int64_t> open_starts, closed_starts;
    std::vector<double> open_slowdown, closed_slowdown;
    runWindows(true, slices(kOpenShare), open_starts, open_slowdown);
    r.phase("open_loop", secondsSince(open_start));
    const std::int64_t closed_start = nowNs();
    runWindows(false, slices(kClosedShare), closed_starts, closed_slowdown);
    r.phase("closed_loop", secondsSince(closed_start));

    // Latency per window of the measured open loop; capacity per bucket
    // of the closed loop.
    std::vector<std::vector<double>> windows(open_starts.size());
    std::vector<double> buckets(closed_starts.size() * kBucketsPerWindow, 0);
    std::vector<double> lat_us, late_us;
    std::map<std::size_t, Time> answered;
    std::size_t max_depth = 0;
    for (const ThreadLog &log : logs) {
        for (std::size_t i = 0; i < log.lat_us.size(); ++i) {
            const auto [w, raw_us] = log.lat_us[i];
            if (w == kUnmeasured)
                continue;
            const double us = raw_us / open_slowdown[w];
            windows[w].push_back(us);
            lat_us.push_back(us);
            late_us.push_back(log.late_us[i]);
        }
        for (const auto &[w, t] : log.done_ns) {
            const auto b =
                static_cast<std::size_t>((t - closed_starts[w]) / bucket_ns);
            if (b < kBucketsPerWindow)
                buckets[w * kBucketsPerWindow + b] +=
                    closed_slowdown[w] / kBucketS;
        }
        max_depth = std::max(max_depth, log.max_depth);
        r.attempted += log.sent;
        for (std::uint64_t b = 0; b < log.bad; ++b)
            r.fail(log.first_bad);
        for (const auto &[idx, ps] : log.answers) {
            auto [it, fresh] = answered.emplace(idx, ps);
            if (!fresh && it->second != ps)
                r.fail(universe[idx].label + ": answers disagree");
        }
    }

    // Phase 3: exact queries, after the background work has drained.
    const std::int64_t drain_start = nowNs();
    server.backfill().drain();
    r.phase("drain", secondsSince(drain_start));
    // Exact queries simulate on the background CPU: groups of them run
    // between marks of its sampler.
    std::vector<Time> exact_ps(exact_keys.size(), 0);
    double exact_total_ns = 0;
    const std::int64_t exact_start = nowNs();
    std::int64_t from = backfill_speed.mark();
    for (std::size_t g = 0; g < exact_keys.size(); g += kExactGroup) {
        const std::size_t end = std::min(g + kExactGroup, exact_keys.size());
        double group_ns = 0;
        for (std::size_t i = g; i < end; ++i) {
            const std::int64_t t0 = nowNs();
            const Reply rep = parseReply(
                s->clients[0]->request(requestLine(exact_keys[i], "exact")));
            group_ns += static_cast<double>(nowNs() - t0);
            r.check(rep.ok && rep.exact,
                    exact_keys[i].label + ": exact reply");
            exact_ps[i] = rep.max_ps;
        }
        const std::int64_t to = backfill_speed.mark();
        exact_total_ns += group_ns / backfill_speed.slowdown(from, to);
        from = to;
    }
    r.phase("exact", secondsSince(exact_start));
    const stats::MetricsSnapshot served = server.metricsSnapshot();

    // Reference: every exact or cached answer against direct
    // simulation with the daemon's procedure (default options).
    const harness::MeasureOptions opt;
    LayerCounters counters;
    double exact_events = 0;
    const std::int64_t verify_start = nowNs();
    for (std::size_t i = 0; i < exact_keys.size(); ++i) {
        const Key &k = exact_keys[i];
        PointRun pr =
            drivePoint(*k.cfg, k.p, k.op, k.m, opt, tr != nullptr, tr, i);
        r.check(pr.max_time == exact_ps[i], k.label + ": exact answer");
        exact_events += static_cast<double>(pr.events);
        counters.add(pr.metrics);
    }
    for (const auto &[idx, ps] : answered) {
        const Key &k = universe[idx];
        r.check(drivePoint(*k.cfg, k.p, k.op, k.m, opt, false).max_time ==
                    ps,
                k.label + ": cached answer");
    }
    r.phase("verify", secondsSince(verify_start));

    auto counter = [&](const char *name) {
        auto it = served.counters.find(name);
        return it == served.counters.end()
                   ? 0.0
                   : static_cast<double>(it->second);
    };
    r.check(counter("serve.errors") == 0, "daemon counted errors");
    // The daemon's path (socket calls, thread hand-overs, small
    // allocations) slows more than the reference kernel when other
    // guests load its core, and in some windows slows with no sign in
    // the kernel at all: window latencies jump between two levels, 25
    // and 30-35 us.  Interference only ever adds time, so each number
    // is the quartile over windows the host disturbed least, which
    // stays on the lower level unless three quarters of a run are on
    // the upper one.
    std::vector<double> p50s, p90s;
    for (const auto &w : windows) {
        p50s.push_back(quantile(w, 0.50));
        p90s.push_back(quantile(w, 0.90));
    }
    r.set("ops_per_s", quantile(buckets, 0.75), "op/s");
    r.set("latency_p50_us", quantile(p50s, 0.25), "us");
    r.set("latency_p90_us", quantile(p90s, 0.25), "us");
    r.set("ns_per_event", exact_total_ns / exact_events, "ns");
    r.set("bench.latency_p99_us", quantile(lat_us, 0.99), "us");
    r.set("bench.latency_samples", static_cast<double>(lat_us.size()),
          "count");
    r.set("bench.gen_late_p99_us", quantile(late_us, 0.99), "us");
    const double hits = counter("serve.cache_hits");
    const double misses = counter("serve.cache_misses");
    r.set("serve.cache_hit_ratio",
          hits + misses > 0 ? hits / (hits + misses) : 0.0, "ratio");
    r.set("serve.fastpath_fits", counter("serve.fastpath_fits"), "count");
    r.set("serve.backfill_completed", counter("serve.backfill_completed"),
          "count");
    r.set("serve.backfill_coalesced", counter("serve.backfill_coalesced"),
          "count");
    r.set("serve.backfill_shed", counter("serve.backfill_shed"), "count");
    r.set("serve.backfill_queue_depth", static_cast<double>(max_depth),
          "count");
    const harness::MemoStats memo = harness::memoStats();
    const double lookups =
        static_cast<double>(memo.hits + memo.misses + memo.bypassed);
    r.set("harness.memo_hit_ratio",
          lookups > 0 ? static_cast<double>(memo.hits) / lookups : 0.0,
          "ratio");

    if (tr) {
        // The protocol brain without sockets over one key stream, calls
        // alternately untraced and traced, so both see the same host:
        // serve.handle_ns and the trace overhead.
        const std::size_t calls = cfg.quick ? kHandleCalls / 20
                                            : kHandleCalls;
        Rng hrng(subSeed(cfg.seed, 4));
        const std::int64_t handle_start = nowNs();
        double plain_s = 0, traced_s = 0;
        for (std::size_t i = 0; i < calls; ++i) {
            const std::size_t idx = by_rank[zipf(hrng)];
            const std::int64_t t0 = nowNs();
            {
                Tracer::Scope span(i % 2 ? tr : nullptr, "serve.handle", i);
                r.check(parseReply(server.handleLine(auto_lines[idx])).ok,
                        universe[idx].label + ": handleLine");
            }
            (i % 2 ? traced_s : plain_s) += secondsSince(t0);
        }
        const double handle_s = secondsSince(handle_start);
        for (std::size_t i = 0; i < universe.size(); ++i) {
            const Key &k = universe[i];
            Tracer::Scope span(tr, "harness.key", i);
            r.check(!harness::measurePointKey(*k.cfg, k.p, k.op, k.m)
                         .empty(),
                    k.label + ": empty key");
        }
        r.phase("handle", handle_s);
        const auto layers = tr->layers();
        reportSpanMean(r, layers, "serve.handle", "serve.handle_ns");
        reportSpanMean(r, layers, "harness.key", "harness.key_ns");
        reportSpanMean(r, layers, "machine.build", "machine.build_ns");
        reportSpanMean(r, layers, "sim.run", "sim.run_ns");
        reportSpanMean(r, layers, "stats.snapshot", "stats.snapshot_ns");
        r.set("machine.build_share",
              layers.at("machine.build").busy_ns /
                  layers.at("harness.point").busy_ns,
              "ratio");
        r.set("bench.span_coverage_p01",
              tr->coverage("harness.point", 0.01), "ratio");
        r.set("bench.trace_overhead", traced_s / plain_s, "ratio");
        counters.report(r);
    }

    const std::int64_t last_setup_start = nowNs();
    for (int rep = 0; rep < kSetupRepsLast; ++rep)
        setUp();
    s.reset();
    r.phase("setup_again", secondsSince(last_setup_start));
    r.set("setup_s", median(setup_s), "s");
    r.set("bench.host_slowdown", load_speed.overall(), "ratio");

    std::vector<std::string> lines;
    for (std::size_t i = 0; i < exact_keys.size(); ++i)
        lines.push_back(exact_keys[i].label + " " +
                        std::to_string(exact_ps[i]));
    std::sort(lines.begin(), lines.end());
    Digest d;
    for (const auto &l : lines)
        d.add(l);
    r.digest = d.hex();
    checkDigest(cfg, r, true);
}

} // namespace ccsim::perf

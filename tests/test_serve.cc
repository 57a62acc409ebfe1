/**
 * @file
 * The prediction service: protocol strictness (malformed queries are
 * typed error responses, never dropped connections), cache-hit
 * byte-identity with direct simulation, fast-tier tolerance against
 * the exact tier, ticketed backfill, and concurrent-client
 * determinism at different --jobs levels.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "harness/measure.hh"
#include "machine/config_io.hh"
#include "serve/backfill.hh"
#include "serve/cache.hh"
#include "serve/client.hh"
#include "serve/fastpath.hh"
#include "serve/protocol.hh"
#include "serve/server.hh"

namespace ccsim::serve {
namespace {

// ---- protocol ------------------------------------------------------

TEST(ServeProtocol, ParsesAFullPredictRequest)
{
    Request r = parseRequest(
        "predict machine=SP2 op=bcast p=16 m=4096 algo=binomial "
        "tier=exact wait=ticket");
    EXPECT_EQ(r.verb, Verb::Predict);
    EXPECT_EQ(r.machine, "SP2");
    EXPECT_EQ(r.op, machine::Coll::Bcast);
    EXPECT_EQ(r.p, 16);
    EXPECT_EQ(r.m, 4096);
    EXPECT_EQ(r.algo, machine::Algo::Binomial);
    EXPECT_EQ(r.tier, TierChoice::Exact);
    EXPECT_EQ(r.wait, WaitMode::Ticket);
}

TEST(ServeProtocol, RoundTripsThroughFormat)
{
    Request r;
    r.verb = Verb::Predict;
    r.machine = "Paragon";
    r.selection = "Paragon";
    r.op = machine::Coll::Alltoall;
    r.p = 32;
    r.m = 65536;
    r.has_m = true;
    r.tier = TierChoice::Fast;

    Request back = parseRequest(formatRequest(r));
    EXPECT_EQ(back.machine, r.machine);
    EXPECT_EQ(back.selection, r.selection);
    EXPECT_EQ(back.op, r.op);
    EXPECT_EQ(back.p, r.p);
    EXPECT_EQ(back.m, r.m);
    EXPECT_EQ(back.tier, r.tier);
}

TEST(ServeProtocol, BarrierNeedsNoMessageLength)
{
    Request r = parseRequest("predict machine=T3D op=barrier p=8");
    EXPECT_EQ(r.op, machine::Coll::Barrier);
    EXPECT_EQ(r.m, 0);
}

TEST(ServeProtocol, MalformedRequestsRaiseConfigError)
{
    // Every protocol mistake is machine::ConfigError (exit code 5),
    // so the server can answer with a typed error response.
    const char *bad[] = {
        "",                                  // empty
        "frobnicate p=4",                    // unknown verb
        "predict op=bcast p=4",              // missing m
        "predict machine=T3D op=bcast m=64", // missing p
        "predict machine=T3D op=nosuch p=4 m=64",  // unknown op
        "predict machine=T3D op=bcast p=zero m=64", // bad int
        "predict machine=T3D op=bcast p=4 m=64 tier=soon",
        "predict machine=T3D op=bcast p=4 m=64 color=red",
        "poll",                              // missing ticket
        "ping p=4",                          // keys on a bare verb
    };
    for (const char *line : bad) {
        try {
            parseRequest(line);
            FAIL() << "no error for: " << line;
        } catch (const machine::ConfigError &e) {
            EXPECT_EQ(e.exitCode(), kConfigExit) << line;
            EXPECT_EQ(e.component(), "config") << line;
        }
    }
}

TEST(ServeProtocol, DeadlineParsesAndRoundTrips)
{
    Request r = parseRequest(
        "predict machine=T3D op=bcast p=8 m=64 deadline_ms=250");
    EXPECT_EQ(r.deadline_ms, 250);
    Request back = parseRequest(formatRequest(r));
    EXPECT_EQ(back.deadline_ms, 250);
    EXPECT_THROW(
        parseRequest(
            "predict machine=T3D op=bcast p=8 m=64 deadline_ms=-1"),
        machine::ConfigError);
}

TEST(ServeProtocol, HealthIsABareVerb)
{
    EXPECT_EQ(parseRequest("health").verb, Verb::Health);
    EXPECT_THROW(parseRequest("health p=4"), machine::ConfigError);
    Request r;
    r.verb = Verb::Health;
    EXPECT_EQ(formatRequest(r), "health");
}

TEST(ServeProtocol, ShedIsOnTheWireOnlyWhenSet)
{
    Answer a;
    a.machine = "T3D";
    EXPECT_EQ(okResponse(a).find("\"shed\""), std::string::npos);
    a.shed = true;
    EXPECT_NE(okResponse(a).find("\"shed\":true"),
              std::string::npos);
}

// ---- the brain (handleLine, no sockets) ----------------------------

TEST(ServeServer, MalformedQueryGetsTypedErrorResponse)
{
    Server server;
    std::string resp = server.handleLine("predict op=bcast");
    EXPECT_EQ(resp.rfind("{\"status\":\"error\"", 0), 0u) << resp;
    EXPECT_NE(resp.find("\"component\":\"config\""), std::string::npos);
    EXPECT_NE(resp.find("\"exit_code\":5"), std::string::npos);

    // The brain keeps serving after a protocol error.
    EXPECT_EQ(server.handleLine("ping"), pongResponse());
}

TEST(ServeServer, CacheHitIsByteIdenticalToDirectSimulation)
{
    Server server;
    const std::string q =
        "predict machine=T3D op=bcast p=8 m=1024 tier=exact";

    std::string first = server.handleLine(q);
    std::string second = server.handleLine(q);

    // Same point, simulated directly with the same procedure the
    // exact tier uses (the CLI's defaults).
    auto meas = harness::measureCollective(
        *machine::sharedPreset("T3D"), 8, machine::Coll::Bcast, 1024);

    EXPECT_EQ(first, okResponse(Answer::of(meas, AnswerTier::Exact)));
    EXPECT_EQ(second, okResponse(Answer::of(meas, AnswerTier::Cache)));
}

TEST(ServeServer, AutoAlgoSharesTheCacheEntryWithItsExplicitTwin)
{
    Server server;
    // T3D bcast resolves Algo::Auto to the machine default
    // (binomial); the explicit spelling must hit the same entry.
    std::string implicit = server.handleLine(
        "predict machine=T3D op=bcast p=8 m=512 tier=exact");
    std::string explicit_twin = server.handleLine(
        "predict machine=T3D op=bcast p=8 m=512 algo=binomial "
        "tier=exact");
    EXPECT_NE(implicit.find("\"tier\":\"exact\""), std::string::npos);
    EXPECT_NE(explicit_twin.find("\"tier\":\"cache\""),
              std::string::npos)
        << "second spelling should have hit the cache";
}

TEST(ServeServer, FastTierTracksExactWithinTolerance)
{
    Server server;
    auto cfg = machine::sharedPreset("T3D");
    // Points inside the calibration envelope (p <= 32, m <= 64 KiB)
    // but not on the calibration grid.
    struct Point
    {
        machine::Coll op;
        int p;
        Bytes m;
    } points[] = {
        {machine::Coll::Bcast, 16, 2048},
        {machine::Coll::Alltoall, 8, 8192},
        {machine::Coll::Reduce, 16, 512},
    };
    for (const auto &pt : points) {
        double fast = server.fastPath().predictUs(
            *cfg, pt.op, machine::Algo::Auto, pt.p, pt.m);
        auto exact =
            harness::measureCollective(*cfg, pt.p, pt.op, pt.m);
        // The documented envelope: within a factor of two across the
        // calibration region (in practice a few percent).
        EXPECT_GT(fast, exact.us() / 2.0)
            << collName(pt.op) << " p=" << pt.p << " m=" << pt.m;
        EXPECT_LT(fast, exact.us() * 2.0)
            << collName(pt.op) << " p=" << pt.p << " m=" << pt.m;
    }
}

TEST(ServeServer, TicketFlowDeliversTheExactAnswer)
{
    Server server;
    std::string pending = server.handleLine(
        "predict machine=SP2 op=barrier p=8 tier=exact wait=ticket");
    ASSERT_EQ(pending.rfind("{\"status\":\"pending\",\"ticket\":", 0),
              0u)
        << pending;
    std::uint64_t ticket = std::stoull(
        pending.substr(pending.rfind(':') + 1));

    server.backfill().drain();
    std::string resp =
        server.handleLine("poll ticket=" + std::to_string(ticket));
    EXPECT_NE(resp.find("\"tier\":\"exact\""), std::string::npos)
        << resp;

    // A consumed (or never issued) ticket is a typed error.
    std::string again =
        server.handleLine("poll ticket=" + std::to_string(ticket));
    EXPECT_NE(again.find("\"status\":\"error\""), std::string::npos);
    EXPECT_NE(again.find("\"component\":\"serve\""),
              std::string::npos);
}

TEST(ServeServer, MetricsCountPerTierHits)
{
    Server server;
    server.handleLine(
        "predict machine=T3D op=barrier p=4 tier=exact");
    server.handleLine(
        "predict machine=T3D op=barrier p=4 tier=exact"); // cache
    server.handleLine(
        "predict machine=T3D op=barrier p=4 tier=fast"); // cache too
    auto snap = server.metricsSnapshot();
    EXPECT_EQ(snap.counters.at("serve.tier_exact"), 1u);
    EXPECT_EQ(snap.counters.at("serve.tier_cache"), 2u);
    EXPECT_EQ(snap.counters.at("serve.requests"), 3u);
    EXPECT_GE(snap.gauges.at("serve.request_us_p99"),
              snap.gauges.at("serve.request_us_p50"));
}

TEST(ServeBackfill, CoalescesDuplicateKeysIntoOneSimulation)
{
    QueryCache cache;
    BackfillQueue queue(cache, 1);

    // Keep the single worker busy on a slow point first so the two
    // duplicate submissions below are both pending at once — without
    // it, the tiny p=4 barrier can finish between the two submit()
    // calls and there is nothing left to coalesce onto.
    BackfillJob slow;
    slow.cfg = machine::sharedPreset("T3D");
    slow.p = 32;
    slow.op = machine::Coll::Alltoall;
    slow.m = 4096;
    slow.algo = machine::Algo::Default;
    slow.key = harness::measurePointKey(*slow.cfg, 32,
                                        machine::Coll::Alltoall, 4096,
                                        machine::Algo::Default);
    std::uint64_t ts = queue.submit(slow);

    BackfillJob job;
    job.cfg = machine::sharedPreset("T3D");
    job.p = 4;
    job.op = machine::Coll::Barrier;
    job.algo = machine::Algo::Default;
    job.key = harness::measurePointKey(*job.cfg, 4,
                                       machine::Coll::Barrier, 0,
                                       machine::Algo::Default);

    std::uint64_t t1 = queue.submit(job);
    std::uint64_t t2 = queue.submit(job);
    EXPECT_FALSE(queue.wait(ts).failed);
    BackfillResult r1 = queue.wait(t1);
    BackfillResult r2 = queue.wait(t2);
    EXPECT_FALSE(r1.failed);
    EXPECT_EQ(r1.meas.max_time, r2.meas.max_time);
    EXPECT_GE(queue.coalesced(), 1u);
    EXPECT_TRUE(cache.contains(job.key));
}

// ---- hardening: LRU bound, persistence, shedding, health -----------

/** A fabricated-but-well-formed cache value (real measurements are
 *  not needed to exercise the store itself). */
harness::Measurement
syntheticPoint(int p, Bytes m, Time t)
{
    harness::Measurement meas;
    meas.machine = "T3D";
    meas.op = machine::Coll::Bcast;
    meas.algo = machine::Algo::Binomial;
    meas.p = p;
    meas.m = m;
    meas.max_time = t;
    meas.min_time = t / 2;
    meas.mean_time = (t + t / 2) / 2;
    return meas;
}

TEST(ServeCache, LruBoundEvictsTheLeastRecentlyAnsweredEntry)
{
    QueryCache cache;
    cache.setMaxEntries(2);
    cache.insert("a", syntheticPoint(4, 64, 1000));
    cache.insert("b", syntheticPoint(8, 64, 2000));

    harness::Measurement out;
    ASSERT_TRUE(cache.lookup("a", out)); // "a" is hot again
    cache.insert("c", syntheticPoint(16, 64, 3000));

    EXPECT_TRUE(cache.contains("a"));
    EXPECT_FALSE(cache.contains("b")) << "b was the coldest entry";
    EXPECT_TRUE(cache.contains("c"));
    EXPECT_EQ(cache.size(), 2u);
    EXPECT_EQ(cache.stats().evictions, 1u);
}

TEST(ServeCache, ShrinkingTheBoundEvictsImmediately)
{
    QueryCache cache;
    for (int i = 0; i < 4; ++i)
        cache.insert("k" + std::to_string(i),
                     syntheticPoint(4, 64, 1000 + i));
    cache.setMaxEntries(1);
    EXPECT_EQ(cache.size(), 1u);
    EXPECT_TRUE(cache.contains("k3")) << "hottest entry survives";
    EXPECT_EQ(cache.stats().evictions, 3u);
}

TEST(ServeCache, SaveLoadRoundTripsEveryField)
{
    const std::string path = "/tmp/ccsim_cache_roundtrip.txt";
    std::remove(path.c_str());

    QueryCache cache;
    harness::Measurement in = syntheticPoint(8, 4096, 123456789);
    cache.insert("point-a", in);
    cache.insert("point-b", syntheticPoint(16, 64, 777));
    EXPECT_EQ(cache.saveFile(path), 2u);

    QueryCache fresh;
    EXPECT_EQ(fresh.loadFile(path), 2u);
    harness::Measurement out;
    ASSERT_TRUE(fresh.lookup("point-a", out));
    EXPECT_EQ(out.machine, in.machine);
    EXPECT_EQ(out.op, in.op);
    EXPECT_EQ(out.algo, in.algo);
    EXPECT_EQ(out.p, in.p);
    EXPECT_EQ(out.m, in.m);
    EXPECT_EQ(out.max_time, in.max_time);
    EXPECT_EQ(out.min_time, in.min_time);
    EXPECT_EQ(out.mean_time, in.mean_time);
    std::remove(path.c_str());
}

TEST(ServeCache, BoundedReloadKeepsTheHottestEntries)
{
    const std::string path = "/tmp/ccsim_cache_bounded.txt";
    std::remove(path.c_str());

    QueryCache cache;
    cache.insert("cold", syntheticPoint(4, 64, 1));
    cache.insert("warm", syntheticPoint(8, 64, 2));
    cache.insert("hot", syntheticPoint(16, 64, 3));
    cache.saveFile(path); // written hottest first

    QueryCache fresh;
    fresh.setMaxEntries(2);
    fresh.loadFile(path); // replayed oldest first into the bound
    EXPECT_TRUE(fresh.contains("hot"));
    EXPECT_TRUE(fresh.contains("warm"));
    EXPECT_FALSE(fresh.contains("cold"));
    std::remove(path.c_str());
}

TEST(ServeCache, MissingFileLoadsNothingAndGarbageIsAConfigError)
{
    QueryCache cache;
    EXPECT_EQ(cache.loadFile("/tmp/ccsim_no_such_cache_file"), 0u);
    EXPECT_EQ(cache.size(), 0u);

    const std::string path = "/tmp/ccsim_cache_garbage.txt";
    {
        std::ofstream f(path);
        f << "not a cache file\n";
    }
    EXPECT_THROW(cache.loadFile(path), machine::ConfigError);

    // A current header over a broken record is still malformed.
    {
        std::ofstream f(path);
        f << "ccsim-query-cache v2 key=" << harness::kPointKeyVersion
          << " 1\nsome-key\nT3D|bcast|binomial|8|sixty-four|1|1|1\n";
    }
    EXPECT_THROW(cache.loadFile(path), machine::ConfigError);
    std::remove(path.c_str());
}

TEST(ServeCache, AStaleVersionFileStartsCold)
{
    // Files of an older format or key encoding hold keys that can
    // never hit: they load nothing, without failing the start-up.
    const std::string path = "/tmp/ccsim_cache_stale.txt";
    const char *stale[] = {
        "ccsim-query-cache v1 1\n",
        "ccsim-query-cache v2 key=v2 1\n",
    };
    for (const char *header : stale) {
        {
            std::ofstream f(path);
            f << header << "v2|1|4|...\n"
              << "T3D|bcast|binomial|8|64|1000|500|750\n";
        }
        QueryCache cache;
        EXPECT_EQ(cache.loadFile(path), 0u) << header;
        EXPECT_EQ(cache.size(), 0u) << header;
    }
    std::remove(path.c_str());
}

TEST(ServeCache, KeysLongerThanALineBufferSurviveSaveAndLoad)
{
    const std::string path = "/tmp/ccsim_cache_long_key.txt";
    std::remove(path.c_str());

    machine::MachineConfig cfg = machine::t3dConfig();
    cfg.topo_spec = "hier:2x4/" + std::string(5000, 'x');
    const std::string key =
        harness::measurePointKey(cfg, 8, machine::Coll::Bcast, 64);
    ASSERT_GT(key.size(), 4096u);

    QueryCache cache;
    cache.insert(key, syntheticPoint(8, 64, 4242));
    cache.insert("short", syntheticPoint(4, 64, 1));
    ASSERT_EQ(cache.saveFile(path), 2u);

    QueryCache fresh;
    EXPECT_EQ(fresh.loadFile(path), 2u);
    harness::Measurement out;
    ASSERT_TRUE(fresh.lookup(key, out));
    EXPECT_EQ(out.max_time, 4242);
    EXPECT_TRUE(fresh.contains("short"));
    std::remove(path.c_str());
}

/** A backfill job for one point on @p cfg. */
BackfillJob
jobFor(const machine::ConfigHandle &cfg, machine::Coll op, int p,
       Bytes m)
{
    BackfillJob job;
    job.cfg = cfg;
    job.p = p;
    job.op = op;
    job.m = m;
    job.key = harness::measurePointKey(*cfg, p, op, m,
                                       machine::Algo::Default);
    return job;
}

TEST(ServeBackfill, AStoppedQueueShedsInsteadOfAccepting)
{
    QueryCache cache;
    BackfillQueue queue(cache, 1);
    queue.stop();

    std::uint64_t ticket = 0;
    BackfillJob job = jobFor(machine::sharedPreset("T3D"),
                             machine::Coll::Barrier, 4, 0);
    EXPECT_FALSE(queue.trySubmit(job, ticket));
    EXPECT_EQ(queue.shed(), 1u);
}

TEST(ServeBackfill, TheBoundShedsNewKeysButStillCoalescesLiveOnes)
{
    QueryCache cache;
    BackfillQueue queue(cache, 1);
    auto cfg = machine::sharedPreset("T3D");

    // A heavy point occupies the single-threaded runner; until it
    // completes, everything below queues up behind it, so the bound
    // arithmetic is deterministic.
    std::uint64_t slow_ticket =
        queue.submit(jobFor(cfg, machine::Coll::Alltoall, 32,
                            64 * 1024));
    while (queue.queueDepth() > 0) // until the collector owns it
        std::this_thread::sleep_for(std::chrono::milliseconds(1));

    queue.setMaxPending(1);
    BackfillJob filler = jobFor(cfg, machine::Coll::Bcast, 4, 64);
    BackfillJob extra = jobFor(cfg, machine::Coll::Reduce, 4, 64);
    std::uint64_t t1 = 0, t2 = 0, t3 = 0;
    EXPECT_TRUE(queue.trySubmit(filler, t1)); // fills the bound
    EXPECT_FALSE(queue.trySubmit(extra, t2)); // new key: shed
    EXPECT_TRUE(queue.trySubmit(filler, t3)); // live key: coalesced
    EXPECT_EQ(queue.shed(), 1u);
    EXPECT_GE(queue.coalesced(), 1u);

    // Shedding never strands the work that WAS accepted.
    EXPECT_FALSE(queue.wait(slow_ticket).failed);
    BackfillResult r1 = queue.wait(t1);
    BackfillResult r3 = queue.wait(t3);
    EXPECT_FALSE(r1.failed);
    EXPECT_EQ(r1.meas.max_time, r3.meas.max_time);
}

TEST(ServeServer, HealthVerbReportsDaemonState)
{
    ServerOptions opts;
    opts.cache_max = 128;
    opts.backfill_max = 7;
    Server server(opts);

    std::string h = server.handleLine("health");
    EXPECT_EQ(h.rfind("{\"status\":\"ok\",\"health\":\"ok\"", 0), 0u)
        << h;
    EXPECT_NE(h.find("\"cache_size\":0"), std::string::npos) << h;
    EXPECT_NE(h.find("\"cache_max\":128"), std::string::npos);
    EXPECT_NE(h.find("\"backfill_max\":7"), std::string::npos);
    EXPECT_NE(h.find("\"shed\":0"), std::string::npos);
    EXPECT_NE(h.find("\"deadline_missed\":0"), std::string::npos);

    server.handleLine(
        "predict machine=T3D op=barrier p=4 tier=exact");
    std::string after = server.handleLine("health");
    EXPECT_NE(after.find("\"cache_size\":1"), std::string::npos)
        << after;
}

TEST(ServeServer, AMissedDeadlineDowngradesToAShedFastAnswer)
{
    Server server;
    // Far too heavy a point for a 1 ms deadline: the caller gets a
    // fast-tier estimate flagged as shed instead of blocking.
    std::string resp = server.handleLine(
        "predict machine=Paragon op=alltoall p=32 m=65536 tier=exact "
        "deadline_ms=1");
    EXPECT_NE(resp.find("\"tier\":\"fast\""), std::string::npos)
        << resp;
    EXPECT_NE(resp.find("\"shed\":true"), std::string::npos) << resp;
    auto snap = server.metricsSnapshot();
    EXPECT_EQ(snap.counters.at("serve.deadline_missed"), 1u);

    // The abandoned simulation still completes and feeds the cache,
    // so the same query later is exact and instantaneous.
    server.backfill().drain();
    std::string again = server.handleLine(
        "predict machine=Paragon op=alltoall p=32 m=65536 tier=exact");
    EXPECT_NE(again.find("\"tier\":\"cache\""), std::string::npos)
        << again;
    EXPECT_EQ(again.find("\"shed\""), std::string::npos) << again;
}

TEST(ServeServer, AFullBackfillQueueShedsToTheFastTier)
{
    ServerOptions opts;
    opts.backfill_max = 1;
    Server server(opts);

    // Occupy the runner with a heavy ticketed point (one no other
    // test simulates, so the harness-level memo cannot shortcut it)…
    server.handleLine(
        "predict machine=SP2 op=alltoall p=32 m=65536 tier=exact "
        "wait=ticket");
    while (server.backfill().queueDepth() > 0)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    // ...fill the single queue slot behind it...
    server.handleLine(
        "predict machine=T3D op=bcast p=8 m=256 tier=exact "
        "wait=ticket");
    // ...and the next new point is shed to the fast tier.
    std::string resp = server.handleLine(
        "predict machine=T3D op=reduce p=8 m=256 tier=exact");
    EXPECT_NE(resp.find("\"tier\":\"fast\""), std::string::npos)
        << resp;
    EXPECT_NE(resp.find("\"shed\":true"), std::string::npos) << resp;

    auto snap = server.metricsSnapshot();
    EXPECT_GE(snap.counters.at("serve.backfill_shed"), 1u);
    server.backfill().drain();
}

TEST(ServeServer, CacheFileWarmsTheNextStart)
{
    const std::string path = "/tmp/ccsim_serve_cache_restart.txt";
    std::remove(path.c_str());
    ServerOptions opts;
    opts.cache_file = path;
    const std::string q =
        "predict machine=T3D op=bcast p=8 m=1024 tier=exact";

    std::string first;
    {
        Server server(opts);
        server.start();
        first = server.handleLine(q);
        server.stop(); // persists the cache
    }

    Server server(opts);
    server.start(); // warms from the file
    std::string warmed = server.handleLine(q);
    server.stop();
    std::remove(path.c_str());

    // Byte-identical to the run that wrote the file, except the
    // answer now comes from the warmed cache.
    std::size_t at = first.find("\"tier\":\"exact\"");
    ASSERT_NE(at, std::string::npos) << first;
    first.replace(at, std::string("\"tier\":\"exact\"").size(),
                  "\"tier\":\"cache\"");
    EXPECT_EQ(warmed, first);
}

// ---- over TCP ------------------------------------------------------

TEST(ServeTcp, MalformedLineDoesNotDropTheConnection)
{
    Server server;
    server.start();

    Client client;
    client.connect(server.port());
    std::string err = client.request("predict tier=warp");
    EXPECT_NE(err.find("\"status\":\"error\""), std::string::npos);
    // Same connection, next request answers normally.
    EXPECT_EQ(client.request("ping"), pongResponse());
    client.close();
    server.stop();
}

/** The full query mix one client issues in the determinism test. */
std::vector<std::string>
queryMix()
{
    std::vector<std::string> lines;
    for (const char *op : {"bcast", "alltoall"})
        for (int p : {4, 8})
            for (int m : {256, 1024})
                lines.push_back(
                    "predict machine=T3D op=" + std::string(op) +
                    " p=" + std::to_string(p) +
                    " m=" + std::to_string(m) + " tier=exact");
    return lines;
}

/** Whether a point came from the exact tier or its replayed cache
 *  entry is a scheduling race; the payload must not be. */
std::string
normalizeTier(std::string resp)
{
    const std::string cache = "\"tier\":\"cache\"";
    auto at = resp.find(cache);
    if (at != std::string::npos)
        resp.replace(at, cache.size(), "\"tier\":\"exact\"");
    return resp;
}

/** Run @p clients concurrent clients through one daemon; returns
 *  each client's responses in request order, tier-normalized. */
std::vector<std::vector<std::string>>
runClients(int jobs, int clients)
{
    ServerOptions opts;
    opts.jobs = jobs;
    Server server(opts);
    server.start();

    std::vector<std::vector<std::string>> out(clients);
    std::vector<std::thread> threads;
    for (int c = 0; c < clients; ++c)
        threads.emplace_back([&, c] {
            Client client;
            client.connect(server.port());
            for (const std::string &q : queryMix())
                out[c].push_back(normalizeTier(client.request(q)));
        });
    for (auto &t : threads)
        t.join();
    server.stop();
    return out;
}

TEST(ServeTcp, ConcurrentClientsGetIdenticalAnswersAtAnyJobsLevel)
{
    auto serial = runClients(/*jobs=*/1, /*clients=*/4);
    auto pooled = runClients(/*jobs=*/2, /*clients=*/4);

    // Every client of every server sees the same answer for the same
    // query — simulation determinism survives the pool and the race
    // between cache and backfill.
    for (int c = 1; c < 4; ++c) {
        EXPECT_EQ(serial[0], serial[c]) << "client " << c;
        EXPECT_EQ(pooled[0], pooled[c]) << "client " << c;
    }
    EXPECT_EQ(serial[0], pooled[0]) << "jobs=1 vs jobs=2";
}

} // namespace
} // namespace ccsim::serve

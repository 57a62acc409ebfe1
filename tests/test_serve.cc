/**
 * @file
 * The prediction service: protocol strictness (malformed queries are
 * typed error responses, never dropped connections), cache-hit
 * byte-identity with direct simulation, the memo's bound and file as
 * the cache tier, fast-tier tolerance against the exact tier,
 * ticketed backfill, and concurrent-client determinism at different
 * --jobs levels.
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

#include "fault/fault_spec.hh"
#include "harness/measure.hh"
#include "machine/config_io.hh"
#include "serve/backfill.hh"
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
    // Every protocol mistake is ccsim::ConfigError (exit code 5),
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
        } catch (const ccsim::ConfigError &e) {
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
        ccsim::ConfigError);
}

TEST(ServeProtocol, HealthIsABareVerb)
{
    EXPECT_EQ(parseRequest("health").verb, Verb::Health);
    EXPECT_THROW(parseRequest("health p=4"), ccsim::ConfigError);
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

TEST(ServeServer, AlgorithmTheOperationLacksIsAConfigErrorOnBothTiers)
{
    const bool was = throwOnError(true); // as `ccsim serve` runs
    Server server;
    for (const char *tier : {"fast", "exact"}) {
        std::string resp = server.handleLine(
            std::string("predict machine=SP2 op=bcast p=8 m=64 "
                        "algo=pairwise tier=") +
            tier);
        EXPECT_NE(resp.find("\"component\":\"config\""),
                  std::string::npos)
            << tier << ": " << resp;
        EXPECT_NE(resp.find("bcast has no algorithm 'pairwise'"),
                  std::string::npos)
            << tier << ": " << resp;
    }
    EXPECT_EQ(server.handleLine("ping"), pongResponse());
    throwOnError(was);
}

TEST(ServeServer, CacheHitIsByteIdenticalToDirectSimulation)
{
    harness::memoClear(); // the first answer must be simulated
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
    harness::memoClear(); // the first answer must be simulated
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
        // A sanity check on three T3D points, not an error bound: the
        // fit misses by more elsewhere in the calibration region
        // (docs/SERVE.md), and a measured bound is ROADMAP item 2.
        EXPECT_GT(fast, exact.us() / 2.0)
            << collName(pt.op) << " p=" << pt.p << " m=" << pt.m;
        EXPECT_LT(fast, exact.us() * 2.0)
            << collName(pt.op) << " p=" << pt.p << " m=" << pt.m;
    }
}

TEST(ServeServer, FastPathFitIsFitMachineModel)
{
    // The fast tier calibrates through harness::fitMachineModel over
    // its own grid: the same coefficients and growth bases, so a
    // fast answer is the fitted model's answer.
    auto cfg = machine::sharedPreset("T3D");
    FastPath fastpath;
    for (machine::Coll op :
         {machine::Coll::Bcast, machine::Coll::Barrier}) {
        const model::TimingExpression fast =
            fastpath.expressionFor(*cfg, op, machine::Algo::Default);
        const model::TimingExpression fitted =
            harness::fitMachineModel(*cfg, {op},
                                     FastPath::calibrationSizes(),
                                     FastPath::calibrationLengths(),
                                     FastPath::calibrationOptions())
                .expression(op);
        EXPECT_EQ(fast.t0_growth, fitted.t0_growth) << collName(op);
        EXPECT_EQ(fast.d_growth, fitted.d_growth) << collName(op);
        EXPECT_EQ(fast.a, fitted.a) << collName(op);
        EXPECT_EQ(fast.b, fitted.b) << collName(op);
        EXPECT_EQ(fast.c, fitted.c) << collName(op);
        EXPECT_EQ(fast.d, fitted.d) << collName(op);
    }
}

TEST(ServeServer, TicketFlowDeliversTheExactAnswer)
{
    harness::memoClear(); // a stored point would answer at once
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
    harness::memoClear(); // the first answer must be simulated
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
    harness::memoClear(); // the slow point must really simulate
    BackfillQueue queue(1);

    // Keep the single worker busy on a slow point first so the two
    // duplicate submissions below are both pending at once — without
    // it, the tiny p=4 barrier can finish between the two trySubmit()
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
    std::uint64_t ts = 0;
    ASSERT_TRUE(queue.trySubmit(slow, ts));

    BackfillJob job;
    job.cfg = machine::sharedPreset("T3D");
    job.p = 4;
    job.op = machine::Coll::Barrier;
    job.algo = machine::Algo::Default;
    job.key = harness::measurePointKey(*job.cfg, 4,
                                       machine::Coll::Barrier, 0,
                                       machine::Algo::Default);

    std::uint64_t t1 = 0, t2 = 0;
    ASSERT_TRUE(queue.trySubmit(job, t1));
    ASSERT_TRUE(queue.trySubmit(job, t2));
    EXPECT_FALSE(queue.wait(ts).failed);
    BackfillResult r1 = queue.wait(t1);
    BackfillResult r2 = queue.wait(t2);
    EXPECT_FALSE(r1.failed);
    EXPECT_EQ(r1.meas.max_time, r2.meas.max_time);
    EXPECT_GE(queue.coalesced(), 1u);
    EXPECT_TRUE(harness::memoLookup(job.key, *job.cfg, job.p, job.op,
                                    job.m, job.algo));
}

// ---- hardening: LRU bound, persistence, shedding, health -----------

/** Puts the memo's bound back as it found it on scope exit. */
struct MemoBoundGuard
{
    std::size_t saved = harness::memoMaxEntries();
    ~MemoBoundGuard() { harness::memoSetMaxEntries(saved); }
};

/**
 * The daemon's cache tier is the process-wide harness memo, so these
 * tests drive the memo's bound and file directly.  Each starts with
 * an empty, unbounded memo and leaves the bound as it found it.
 */
class ServeCache : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        harness::memoClear();
        harness::memoSetMaxEntries(0);
    }

  private:
    MemoBoundGuard bound_;
};

/** T3D's barrier at @p p, a tiny real point for the store tests. */
harness::Measurement
barrierPoint(int p)
{
    return harness::measureCollective(*machine::sharedPreset("T3D"), p,
                                      machine::Coll::Barrier, 0);
}

/** The memo's answer for @p meas's point (a lookup: it refreshes the
 *  entry's recency). */
std::optional<harness::Measurement>
lookup(const harness::Measurement &meas)
{
    const machine::MachineConfig &cfg =
        *machine::sharedPreset(meas.machine);
    return harness::memoLookup(
        harness::measurePointKey(cfg, meas.p, meas.op, meas.m, meas.algo),
        cfg, meas.p, meas.op, meas.m, meas.algo);
}

/** The header of a current memo file holding @p n entries. */
std::string
memoFileHeader(int n)
{
    return std::string("ccsim-query-cache v3 key=") +
           harness::kPointKeyVersion + " " + std::to_string(n) + "\n";
}

TEST_F(ServeCache, LruBoundEvictsTheLeastRecentlyAnsweredEntry)
{
    harness::memoSetMaxEntries(2);
    const harness::Measurement a = barrierPoint(2);
    const harness::Measurement b = barrierPoint(4);

    ASSERT_TRUE(lookup(a)); // "a" is hot again
    const harness::Measurement c = barrierPoint(8);

    EXPECT_TRUE(lookup(a));
    EXPECT_FALSE(lookup(b)) << "b was the coldest entry";
    EXPECT_TRUE(lookup(c));
    EXPECT_EQ(harness::memoSize(), 2u);
    EXPECT_EQ(harness::memoStats().evictions, 1u);
}

TEST_F(ServeCache, ShrinkingTheBoundEvictsImmediately)
{
    harness::Measurement hottest;
    for (int p : {2, 4, 8, 16})
        hottest = barrierPoint(p);
    harness::memoSetMaxEntries(1);
    EXPECT_EQ(harness::memoSize(), 1u);
    EXPECT_TRUE(lookup(hottest)) << "hottest entry survives";
    EXPECT_EQ(harness::memoStats().evictions, 3u);
}

TEST_F(ServeCache, SaveLoadRoundTripsEveryField)
{
    const std::string path = "/tmp/ccsim_cache_roundtrip.txt";
    std::remove(path.c_str());

    const harness::Measurement in = harness::measureCollective(
        *machine::sharedPreset("T3D"), 8, machine::Coll::Bcast, 4096);
    barrierPoint(16);
    EXPECT_EQ(harness::memoSave(path), 2u);

    harness::memoClear();
    EXPECT_EQ(harness::memoLoad(path), 2u);
    std::optional<harness::Measurement> out = lookup(in);
    ASSERT_TRUE(out);
    EXPECT_EQ(out->machine, in.machine);
    EXPECT_EQ(out->op, in.op);
    EXPECT_EQ(out->algo, in.algo);
    EXPECT_EQ(out->p, in.p);
    EXPECT_EQ(out->m, in.m);
    EXPECT_EQ(out->max_time, in.max_time);
    EXPECT_EQ(out->min_time, in.min_time);
    EXPECT_EQ(out->mean_time, in.mean_time);
    std::remove(path.c_str());
}

TEST_F(ServeCache, BoundedReloadKeepsTheHottestEntries)
{
    const std::string path = "/tmp/ccsim_cache_bounded.txt";
    std::remove(path.c_str());

    const harness::Measurement cold = barrierPoint(2);
    const harness::Measurement warm = barrierPoint(4);
    const harness::Measurement hot = barrierPoint(8);
    harness::memoSave(path); // written hottest first

    harness::memoClear();
    harness::memoSetMaxEntries(2);
    harness::memoLoad(path); // replayed oldest first into the bound
    EXPECT_TRUE(lookup(hot));
    EXPECT_TRUE(lookup(warm));
    EXPECT_FALSE(lookup(cold));
    std::remove(path.c_str());
}

TEST_F(ServeCache, MissingFileLoadsNothingAndGarbageIsAConfigError)
{
    EXPECT_EQ(harness::memoLoad("/tmp/ccsim_no_such_cache_file"), 0u);
    EXPECT_EQ(harness::memoSize(), 0u);

    const std::string path = "/tmp/ccsim_cache_garbage.txt";
    {
        std::ofstream f(path);
        f << "not a cache file\n";
    }
    EXPECT_THROW(harness::memoLoad(path), ccsim::ConfigError);

    // A current header over a broken record is still malformed, and
    // the error names the record's line.
    {
        std::ofstream f(path);
        f << memoFileHeader(1) << "some-key\n1|sixty-four|1\n";
    }
    try {
        harness::memoLoad(path);
        ADD_FAILURE() << "no error for a broken record";
    } catch (const ccsim::ConfigError &e) {
        EXPECT_NE(std::string(e.what()).find(path + ":3:"),
                  std::string::npos)
            << e.what();
    }
    EXPECT_EQ(harness::memoSize(), 0u);
    std::remove(path.c_str());
}

TEST_F(ServeCache, AStaleVersionFileStartsCold)
{
    // Files of an older format or key encoding hold keys that can
    // never hit: they load nothing, without failing the start-up.
    // v2 is the former query cache's format, whose entries carried a
    // whole Measurement.
    const std::string path = "/tmp/ccsim_cache_stale.txt";
    const std::string stale[] = {
        "ccsim-query-cache v1 1\n",
        "ccsim-query-cache v2 key=v2 1\n",
        "ccsim-query-cache v2 key=v5 1\n",
        "ccsim-query-cache v3 key=v4 1\n",
    };
    for (const std::string &header : stale) {
        {
            std::ofstream f(path);
            f << header << "v2|1|4|...\n"
              << "T3D|bcast|binomial|8|64|1000|500|750\n";
        }
        EXPECT_EQ(harness::memoLoad(path), 0u) << header;
        EXPECT_EQ(harness::memoSize(), 0u) << header;
    }
    std::remove(path.c_str());
}

TEST_F(ServeCache, KeysLongerThanALineBufferSurviveSaveAndLoad)
{
    const std::string path = "/tmp/ccsim_cache_long_key.txt";

    machine::MachineConfig cfg = machine::t3dConfig();
    cfg.topo_spec = "hier:2x4/" + std::string(5000, 'x');
    const std::string key =
        harness::measurePointKey(cfg, 8, machine::Coll::Bcast, 64);
    ASSERT_GT(key.size(), 4096u);
    {
        std::ofstream f(path);
        f << memoFileHeader(2) << key << "\n4242|2121|3181\n"
          << "short\n1|1|1\n";
    }
    ASSERT_EQ(harness::memoLoad(path), 2u);
    ASSERT_EQ(harness::memoSave(path), 2u);

    harness::memoClear();
    EXPECT_EQ(harness::memoLoad(path), 2u);
    auto out = harness::memoLookup(key, cfg, 8, machine::Coll::Bcast, 64,
                                   machine::Algo::Binomial);
    ASSERT_TRUE(out);
    EXPECT_EQ(out->max_time, 4242);
    EXPECT_TRUE(harness::memoLookup("short", cfg, 4, machine::Coll::Bcast,
                                    64, machine::Algo::Binomial));
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
    BackfillQueue queue(1);
    queue.stop();

    std::uint64_t ticket = 0;
    BackfillJob job = jobFor(machine::sharedPreset("T3D"),
                             machine::Coll::Barrier, 4, 0);
    EXPECT_FALSE(queue.trySubmit(job, ticket));
    EXPECT_EQ(queue.shed(), 1u);
}

TEST(ServeBackfill, TheBoundShedsNewKeysButStillCoalescesLiveOnes)
{
    harness::memoClear(); // the heavy point must really simulate
    BackfillQueue queue(1);
    auto cfg = machine::sharedPreset("T3D");

    // A heavy point occupies the single-threaded runner; until it
    // completes, everything below queues up behind it, so the bound
    // arithmetic is deterministic.
    std::uint64_t slow_ticket = 0;
    ASSERT_TRUE(queue.trySubmit(
        jobFor(cfg, machine::Coll::Alltoall, 32, 64 * 1024),
        slow_ticket));
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
    harness::memoClear(); // the daemon's store starts empty
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
    // The point must be cold: a process-wide memo warmed by an earlier
    // run of this test would answer it at once.
    harness::memoClear();
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
    // The heavy point must be cold: a process-wide memo warmed by an
    // earlier run of this test would answer it at once.
    harness::memoClear();
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
    harness::memoClear(); // the first answer must be simulated
    {
        Server server(opts);
        server.start();
        first = server.handleLine(q);
        server.stop(); // persists the cache
    }

    // One store per process: empty it, so the second answer can only
    // come from the file.
    harness::memoClear();
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

TEST(ServeServer, CacheMaxBoundsTheWholeStore)
{
    // The memo is the process's one store of answers, so --cache-max
    // bounds what the daemon keeps, not only what tier 1 answers from.
    harness::memoClear();
    MemoBoundGuard bound;
    ServerOptions opts;
    opts.cache_max = 8;
    Server server(opts);
    for (int p = 2; p <= 101; ++p) {
        const std::string resp = server.handleLine(
            "predict machine=T3D op=barrier p=" + std::to_string(p) +
            " tier=exact");
        EXPECT_NE(resp.find("\"tier\":\"exact\""), std::string::npos)
            << resp;
        ASSERT_LE(harness::memoSize(), 8u) << "after p=" << p;
    }
    EXPECT_EQ(
        server.metricsSnapshot().counters.at("serve.cache_evictions"),
        92u);
}

TEST(ServeServer, APointMeasuredInProcessIsACacheHit)
{
    // measureCollective stores what it simulates in the same memo the
    // daemon answers from, so a fresh daemon answers it from tier 1.
    harness::memoClear();
    const harness::Measurement meas = harness::measureCollective(
        *machine::sharedPreset("T3D"), 8, machine::Coll::Bcast, 2048);
    Server server;
    EXPECT_EQ(server.handleLine(
                  "predict machine=T3D op=bcast p=8 m=2048 tier=exact"),
              okResponse(Answer::of(meas, AnswerTier::Cache)));
}

// ---- fault state keys requests apart ------------------------------

/** Save @p cfg under a per-test name; return the path.  Config files
 *  are parsed once per path per process, so names must not repeat. */
std::string
configFile(const machine::MachineConfig &cfg, const std::string &name)
{
    const std::string path = "/tmp/ccsim_serve_" + name + ".cfg";
    machine::saveConfigFile(cfg, path);
    return path;
}

/** T3D with a fixed straggler scenario; seed varies the draw. */
machine::MachineConfig
stragglerT3d(int seed)
{
    machine::MachineConfig cfg = machine::t3dConfig();
    cfg.fault = fault::parseFaultSpec(
        "straggler=0.5,straggler_factor=8,seed=" + std::to_string(seed));
    return cfg;
}

/** Ticket number of a pending response. */
std::uint64_t
ticketOf(const std::string &pending)
{
    EXPECT_EQ(pending.rfind("{\"status\":\"pending\"", 0), 0u)
        << pending;
    return std::stoull(pending.substr(pending.rfind(':') + 1));
}

/** Occupy the single backfill worker so that the submissions after
 *  it are pending together.  A faulty point never hits the memo
 *  cache, so it simulates however many tests ran before. */
void
busyBackfill(Server &server)
{
    const std::string busy = configFile(stragglerT3d(9), "busy");
    server.handleLine("predict config=" + busy +
                      " op=alltoall p=32 m=4096 tier=exact wait=ticket");
}

TEST(ServeServer, CleanAndStragglerFilesGetSeparateFastPathFits)
{
    const std::string clean =
        configFile(machine::t3dConfig(), "fit_clean");
    const std::string slow = configFile(stragglerT3d(3), "fit_slow");
    const std::string q = " op=bcast p=16 m=1024 tier=fast";

    Server fresh;
    const std::string alone = fresh.handleLine("predict config=" +
                                               clean + q);

    // A straggler query first must not leave its fit behind for the
    // clean machine.
    Server server;
    server.handleLine("predict config=" + slow + q);
    EXPECT_EQ(server.handleLine("predict config=" + clean + q), alone);
    EXPECT_EQ(server.fastPath().fits(), 2u);
}

TEST(ServeServer, IdenticalFaultyTicketsCoalesce)
{
    const std::string path =
        configFile(stragglerT3d(5), "coalesce_same");
    const std::string q = "predict config=" + path +
                          " op=alltoall p=8 m=1024 tier=exact "
                          "wait=ticket";
    Server server;
    busyBackfill(server);
    const std::uint64_t t1 = ticketOf(server.handleLine(q));
    const std::uint64_t t2 = ticketOf(server.handleLine(q));
    server.backfill().drain();

    EXPECT_EQ(server.backfill().coalesced(), 1u);
    const std::string a =
        server.handleLine("poll ticket=" + std::to_string(t1));
    EXPECT_NE(a.find("\"tier\":\"exact\""), std::string::npos) << a;
    EXPECT_EQ(server.handleLine("poll ticket=" + std::to_string(t2)),
              a);
}

TEST(ServeServer, FaultSeedsKeepTicketsApart)
{
    const std::string seed5 = configFile(stragglerT3d(5), "seed_5");
    const std::string seed6 = configFile(stragglerT3d(6), "seed_6");
    const std::string q = " op=alltoall p=8 m=1024 tier=exact "
                          "wait=ticket";
    Server server;
    busyBackfill(server);
    const std::uint64_t t5 =
        ticketOf(server.handleLine("predict config=" + seed5 + q));
    const std::uint64_t t6 =
        ticketOf(server.handleLine("predict config=" + seed6 + q));
    server.backfill().drain();

    EXPECT_EQ(server.backfill().coalesced(), 0u);
    for (std::uint64_t t : {t5, t6}) {
        const std::string r =
            server.handleLine("poll ticket=" + std::to_string(t));
        EXPECT_NE(r.find("\"tier\":\"exact\""), std::string::npos)
            << r;
    }
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

/**
 * @file
 * Tests for the observability layer (src/stats/) and the unified
 * error/CLI surface it ships with: histogram merge exactness,
 * snapshot merge semantics and byte-stable serialization, the
 * metrics-never-perturb-simulated-time guarantee, --jobs
 * determinism of per-point snapshots, the per-point metrics reset
 * of replay call listeners, typed error exit codes, and cli::Options.
 */

#include <sstream>
#include <vector>

#include <gtest/gtest.h>

#include "harness/measure.hh"
#include "harness/sweep.hh"
#include "machine/config_io.hh"
#include "machine/machine_config.hh"
#include "replay/recorder.hh"
#include "replay/replayer.hh"
#include "replay/trace_parser.hh"
#include "stats/metrics.hh"
#include "stats/snapshot.hh"
#include "util/cli.hh"
#include "util/error.hh"
#include "util/logging.hh"

namespace ccsim::stats {
namespace {

// ---- histogram --------------------------------------------------------

TEST(Histogram, EmptyIsZero)
{
    Histogram h;
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.totalWeight(), 0.0);
    EXPECT_EQ(h.mean(), 0.0);
    EXPECT_EQ(h.min(), 0.0);
    EXPECT_EQ(h.max(), 0.0);
}

TEST(Histogram, BucketRanges)
{
    Histogram h;
    h.add(0.0);  // bucket 0: <= 1
    h.add(1.0);  // bucket 0 boundary
    h.add(1.5);  // bucket 1: (1, 2]
    h.add(2.0);  // bucket 1 boundary
    h.add(3.0);  // bucket 2: (2, 4]
    h.add(1024.0); // bucket 10 boundary
    EXPECT_EQ(h.bucketWeight(0), 2.0);
    EXPECT_EQ(h.bucketWeight(1), 2.0);
    EXPECT_EQ(h.bucketWeight(2), 1.0);
    EXPECT_EQ(h.bucketWeight(10), 1.0);
    EXPECT_EQ(Histogram::bucketUpperBound(0), 1.0);
    EXPECT_EQ(Histogram::bucketUpperBound(10), 1024.0);
}

TEST(Histogram, WeightedMean)
{
    Histogram h;
    h.add(10.0, 3.0);
    h.add(20.0, 1.0);
    EXPECT_EQ(h.count(), 2u);
    EXPECT_DOUBLE_EQ(h.totalWeight(), 4.0);
    EXPECT_DOUBLE_EQ(h.mean(), (10.0 * 3.0 + 20.0 * 1.0) / 4.0);
    EXPECT_EQ(h.min(), 10.0);
    EXPECT_EQ(h.max(), 20.0);
}

/** merge() must equal adding all observations to one histogram. */
TEST(Histogram, MergeIsExact)
{
    std::vector<std::pair<double, double>> a = {
        {0.5, 1.0}, {3.0, 2.0}, {100.0, 0.25}};
    std::vector<std::pair<double, double>> b = {
        {7.0, 1.0}, {1e9, 5.0}, {0.0, 3.0}, {3.0, 1.0}};

    Histogram ha, hb, hboth;
    for (auto [v, w] : a) {
        ha.add(v, w);
        hboth.add(v, w);
    }
    for (auto [v, w] : b) {
        hb.add(v, w);
        hboth.add(v, w);
    }
    ha.merge(hb);

    EXPECT_EQ(ha.count(), hboth.count());
    EXPECT_DOUBLE_EQ(ha.totalWeight(), hboth.totalWeight());
    EXPECT_DOUBLE_EQ(ha.weightedSum(), hboth.weightedSum());
    EXPECT_EQ(ha.min(), hboth.min());
    EXPECT_EQ(ha.max(), hboth.max());
    for (int i = 0; i < Histogram::kBuckets; ++i)
        EXPECT_EQ(ha.bucketWeight(i), hboth.bucketWeight(i)) << i;
}

TEST(Histogram, MergeWithEmpty)
{
    Histogram h, empty;
    h.add(5.0, 2.0);
    h.merge(empty);
    EXPECT_EQ(h.count(), 1u);
    EXPECT_EQ(h.min(), 5.0);

    empty.merge(h);
    EXPECT_EQ(empty.count(), 1u);
    EXPECT_EQ(empty.min(), 5.0);
    EXPECT_EQ(empty.max(), 5.0);
}

TEST(HistogramSnapshot, MirrorsMerge)
{
    Histogram ha, hb;
    ha.add(2.0, 1.0);
    ha.add(300.0, 4.0);
    hb.add(0.25, 2.0);
    hb.add(300.0, 1.0);

    HistogramSnapshot sa = HistogramSnapshot::of(ha);
    sa.merge(HistogramSnapshot::of(hb));

    ha.merge(hb);
    HistogramSnapshot ref = HistogramSnapshot::of(ha);

    EXPECT_EQ(sa.count, ref.count);
    EXPECT_DOUBLE_EQ(sa.total_weight, ref.total_weight);
    EXPECT_DOUBLE_EQ(sa.weighted_sum, ref.weighted_sum);
    EXPECT_EQ(sa.min, ref.min);
    EXPECT_EQ(sa.max, ref.max);
    EXPECT_EQ(sa.buckets, ref.buckets);
}

// ---- snapshot merge and serialization ---------------------------------

TEST(MetricsSnapshot, MergeSemantics)
{
    MetricsSnapshot a, b;
    a.counters["n"] = 3;
    a.counters["only_a"] = 1;
    a.gauges["hw"] = 5.0;
    a.links.push_back({"link00000", 100, 2.0, 0.5, 0.2});
    a.horizon_us = 10.0;

    b.counters["n"] = 4;
    b.gauges["hw"] = 7.0;
    b.gauges["only_b"] = 1.0;
    b.links.push_back({"link00000", 50, 1.0, 0.0, 0.1});
    b.links.push_back({"link00001", 10, 0.5, 0.0, 0.05});
    b.horizon_us = 8.0;

    a.merge(b);
    EXPECT_EQ(a.counters["n"], 7u);       // counters add
    EXPECT_EQ(a.counters["only_a"], 1u);
    EXPECT_EQ(a.gauges["hw"], 7.0);       // gauges take the max
    EXPECT_EQ(a.gauges["only_b"], 1.0);
    EXPECT_EQ(a.horizon_us, 10.0);        // horizon takes the max
    ASSERT_EQ(a.links.size(), 2u);        // link rows add by label
    EXPECT_EQ(a.links[0].link, "link00000");
    EXPECT_EQ(a.links[0].bytes, 150u);
    EXPECT_DOUBLE_EQ(a.links[0].busy_us, 3.0);
    EXPECT_EQ(a.links[1].link, "link00001");
}

TEST(MetricsSnapshot, EmptyAndAggregates)
{
    MetricsSnapshot s;
    EXPECT_TRUE(s.empty());
    EXPECT_EQ(s.maxLinkUtil(), 0.0);

    s.links.push_back({"a", 1, 2.0, 1.0, 0.3});
    s.links.push_back({"b", 1, 4.0, 0.5, 0.7});
    EXPECT_FALSE(s.empty());
    EXPECT_DOUBLE_EQ(s.maxLinkUtil(), 0.7);
    EXPECT_DOUBLE_EQ(s.totalStallUs(), 1.5);
    EXPECT_DOUBLE_EQ(s.totalLinkBusyUs(), 6.0);
}

// ---- end-to-end guarantees --------------------------------------------

harness::MeasureOptions
quickOptions(bool metrics)
{
    harness::MeasureOptions o;
    o.iterations = 2;
    o.repetitions = 1;
    o.warmup = 1;
    o.metrics = metrics;
    return o;
}

/** Metrics are observation-only: simulated times must not move. */
TEST(MetricsEndToEnd, CollectionLeavesTimesUnchanged)
{
    for (const auto &cfg :
         {machine::paragonConfig(), machine::sp2Config()}) {
        auto off = harness::measureCollective(
            cfg, 8, machine::Coll::Alltoall, 4096,
            machine::Algo::Default, quickOptions(false));
        auto on = harness::measureCollective(
            cfg, 8, machine::Coll::Alltoall, 4096,
            machine::Algo::Default, quickOptions(true));
        EXPECT_EQ(off.max_time, on.max_time) << cfg.name;
        EXPECT_EQ(off.min_time, on.min_time) << cfg.name;
        EXPECT_EQ(off.mean_time, on.mean_time) << cfg.name;
        EXPECT_TRUE(off.metrics.empty());
        EXPECT_FALSE(on.metrics.empty());
    }
}

TEST(MetricsEndToEnd, SnapshotContents)
{
    auto meas = harness::measureCollective(
        machine::paragonConfig(), 8, machine::Coll::Alltoall, 4096,
        machine::Algo::Default, quickOptions(true));
    const MetricsSnapshot &s = meas.metrics;

    // The transport moved messages and the links carried them.
    auto counter = [&](const char *n) {
        auto it = s.counters.find(n);
        return it == s.counters.end() ? 0u : it->second;
    };
    EXPECT_GT(counter("msg.recvs"), 0u);
    EXPECT_GT(counter("net.messages"), 0u);
    EXPECT_GT(counter("net.payload_bytes"), 0u);
    EXPECT_GT(counter("sim.events"), 0u);
    EXPECT_GT(counter("coll.alltoall.calls"), 0u);
    ASSERT_FALSE(s.links.empty());
    EXPECT_GT(s.maxLinkUtil(), 0.0);
    EXPECT_LE(s.maxLinkUtil(), 1.0);
    EXPECT_GT(s.horizon_us, 0.0);

    // Fault counters exist (zero: no faults configured).
    EXPECT_EQ(counter("fault.drops"), 0u);

    // Serialization round: stable, non-empty, and repeatable.
    EXPECT_FALSE(s.toCsv().empty());
    EXPECT_FALSE(s.toJson().empty());
    EXPECT_EQ(s.toCsv(), s.toCsv());
}

/** Per-point snapshots are identical at any --jobs level. */
TEST(MetricsEndToEnd, SweepJobsDeterminism)
{
    harness::SweepSpec spec;
    spec.machines = {machine::t3dConfig(), machine::paragonConfig()};
    spec.ops = {machine::Coll::Bcast, machine::Coll::Alltoall};
    spec.sizes = {4, 8};
    spec.lengths = {1024};
    spec.options = quickOptions(true);

    harness::SweepRunner serial(1);
    harness::SweepRunner pool(4);
    auto r1 = serial.run(spec);
    auto r4 = pool.run(spec);
    ASSERT_EQ(r1.size(), r4.size());
    for (std::size_t i = 0; i < r1.size(); ++i) {
        EXPECT_EQ(r1[i].max_time, r4[i].max_time) << i;
        EXPECT_EQ(r1[i].metrics.toCsv(), r4[i].metrics.toCsv()) << i;
    }
}

// ---- replay: per-point reset of snapshots and listeners ---------------

replay::Program
tinyProgram()
{
    std::istringstream is("# ccsim trace v1\n"
                          "np 2\n"
                          "0 send 1 4096 tag=1\n"
                          "1 recv 0 tag=1\n"
                          "0 barrier\n"
                          "1 barrier\n");
    return replay::TraceParser::parse(is, "tiny.trace");
}

/** Repeated sweep points are byte-identical: the probe's point reset
 *  zeroes the machine metrics and resets the attached listener. */
TEST(MetricsEndToEnd, ReplayRepeatedPointsIdentical)
{
    replay::Program prog = tinyProgram();
    replay::Recorder rec(2);

    replay::ReplayPoint pt;
    pt.cfg = machine::t3dConfig();
    pt.options.metrics = true;
    pt.options.listener = &rec;

    // A shared listener requires --jobs 1 (documented contract).
    harness::SweepRunner runner(1);
    auto results = replaySweep(prog, {pt, pt, pt}, runner);
    ASSERT_EQ(results.size(), 3u);
    for (std::size_t i = 1; i < results.size(); ++i) {
        EXPECT_EQ(results[0].completion, results[i].completion) << i;
        EXPECT_EQ(results[0].metrics.toCsv(),
                  results[i].metrics.toCsv())
            << i;
    }

    // The recorder holds exactly one point's actions, not three.
    std::ostringstream os;
    rec.write(os);
    replay::Program last = tinyProgram();
    std::ostringstream ref;
    // Re-recording the same program reproduces its action count.
    std::istringstream is(os.str());
    replay::Program got = replay::TraceParser::parse(is, "rec.trace");
    ASSERT_EQ(got.np, last.np);
    for (int r = 0; r < got.np; ++r)
        EXPECT_EQ(got.ranks[static_cast<std::size_t>(r)].size(),
                  last.ranks[static_cast<std::size_t>(r)].size())
            << r;
}

/** The point-reset event drops recorded actions but keeps the rank
 *  count. */
TEST(Recorder, MetricsResetClearsActions)
{
    replay::Recorder rec(2);
    rec.onCall({.kind = machine::CallKind::Send, .node = 0, .peer = 1,
                .tag = 7, .bytes = 128});
    rec.onCall({.kind = machine::CallKind::Recv, .node = 1, .peer = 0,
                .tag = 7});
    rec.onReset();
    std::ostringstream os;
    rec.write(os);
    std::istringstream is(os.str());
    replay::Program p = replay::TraceParser::parse(is, "r.trace");
    EXPECT_EQ(p.np, 2);
    EXPECT_TRUE(p.ranks[0].empty());
    EXPECT_TRUE(p.ranks[1].empty());
}

} // namespace
} // namespace ccsim::stats

// ---- unified error surface --------------------------------------------

namespace ccsim {
namespace {

class ErrorSurfaceTest : public ::testing::Test
{
  protected:
    void SetUp() override { prev_ = throwOnError(true); }
    void TearDown() override { throwOnError(prev_); }

  private:
    bool prev_ = false;
};

TEST_F(ErrorSurfaceTest, ConfigErrorCodeAndFormat)
{
    try {
        machine::presetByName("nosuchmachine");
        FAIL() << "presetByName accepted a bogus preset";
    } catch (const Error &e) {
        EXPECT_EQ(e.exitCode(), kConfigExit);
        EXPECT_EQ(e.component(), "config");
        EXPECT_EQ(e.formatted().rfind("ccsim config error: ", 0), 0u)
            << e.formatted();
    }
}

TEST_F(ErrorSurfaceTest, TraceErrorCodeAndFormat)
{
    std::istringstream is("np 2\nbogus line\n");
    try {
        replay::TraceParser::parse(is, "bad.trace");
        FAIL() << "parser accepted a bogus trace";
    } catch (const Error &e) {
        EXPECT_EQ(e.exitCode(), kTraceExit);
        EXPECT_EQ(e.component(), "replay");
    }
}

TEST_F(ErrorSurfaceTest, TypedErrorsRemainFatalError)
{
    // Existing call sites catch FatalError; the typed subclasses must
    // stay substitutable for it.
    EXPECT_THROW(machine::presetByName("nope"), FatalError);
    EXPECT_THROW(machine::presetByName("nope"), ccsim::ConfigError);
    std::istringstream is("np 0\n");
    EXPECT_THROW(replay::TraceParser::parse(is, "b.trace"),
                 replay::TraceError);
}

// ---- cli::Options -----------------------------------------------------

TEST_F(ErrorSurfaceTest, CliOptionsParsesDeclaredSchema)
{
    cli::Options o("prog");
    o.flag("quick", "fast mode");
    o.value("machine", "preset", "NAME");
    o.value("p", "nodes", "N");
    o.value("scale", "factors", "LIST");
    o.value("absent", "never passed", "X");

    const char *argv[] = {"prog",      "--quick", "--machine",
                          "T3D",       "--p",     "16",
                          "--scale",   "1,2,4"};
    o.parse(8, const_cast<char **>(argv), 1);
    EXPECT_TRUE(o.has("quick"));
    EXPECT_EQ(o.get("machine"), "T3D");
    EXPECT_EQ(o.getInt("p", 0), 16);
    EXPECT_EQ(o.getList("scale"),
              (std::vector<std::string>{"1", "2", "4"}));
    EXPECT_EQ(o.get("absent", "dflt"), "dflt");
    EXPECT_FALSE(o.usage().empty());
}

TEST_F(ErrorSurfaceTest, CliOptionsRejectsUndeclared)
{
    cli::Options o("prog");
    o.flag("quick", "fast mode");
    const char *argv[] = {"prog", "--bogus"};
    EXPECT_THROW(o.parse(2, const_cast<char **>(argv), 1), FatalError);
}

TEST_F(ErrorSurfaceTest, CliOptionsRejectsMissingValue)
{
    cli::Options o("prog");
    o.value("p", "nodes", "N");
    const char *argv[] = {"prog", "--p"};
    EXPECT_THROW(o.parse(2, const_cast<char **>(argv), 1), FatalError);
    const char *argv2[] = {"prog", "--p", "notanumber"};
    o.parse(3, const_cast<char **>(argv2), 1);
    EXPECT_THROW(o.getInt("p", 0), FatalError);
}

} // namespace
} // namespace ccsim

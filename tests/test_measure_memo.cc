/**
 * @file
 * The measureCollective memo cache: cached results must be
 * bit-identical to re-simulated ones, ineligible points must bypass
 * the cache, the statistics must account for every lookup, and a
 * bound must evict the least recently used point.
 */

#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "harness/measure.hh"
#include "harness/sweep.hh"
#include "machine/config_io.hh"
#include "machine/machine_config.hh"

namespace ccsim::harness {
namespace {

/** Field-by-field equality over everything a Measurement carries. */
void
expectIdentical(const Measurement &a, const Measurement &b)
{
    EXPECT_EQ(a.machine, b.machine);
    EXPECT_EQ(a.op, b.op);
    EXPECT_EQ(a.algo, b.algo);
    EXPECT_EQ(a.m, b.m);
    EXPECT_EQ(a.p, b.p);
    EXPECT_EQ(a.max_time, b.max_time);
    EXPECT_EQ(a.min_time, b.min_time);
    EXPECT_EQ(a.mean_time, b.mean_time);
    EXPECT_EQ(a.fault_drops, b.fault_drops);
    EXPECT_EQ(a.fault_retransmits, b.fault_retransmits);
    EXPECT_EQ(a.fault_delays, b.fault_delays);
    EXPECT_EQ(a.metrics.empty(), b.metrics.empty());
}

MeasureOptions
noMemo()
{
    MeasureOptions o;
    o.memoize = false;
    return o;
}

TEST(MeasureMemo, CachedResultIsByteIdenticalToUncached)
{
    memoClear();
    auto cfg = machine::sp2Config();

    Measurement plain = measureCollective(cfg, 8, machine::Coll::Bcast,
                                          1024, machine::Algo::Default,
                                          noMemo());

    MeasureOptions memo; // memoize = true by default
    Measurement miss = measureCollective(cfg, 8, machine::Coll::Bcast,
                                         1024, machine::Algo::Default,
                                         memo);
    Measurement hit = measureCollective(cfg, 8, machine::Coll::Bcast,
                                        1024, machine::Algo::Default,
                                        memo);

    expectIdentical(plain, miss);
    expectIdentical(plain, hit);

    MemoStats s = memoStats();
    EXPECT_EQ(s.hits, 1u);
    EXPECT_EQ(s.misses, 1u);
    EXPECT_EQ(s.bypassed, 1u); // the memoize = false run
    EXPECT_EQ(memoSize(), 1u);
}

TEST(MeasureMemo, DistinctPointsGetDistinctEntries)
{
    memoClear();
    auto cfg = machine::t3dConfig();
    measureCollective(cfg, 4, machine::Coll::Barrier, 0);
    measureCollective(cfg, 8, machine::Coll::Barrier, 0);
    measureCollective(cfg, 8, machine::Coll::Allreduce, 64);
    EXPECT_EQ(memoSize(), 3u);
    EXPECT_EQ(memoStats().misses, 3u);
    EXPECT_EQ(memoStats().hits, 0u);

    // A changed machine parameter is a different key even at the same
    // (p, op, m, algo) point.
    auto slower = cfg;
    slower.network.link_bandwidth_mbs /= 2;
    Measurement fast =
        measureCollective(cfg, 8, machine::Coll::Allreduce, 64);
    Measurement slow =
        measureCollective(slower, 8, machine::Coll::Allreduce, 64);
    EXPECT_EQ(memoSize(), 4u);
    EXPECT_LT(fast.max_time, slow.max_time);
}

TEST(MeasureMemo, IneligiblePointsBypassTheCache)
{
    memoClear();
    auto cfg = machine::paragonConfig();

    // Clock skew: results depend on the skew RNG, not just the key.
    MeasureOptions skew;
    skew.max_skew = 100;
    measureCollective(cfg, 4, machine::Coll::Barrier, 0,
                      machine::Algo::Default, skew);

    // Metrics collection: the snapshot is observational state the
    // cache does not carry.  The timings themselves are unaffected
    // by observation, so they must still match a cached point's.
    MeasureOptions metrics;
    metrics.metrics = true;
    Measurement observed =
        measureCollective(cfg, 4, machine::Coll::Barrier, 0,
                          machine::Algo::Default, metrics);
    EXPECT_FALSE(observed.metrics.empty());

    // Faults: the per-point fault universe is seeded outside the key.
    auto faulty = cfg;
    faulty.fault.msg_drop_rate = 0.05;
    measureCollective(faulty, 4, machine::Coll::Barrier, 0);

    // All three points bypass the cache.  The faulty run's clean
    // twin (measured to fill DegradationReport::makespan_inflation)
    // is itself an eligible plain point, so exactly one entry lands.
    MemoStats s = memoStats();
    EXPECT_EQ(s.bypassed, 3u);
    EXPECT_EQ(s.hits, 0u);
    EXPECT_EQ(s.misses, 1u);
    EXPECT_EQ(memoSize(), 1u);

    // Observation never changes simulated time: a cached plain run
    // reports the same timings the metrics run measured.
    Measurement cached =
        measureCollective(cfg, 4, machine::Coll::Barrier, 0);
    measureCollective(cfg, 4, machine::Coll::Barrier, 0); // hit
    EXPECT_EQ(cached.max_time, observed.max_time);
    EXPECT_EQ(cached.min_time, observed.min_time);
    EXPECT_EQ(cached.mean_time, observed.mean_time);
}

TEST(MeasureMemo, SweepResultsIdenticalAcrossJobsAndCacheState)
{
    memoClear();
    SweepSpec spec;
    spec.machines = {machine::t3dConfig(), machine::sp2Config()};
    spec.ops = {machine::Coll::Bcast, machine::Coll::Barrier};
    spec.sizes = {4, 8};
    spec.lengths = {256};
    spec.options.iterations = 2;
    spec.options.repetitions = 1;

    SweepRunner serial(1);
    std::vector<Measurement> cold = serial.run(spec.expand());
    ASSERT_EQ(serial.lastStats().memo_hits, 0u);

    // Warm rerun: every point served from the cache.
    std::vector<Measurement> warm = serial.run(spec.expand());
    EXPECT_EQ(serial.lastStats().memo_hits, cold.size());

    // Cold parallel rerun: workers race to fill the cache.
    memoClear();
    SweepRunner parallel(4);
    std::vector<Measurement> par = parallel.run(spec.expand());

    ASSERT_EQ(cold.size(), warm.size());
    ASSERT_EQ(cold.size(), par.size());
    for (std::size_t i = 0; i < cold.size(); ++i) {
        expectIdentical(cold[i], warm[i]);
        expectIdentical(cold[i], par[i]);
    }
}

/** measurePointKey of one fixed point on @p cfg. */
std::string
pointKey(const machine::MachineConfig &cfg)
{
    return measurePointKey(cfg, 8, machine::Coll::Bcast, 1024,
                           machine::Algo::Default);
}

/** A different, still-valid value for one `key = value` line of a
 *  saveConfig() document. */
std::string
perturbed(const std::string &key, const std::string &value)
{
    if (value == "true")
        return "false";
    if (value == "false")
        return "true";
    if (key == "topology")
        return value == "omega" ? "mesh2d" : "omega";
    if (key.size() > 10 &&
        key.compare(key.size() - 10, 10, ".algorithm") == 0)
        return value == "linear" ? "binomial" : "linear";
    if (key == "fault.policy")
        return value == "degrade" ? "fail_fast" : "degrade";
    // Every other persisted field is numeric.  Fault rates and the
    // degrade factor must stay inside [0, 1).
    const double v = std::stod(value);
    const bool fraction =
        key.starts_with("fault.") &&
        (key.ends_with("_rate") || key == "fault.link_degrade_factor");
    std::ostringstream out;
    out.precision(17);
    out << (!fraction ? v + 1 : v >= 0.5 ? v / 2 : v + 0.25);
    return out.str();
}

/**
 * Perturb each `key = value` line of @p cfg's saved document in turn
 * and check that the point key moves (or, for a display-only line,
 * stays).  @p mutated counts the lines perturbed.
 */
void
perturbEveryLine(const machine::MachineConfig &cfg, int &mutated)
{
    // Fields config_io persists that deliberately stay out of the key:
    // two identically parameterized machines are the same machine.
    const std::set<std::string> display_only = {"name"};

    std::ostringstream doc;
    machine::saveConfig(cfg, doc);

    std::vector<std::string> lines;
    std::istringstream in(doc.str());
    for (std::string line; std::getline(in, line);)
        lines.push_back(line);
    auto load = [&lines] {
        std::ostringstream text;
        for (const std::string &l : lines)
            text << l << "\n";
        std::istringstream is(text.str());
        return machine::loadConfig(is);
    };
    const std::string base = pointKey(load());
    ASSERT_EQ(base.rfind(std::string(kPointKeyVersion) + "|", 0), 0u);

    mutated = 0;
    for (std::string &line : lines) {
        const std::size_t eq = line.find(" = ");
        if (line.empty() || line[0] == '#' || eq == std::string::npos)
            continue;
        const std::string original = line;
        const std::string key = line.substr(0, eq);
        const std::string value = line.substr(eq + 3);
        const bool display = display_only.count(key) != 0;
        line = key + " = " +
               (display ? value + "-renamed" : perturbed(key, value));
        const std::string changed = pointKey(load());
        if (display)
            EXPECT_EQ(changed, base) << line;
        else
            EXPECT_NE(changed, base) << "key ignores: " << line;
        line = original;
        ++mutated;
    }
}

TEST(MeasureMemo, EveryPersistedFieldChangesTheKey)
{
    // SP2 on a `hier:` fabric, so the optional hierarchy block is in
    // the document too.
    machine::MachineConfig cfg = machine::sp2Config();
    cfg.topology = "hier:2x2/fattree";
    int mutated = 0;
    perturbEveryLine(cfg, mutated);
    // Globals, the hierarchy block, and the per-collective blocks.
    EXPECT_GT(mutated, 60);

    // A faulty config is never cacheable, but its document adds the
    // fault block, and every fault line must move the key as well:
    // the serve fast path's fits and backfill coalescing key on it.
    auto faulty = cfg;
    faulty.fault.msg_drop_rate = 0.01;
    EXPECT_FALSE(measurePointCacheable(faulty, MeasureOptions{}));
    perturbEveryLine(faulty, mutated);
    EXPECT_GT(mutated, 60 + 15);
}

TEST(MeasureMemo, OneMachineOneKey)
{
    // Naming the preset's own fabric through the per-run override
    // builds the same machine, so it must share the preset's key.
    machine::MachineConfig same = machine::t3dConfig();
    same.topo_spec = "torus3d";
    EXPECT_EQ(pointKey(same), pointKey(machine::t3dConfig()));
    same.topo_spec = "mesh2d";
    EXPECT_NE(pointKey(same), pointKey(machine::t3dConfig()));
}

TEST(MeasureMemo, SignedZeroesGetDistinctKeys)
{
    auto pos = machine::t3dConfig();
    auto neg = pos;
    pos.costsFor(machine::Coll::Bcast).per_stage_ns_per_byte = 0.0;
    neg.costsFor(machine::Coll::Bcast).per_stage_ns_per_byte = -0.0;
    EXPECT_NE(pointKey(pos), pointKey(neg));
}

TEST(MeasureMemo, ClearDropsEntriesAndZeroesStats)
{
    memoClear();
    memoSetMaxEntries(5);
    measureCollective(machine::t3dConfig(), 4, machine::Coll::Barrier,
                      0);
    EXPECT_EQ(memoSize(), 1u);
    memoClear();
    EXPECT_EQ(memoSize(), 0u);
    MemoStats s = memoStats();
    EXPECT_EQ(s.hits, 0u);
    EXPECT_EQ(s.misses, 0u);
    EXPECT_EQ(s.bypassed, 0u);
    EXPECT_EQ(memoMaxEntries(), 5u) << "the bound outlives a clear";
    memoSetMaxEntries(0);
}

TEST(MeasureMemo, ABoundEvictsTheLeastRecentlyUsedPoint)
{
    memoClear();
    memoSetMaxEntries(2);
    const auto cfg = machine::t3dConfig();
    auto barrier = [&](int p) {
        return measureCollective(cfg, p, machine::Coll::Barrier, 0);
    };
    const Measurement first = barrier(2);
    barrier(4);
    barrier(2); // a hit makes p = 2 the most recent again
    barrier(8); // evicts p = 4
    EXPECT_EQ(memoSize(), 2u);
    const Measurement hit = barrier(2);
    barrier(4); // simulated again, evicting p = 8

    // An evicted point re-simulates; a kept one answers unchanged.
    MemoStats s = memoStats();
    EXPECT_EQ(s.hits, 2u);
    EXPECT_EQ(s.misses, 4u);
    EXPECT_EQ(s.evictions, 2u);
    expectIdentical(first, hit);
    memoSetMaxEntries(0);
}

} // namespace
} // namespace ccsim::harness

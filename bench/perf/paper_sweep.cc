/**
 * @file
 * paper_sweep: the paper's result set, cold then warm.
 *
 * 3 paper machines x the 7 Table 3 collectives x the paper's machine
 * sizes x its message lengths = 980 points, measured with the figure
 * benches' procedure (k = 3, one repetition), Algo::Auto, serially.
 * This is what users run most; its many small points make per-point
 * fixed costs (machine build, config copy, memo key) dominant, and
 * the warm passes isolate the memo lookup.  The seed shuffles the
 * point order only, so the digest is the same for every seed.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common.hh"
#include "machine/config_io.hh"
#include "model/paper_data.hh"

namespace ccsim::perf {

namespace {

using machine::Coll;

/** Share of the timed budget spent on cold rounds (rest: warm). */
constexpr double kColdShare = 0.7;

/** Cold rounds at least; each point reports its median over them, so
 *  a burst of host noise during one round does not move it. */
constexpr int kMinColdRounds = 3;

/** Set-up repetitions before each cold round; the median of all is
 *  reported.  The host's speed drifts over seconds, so the samples
 *  are spread across the run rather than taken in one burst. */
constexpr int kSetupReps = 5;

struct Point
{
    const machine::MachineConfig *cfg = nullptr;
    int p = 0;
    Coll op = Coll::Barrier;
    Bytes m = 0;
    std::string label;
};

/** The paper's grid; smoke mode keeps p <= 16 and m <= 1 KiB. */
std::vector<Point>
paperGrid(const std::array<machine::MachineConfig, 3> &machines,
          bool quick)
{
    std::vector<Point> out;
    for (const auto &mc : machines)
        for (Coll op : machine::kPaperColls)
            for (int p : harness::paperMachineSizes(mc.name))
                for (Bytes m : harness::paperMessageLengths()) {
                    if (quick && (p > 16 || m > 1 * KiB))
                        continue;
                    Bytes mm = op == Coll::Barrier ? 0 : m;
                    char label[96];
                    std::snprintf(label, sizeof(label),
                                  "%s %s p=%d m=%lld", mc.name.c_str(),
                                  machine::collKey(op).c_str(), p,
                                  static_cast<long long>(mm));
                    out.push_back({&mc, p, op, mm, label});
                    if (op == Coll::Barrier)
                        break;
                }
    return out;
}

} // namespace

void
runPaperSweep(const RunConfig &cfg, Result &r, Tracer *tr)
{
    const harness::MeasureOptions opt = benchOptions();

    HostSpeed speed;
    std::array<machine::MachineConfig, 3> machines;
    std::vector<Point> points;
    std::vector<double> setup_s;
    auto setUp = [&] {
        for (int rep = 0; rep < kSetupReps; ++rep) {
            speed.poll();
            const std::int64_t t0 = nowNs();
            machines = machine::paperMachines();
            points = paperGrid(machines, cfg.quick);
            Rng rng(subSeed(cfg.seed, 1));
            shuffle(points, rng);
            harness::memoClear();
            setup_s.push_back(secondsSince(t0) / speed.slowdown());
        }
    };
    setUp();
    const std::size_t n = points.size();

    auto measure = [&](const Point &pt, Time &out) {
        try {
            out = harness::measureCollective(*pt.cfg, pt.p, pt.op, pt.m,
                                             machine::Algo::Auto, opt)
                      .max_time;
            return true;
        } catch (const std::exception &e) {
            r.fail(pt.label + ": " + e.what());
            return false;
        }
    };

    // Cold rounds: the memo is emptied before each.
    std::vector<Time> cold(n, 0);
    std::vector<std::vector<double>> point_us(n);
    int rounds = 0;
    const std::int64_t cold_start = nowNs();
    do {
        if (rounds > 0)
            setUp(); // empties the memo again
        for (std::size_t i = 0; i < n; ++i) {
            Time t = 0;
            speed.poll();
            const std::int64_t a = nowNs();
            const bool ok = measure(points[i], t);
            point_us[i].push_back(static_cast<double>(nowNs() - a) * 1e-3 /
                                  speed.slowdown());
            ++r.attempted;
            if (ok && rounds == 0)
                cold[i] = t;
            else if (ok && t != cold[i])
                r.fail(points[i].label + ": cold rounds disagree");
        }
        ++rounds;
    } while ((!cfg.quick && rounds < kMinColdRounds) ||
             secondsSince(cold_start) < kColdShare * cfg.seconds);
    r.phase("cold", secondsSince(cold_start));
    const harness::MemoStats cold_memo = harness::memoStats();

    // Warm passes: every point is a memo hit.
    std::vector<double> warm_s;
    const std::int64_t warm_start = nowNs();
    do {
        speed.poll();
        const std::int64_t t0 = nowNs();
        for (std::size_t i = 0; i < n; ++i) {
            Time t = 0;
            ++r.attempted;
            if (measure(points[i], t) && t != cold[i])
                r.fail(points[i].label + ": warm != cold");
        }
        warm_s.push_back(secondsSince(t0) / speed.slowdown());
    } while (secondsSince(warm_start) < (1 - kColdShare) * cfg.seconds);
    r.phase("warm", secondsSince(warm_start));
    const harness::MemoStats memo = harness::memoStats();

    // The same points through the public layers: the event count for
    // ns_per_event and an independent check of every cold result.
    // With tracing, each point is also driven with spans and metrics
    // on, next to its untraced drive and first on every other point,
    // so both drives see the same host and caches.
    std::uint64_t events = 0;
    LayerCounters counters;
    double drive_s = 0, traced_s = 0;
    const std::int64_t drive_start = nowNs();
    for (std::size_t i = 0; i < n; ++i) {
        const Point &pt = points[i];
        auto drive = [&] {
            const std::int64_t t0 = nowNs();
            const PointRun pr =
                drivePoint(*pt.cfg, pt.p, pt.op, pt.m, opt, false);
            drive_s += secondsSince(t0);
            r.check(pr.max_time == cold[i],
                    pt.label + ": layer drive != measureCollective");
            events += pr.events;
        };
        auto driveTraced = [&] {
            const std::int64_t t0 = nowNs();
            const PointRun pr =
                drivePoint(*pt.cfg, pt.p, pt.op, pt.m, opt, true, tr, i);
            traced_s += secondsSince(t0);
            r.check(pr.max_time == cold[i],
                    pt.label + ": traced drive != measureCollective");
            counters.add(pr.metrics);
        };
        if (tr && i % 2)
            driveTraced();
        drive();
        if (tr && i % 2 == 0)
            driveTraced();
    }
    r.phase("drive", secondsSince(drive_start));

    // A round of per-point medians.
    std::vector<double> lat_us;
    double cold_round_s = 0;
    for (const auto &us : point_us) {
        lat_us.push_back(median(us));
        cold_round_s += lat_us.back() * 1e-6;
    }
    std::vector<double> warm_ops;
    for (double s : warm_s)
        warm_ops.push_back(static_cast<double>(n) / s);

    r.set("setup_s", median(setup_s), "s");
    r.set("bench.host_slowdown", speed.overall(), "ratio");
    r.set("ops_per_s", static_cast<double>(n) / cold_round_s, "op/s");
    r.set("latency_p50_us", quantile(lat_us, 0.50), "us");
    r.set("latency_p90_us", quantile(lat_us, 0.90), "us");
    r.set("ns_per_event", cold_round_s * 1e9 / static_cast<double>(events),
          "ns");
    r.set("bench.latency_p99_us", quantile(lat_us, 0.99), "us");
    r.set("bench.latency_samples", static_cast<double>(lat_us.size()),
          "count");
    r.set("bench.warm_ops_per_s", median(warm_ops), "op/s");
    r.set("harness.point_ns", cold_round_s * 1e9 / static_cast<double>(n),
          "ns");
    r.set("harness.memo_lookup_ns",
          median(warm_s) * 1e9 / static_cast<double>(n), "ns");
    const double lookups = static_cast<double>(memo.hits + memo.misses +
                                               memo.bypassed);
    r.set("harness.memo_hit_ratio",
          lookups > 0 ? static_cast<double>(memo.hits) / lookups : 0.0,
          "ratio");
    r.check(cold_memo.hits == 0 && memo.misses == cold_memo.misses,
            "memo: cold round hit or warm pass missed");

    // Accuracy against the paper's Table 3 expressions.
    std::vector<double> err_pct;
    for (std::size_t i = 0; i < n; ++i) {
        const Point &pt = points[i];
        if (!model::paper::hasExpression(pt.cfg->name, pt.op))
            continue;
        const double paper =
            model::paper::expression(pt.cfg->name, pt.op).evalUs(pt.m,
                                                                 pt.p);
        if (paper > 0)
            err_pct.push_back(100.0 *
                              std::fabs(toMicros(cold[i]) - paper) /
                              paper);
    }
    r.set("bench.paper_err_pct", median(err_pct), "%");

    if (tr) {
        const std::int64_t key_start = nowNs();
        for (std::size_t i = 0; i < n; ++i) {
            const Point &pt = points[i];
            Tracer::Scope s(tr, "harness.key", i);
            r.check(!harness::measurePointKey(*pt.cfg, pt.p, pt.op, pt.m)
                         .empty(),
                    pt.label + ": empty memo key");
        }
        r.phase("keys", secondsSince(key_start));
        const auto layers = tr->layers();
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
        r.set("bench.trace_overhead", traced_s / drive_s, "ratio");
        counters.report(r);
    }

    std::vector<std::size_t> order(n);
    for (std::size_t i = 0; i < n; ++i)
        order[i] = i;
    std::sort(order.begin(), order.end(), [&](std::size_t a,
                                              std::size_t b) {
        return points[a].label < points[b].label;
    });
    Digest d;
    for (std::size_t i : order)
        d.add(points[i].label + " " + std::to_string(cold[i]));
    r.digest = d.hex();
    if (cfg.quick)
        r.digest_status = "skipped (quick inputs)";
    else
        checkDigest(cfg, r, true);
}

} // namespace ccsim::perf

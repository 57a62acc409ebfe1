/**
 * @file
 * replay_faults: seeded synthetic application traces, replayed clean
 * and under message loss.
 *
 * Four np = 64 skeletons generated here as trace text and parsed with
 * TraceParser: a 2-D halo exchange, subgroup broadcasts, a corner-turn
 * alltoall and an allreduce loop.  Each replays on the three paper
 * machines, clean and under drop=0.01,policy=degrade, with metrics on.
 * This uses the transport through point-to-point and the acknowledged
 * protocol, bypasses the memo entirely, and is the only workload that
 * runs the metrics-on path.  The seed permutes message sizes, compute
 * durations, subgroup membership and the fault draws; the multiset of
 * sizes and durations is fixed, so every seed does the same work.
 *
 * Before timing, the bundled traces are replayed and checked against
 * workloads/golden_times.csv.
 */

#include <cstdio>
#include <fstream>
#include <sstream>

#include "common.hh"
#include "fault/fault_spec.hh"
#include "machine/config_io.hh"
#include "machine/machine.hh"
#include "replay/replayer.hh"
#include "replay/trace_parser.hh"

namespace ccsim::perf {

namespace {

constexpr int kNp = 64;
/** Cycles (one replay of every configuration each) per window: every
 *  metric is a median over windows, so a burst of host noise inside a
 *  few windows does not move it.  Set-up is repeated after each
 *  window for the same reason. */
constexpr std::size_t kCyclesPerWindow = 4;
constexpr const char *kFaults = "drop=0.01,policy=degrade";

/** Fixed multisets the seed permutes. */
constexpr double kComputeUs[] = {150, 175, 200, 225, 250, 275};

struct Gen
{
    const char *name;
    std::string (*make)(Rng &);
};

std::string
header()
{
    return "# ccsim trace v1\nnp " + std::to_string(kNp) + "\n";
}

/** Per-iteration values: @p base's entries in a seeded order,
 *  repeated to @p n. */
template <typename T, std::size_t N>
std::vector<T>
permuted(const T (&base)[N], std::size_t n, Rng &rng)
{
    std::vector<T> out;
    while (out.size() < n) {
        std::vector<T> round(base, base + N);
        shuffle(round, rng);
        out.insert(out.end(), round.begin(), round.end());
    }
    out.resize(n);
    return out;
}

std::string
computeLine(int rank, double us)
{
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%d compute %.3f\n", rank, us);
    return buf;
}

/** 8x8 periodic grid: irecv/isend with four neighbours, then waits. */
std::string
haloTrace(Rng &rng)
{
    constexpr int kIters = 24;
    constexpr Bytes kSizes[] = {2 * KiB, 4 * KiB, 8 * KiB};
    const auto sizes = permuted(kSizes, kIters, rng);
    const auto comp = permuted(kComputeUs, kIters, rng);
    auto nb = [](int r, int d) {
        int x = r % 8, y = r / 8;
        x = (x + (d == 0 ? 1 : d == 1 ? 7 : 0)) % 8;
        y = (y + (d == 2 ? 1 : d == 3 ? 7 : 0)) % 8;
        return y * 8 + x;
    };
    std::string t = header();
    for (int r = 0; r < kNp; ++r)
        for (int it = 0; it < kIters; ++it) {
            t += computeLine(r, comp[static_cast<std::size_t>(it)]);
            for (int d = 0; d < 4; ++d)
                t += std::to_string(r) + " irecv " +
                     std::to_string(nb(r, d ^ 1)) + " tag=" +
                     std::to_string(d) + "\n";
            for (int d = 0; d < 4; ++d)
                t += std::to_string(r) + " isend " +
                     std::to_string(nb(r, d)) + " " +
                     std::to_string(sizes[static_cast<std::size_t>(it)]) +
                     " tag=" + std::to_string(d) + "\n";
            for (int w = 0; w < 8; ++w)
                t += std::to_string(r) + " wait\n";
        }
    return t;
}

/** Eight seeded subgroups of eight, broadcasting from rotating roots. */
std::string
subgroupBcastTrace(Rng &rng)
{
    constexpr int kIters = 64;
    constexpr Bytes kSizes[] = {1 * KiB, 4 * KiB, 16 * KiB};
    const auto sizes = permuted(kSizes, kIters, rng);
    const auto comp = permuted(kComputeUs, kIters, rng);
    std::vector<int> ranks(kNp);
    for (int i = 0; i < kNp; ++i)
        ranks[static_cast<std::size_t>(i)] = i;
    shuffle(ranks, rng);
    std::vector<std::string> group_of(kNp);
    for (int g = 0; g < 8; ++g) {
        std::string list;
        for (int k = 0; k < 8; ++k) {
            if (k)
                list += ',';
            list += std::to_string(ranks[static_cast<std::size_t>(g * 8 + k)]);
        }
        for (int k = 0; k < 8; ++k)
            group_of[static_cast<std::size_t>(
                ranks[static_cast<std::size_t>(g * 8 + k)])] = list;
    }
    std::string t = header();
    for (int r = 0; r < kNp; ++r)
        for (int it = 0; it < kIters; ++it) {
            t += computeLine(r, comp[static_cast<std::size_t>(it)]);
            t += std::to_string(r) + " bcast " +
                 std::to_string(sizes[static_cast<std::size_t>(it)]) +
                 " root=" + std::to_string(it % 8) + " group=" +
                 group_of[static_cast<std::size_t>(r)] + "\n";
        }
    return t;
}

/** A corner turn: machine-wide alltoall between compute phases. */
std::string
cornerTurnTrace(Rng &rng)
{
    constexpr int kIters = 2;
    constexpr Bytes kSizes[] = {256, 512};
    const auto sizes = permuted(kSizes, kIters, rng);
    const auto comp = permuted(kComputeUs, kIters, rng);
    std::string t = header();
    for (int r = 0; r < kNp; ++r)
        for (int it = 0; it < kIters; ++it)
            t += computeLine(r, comp[static_cast<std::size_t>(it)]) +
                 std::to_string(r) + " alltoall " +
                 std::to_string(sizes[static_cast<std::size_t>(it)]) +
                 "\n";
    return t;
}

/** A solver-style allreduce loop. */
std::string
allreduceTrace(Rng &rng)
{
    constexpr int kIters = 40;
    constexpr Bytes kSizes[] = {8, 64, 512};
    const auto sizes = permuted(kSizes, kIters, rng);
    const auto comp = permuted(kComputeUs, kIters, rng);
    std::string t = header();
    for (int r = 0; r < kNp; ++r)
        for (int it = 0; it < kIters; ++it)
            t += computeLine(r, comp[static_cast<std::size_t>(it)]) +
                 std::to_string(r) + " allreduce " +
                 std::to_string(sizes[static_cast<std::size_t>(it)]) +
                 "\n";
    return t;
}

constexpr Gen kGens[] = {
    {"halo", haloTrace},
    {"subgroup_bcast", subgroupBcastTrace},
    {"corner_turn", cornerTurnTrace},
    {"allreduce", allreduceTrace},
};

struct Config
{
    std::size_t trace = 0;
    machine::MachineConfig cfg;
    std::string label; //!< "trace machine clean|faulty"
};

/** Replay the bundled traces; compare with golden_times.csv. */
void
checkGoldens(Result &r)
{
    const std::string dir = CCSIM_PERF_WORKLOAD_DIR;
    std::ifstream csv(dir + "/golden_times.csv");
    std::string line;
    std::getline(csv, line); // header
    std::map<std::string, replay::Program> programs;
    int rows = 0;
    while (std::getline(csv, line)) {
        std::istringstream ls(line);
        std::string workload, mc, scale, np, ps;
        std::getline(ls, workload, ',');
        std::getline(ls, mc, ',');
        std::getline(ls, scale, ',');
        std::getline(ls, np, ',');
        std::getline(ls, ps, ',');
        if (!programs.count(workload))
            programs.emplace(workload, replay::TraceParser::parseFile(
                                           dir + "/" + workload));
        replay::ReplayOptions opt;
        opt.scale = std::stod(scale);
        const Time got =
            replay::Replayer::run(machine::presetByName(mc),
                                  programs.at(workload), opt)
                .makespan();
        r.check(std::to_string(got) == ps,
                "golden " + workload + " on " + mc + ": " +
                    std::to_string(got) + " != " + ps);
        ++rows;
    }
    r.check(rows > 0, "no golden rows in " + dir + "/golden_times.csv");
}

} // namespace

void
runReplayFaults(const RunConfig &cfg, Result &r, Tracer *tr)
{
    const std::int64_t golden_start = nowNs();
    checkGoldens(r);
    r.phase("goldens", secondsSince(golden_start));

    // Set-up: generate and parse the traces.
    constexpr std::size_t kTraces = std::size(kGens);
    std::vector<std::string> texts(kTraces);
    std::vector<replay::Program> programs(kTraces);
    std::vector<double> setup_s, setup_wall;
    HostSpeed speed;
    auto setUp = [&] {
        speed.poll();
        const std::int64_t t0 = nowNs();
        for (std::size_t i = 0; i < kTraces; ++i) {
            Rng rng(subSeed(cfg.seed, 20 + i));
            texts[i] = kGens[i].make(rng);
            std::istringstream in(texts[i]);
            programs[i] = replay::TraceParser::parse(in, kGens[i].name);
        }
        setup_wall.push_back(secondsSince(t0));
        setup_s.push_back(setup_wall.back() / speed.slowdown());
    };
    setUp();

    std::vector<Config> configs;
    fault::FaultSpec faults = fault::parseFaultSpec(kFaults);
    faults.seed = subSeed(cfg.seed, 5);
    for (std::size_t i = 0; i < kTraces; ++i)
        for (const auto &mc : machine::paperMachines())
            for (bool faulty : {false, true}) {
                Config c;
                c.trace = i;
                c.cfg = mc;
                if (faulty)
                    c.cfg.fault = faults;
                c.label = std::string(kGens[i].name) + " " + mc.name +
                          (faulty ? " faulty" : " clean");
                configs.push_back(std::move(c));
            }
    Rng order_rng(subSeed(cfg.seed, 6));
    shuffle(configs, order_rng);

    replay::ReplayOptions opt;
    opt.metrics = true;
    auto replay = [&](const Config &c, Time &makespan,
                      stats::MetricsSnapshot *snap) {
        try {
            replay::ReplayResult res =
                replay::Replayer::run(c.cfg, programs[c.trace], opt);
            makespan = res.makespan();
            if (snap)
                *snap = std::move(res.metrics);
            return true;
        } catch (const std::exception &e) {
            r.fail(c.label + ": " + e.what());
            return false;
        }
    };

    // Timed: cycle through the configurations until the budget ends.
    const std::size_t n = configs.size();
    std::vector<Time> makespan(n, 0);
    std::vector<std::uint64_t> events(n, 0);
    const std::size_t window = kCyclesPerWindow * n;
    std::vector<double> lat_us;
    std::vector<double> ops, ns_per_event, p50s, p90s;
    double window_us = 0, window_events = 0;
    const std::int64_t start = nowNs();
    for (std::size_t k = 0; k == 0 || k % window != 0 ||
                            secondsSince(start) < cfg.seconds;
         ++k) {
        const std::size_t i = k % n;
        Time t = 0;
        stats::MetricsSnapshot snap;
        speed.poll();
        const std::int64_t a = nowNs();
        const bool ok = replay(configs[i], t, k < n ? &snap : nullptr);
        lat_us.push_back(static_cast<double>(nowNs() - a) * 1e-3 /
                         speed.slowdown());
        ++r.attempted;
        if (ok && k < n) {
            makespan[i] = t;
            events[i] = snap.counters["sim.events"];
        } else if (ok && t != makespan[i]) {
            r.fail(configs[i].label + ": replays disagree");
        }
        window_us += lat_us.back();
        window_events += static_cast<double>(events[i]);
        if ((k + 1) % window == 0) {
            const std::vector<double> w(lat_us.end() - window, lat_us.end());
            ops.push_back(static_cast<double>(window) * 1e6 / window_us);
            ns_per_event.push_back(window_us * 1e3 / window_events);
            p50s.push_back(quantile(w, 0.50));
            p90s.push_back(quantile(w, 0.90));
            window_us = window_events = 0;
            setUp();
        }
    }
    double setup_total = 0;
    for (double v : setup_wall)
        setup_total += v;
    r.phase("setup", setup_total);
    r.phase("replays", secondsSince(start) - setup_total);

    r.set("setup_s", median(setup_s), "s");
    r.set("bench.host_slowdown", speed.overall(), "ratio");
    r.set("ops_per_s", median(ops), "op/s");
    r.set("latency_p50_us", median(p50s), "us");
    r.set("latency_p90_us", median(p90s), "us");
    r.set("ns_per_event", median(ns_per_event), "ns");
    r.set("bench.latency_p99_us", quantile(lat_us, 0.99), "us");
    r.set("bench.latency_samples", static_cast<double>(lat_us.size()),
          "count");

    if (tr) {
        const std::int64_t traced_start = nowNs();
        for (std::size_t i = 0; i < kTraces; ++i) {
            Tracer::Scope span(tr, "replay.parse", i);
            std::istringstream in(texts[i]);
            replay::TraceParser::parse(in, kGens[i].name);
        }
        // Each configuration untraced and traced next to each other,
        // the traced one first on every other configuration, so both
        // see the same host and caches.
        LayerCounters counters;
        double untraced_ns = 0;
        for (std::size_t i = 0; i < n; ++i) {
            auto untraced = [&] {
                Time t = 0;
                const std::int64_t t0 = nowNs();
                replay(configs[i], t, nullptr);
                untraced_ns += static_cast<double>(nowNs() - t0);
            };
            if (i % 2)
                untraced();
            {
                Tracer::Scope span(tr, "machine.build", i);
                machine::Machine mach(configs[i].cfg, kNp);
            }
            Time t = 0;
            stats::MetricsSnapshot snap;
            bool ok = false;
            {
                Tracer::Scope span(tr, "replay.run", i);
                ok = replay(configs[i], t, &snap);
            }
            r.check(ok && t == makespan[i],
                    configs[i].label + ": traced replay differs");
            counters.add(snap);
            if (i % 2 == 0)
                untraced();
        }
        r.phase("traced", secondsSince(traced_start));
        const auto layers = tr->layers();
        reportSpanMean(r, layers, "replay.parse", "replay.parse_ns");
        reportSpanMean(r, layers, "replay.run", "replay.run_ns");
        reportSpanMean(r, layers, "machine.build", "machine.build_ns");
        r.set("bench.trace_overhead",
              layers.at("replay.run").busy_ns / untraced_ns, "ratio");
        counters.report(r);
    }

    std::vector<std::string> lines;
    for (std::size_t i = 0; i < n; ++i)
        lines.push_back(configs[i].label + " " +
                        std::to_string(makespan[i]));
    std::sort(lines.begin(), lines.end());
    Digest d;
    for (const auto &l : lines)
        d.add(l);
    r.digest = d.hex();
    checkDigest(cfg, r, false);
}

} // namespace ccsim::perf

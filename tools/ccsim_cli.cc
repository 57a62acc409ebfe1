/**
 * @file
 * ccsim — command-line driver for the simulation study.
 *
 * Subcommands (`ccsim --help`, `-h` or `help` lists them; each
 * subcommand's `--help` gives its options):
 *
 *     ccsim machines
 *         List the built-in machine presets and their parameters.
 *
 *     ccsim measure --machine T3D --op alltoall --p 64 --m 65536
 *                   [--algo pairwise|auto] [--selection SRC]
 *                   [--config FILE] [--paper] [--faults SPEC]
 *                   [--ensemble N] [--metrics]
 *         Run the Section 2 measurement procedure for one point and
 *         print max/mean/min over ranks plus the paper's Table 3
 *         prediction when one exists.  --paper uses the full
 *         22-run procedure with clock-skew injection.  --faults
 *         injects deterministic faults, e.g.
 *         --faults "straggler=0.1,drop=0.01,seed=7,policy=degrade"
 *         (see docs/FAULTS.md for the grammar and recovery
 *         policies); a fault summary (drops / retransmits / delays,
 *         plus the degradation report when recovery acted) is
 *         printed after the times.  --ensemble N repeats the
 *         measurement under N derived fault universes and reports
 *         the mean/p95 makespan and the failure fraction.
 *         --metrics appends an observability summary (link
 *         utilization, stalls, queue high-waters).
 *
 *     ccsim sweep --machine SP2 --op bcast [--config FILE] [--jobs N]
 *         Full (m, p) sweep with a fitted closed-form expression.
 *         Points run on a worker pool (--jobs, default: hardware
 *         concurrency); output is identical at any job count.
 *
 *     ccsim stats --machine paragon --op alltoall [--p N] [--m BYTES]
 *                 [--algo NAME] [--top N] [--json] [--csv]
 *         Run one collective with metrics collection on and report
 *         the full observability snapshot: per-link bytes /
 *         utilization / contention-stall time, transport queue
 *         high-water marks, protocol mix, per-collective call
 *         counters, and simulator stats.  --json / --csv dump the
 *         raw snapshot instead of the human tables (schema in
 *         docs/METRICS.md).
 *
 *     ccsim pingpong --machine Paragon [--config FILE]
 *         Point-to-point latency/bandwidth curve + Hockney fit.
 *
 *     ccsim replay --trace FILE [--machine SP2,T3D,Paragon] [--np N]
 *                  [--scale 0.25,1,4] [--faults SPEC] [--jobs N]
 *                  [--chrome-json FILE] [--csv] [--metrics]
 *         Replay a recorded workload trace (see docs/REPLAY.md) on
 *         each named machine at each message scale — the cross
 *         product runs on the sweep worker pool and the output is
 *         identical at any --jobs level.  --np asserts the trace's
 *         rank count; --chrome-json dumps the first point's
 *         activity timeline; --csv emits exact picosecond makespans
 *         (the golden-trace regression format); --metrics adds
 *         hot-link / stall columns per point.
 *
 *     ccsim tune --machine SP2 [--ops LIST] [--sizes LIST]
 *                [--lengths LIST] [--jobs N] [--out FILE] [--cells]
 *                [--faults SPEC] [--ensemble N]
 *         Empirically derive a selection table: measure every
 *         candidate algorithm over the (op, p, m) grid, keep the
 *         winners, and print a regret report — how much time the
 *         machine's 1997 defaults left on the table.  The table is
 *         written to --out (stdout without it) and loads back via
 *         --selection; output is identical at any --jobs level.
 *         With --faults the table is tuned for the DEGRADED machine
 *         (candidates of a cell share one fault universe;
 *         --ensemble, default 3 under faults, averages universes) —
 *         bench/ablation_resilience compares such tables against
 *         clean ones.
 *
 *     ccsim serve [--port N] [--jobs K] [--port-file FILE]
 *                 [--cache-max N] [--cache-file FILE]
 *                 [--deadline-ms N] [--backfill-max N] [--verbose]
 *         Run the collective-latency prediction daemon on
 *         127.0.0.1 (docs/SERVE.md): a line/JSON query protocol
 *         answered from a result cache (byte-identical to fresh
 *         simulation), a fitted fast path (flagged approx), and an
 *         exact simulation backfill pool of --jobs workers.  SIGINT
 *         or a client 'shutdown' drains the queue and exits 0,
 *         removing --port-file again.  --cache-max bounds the result
 *         cache, the process's one store of simulated points (LRU
 *         eviction); --cache-file persists it across restarts; --deadline-ms bounds blocking exact answers and
 *         --backfill-max bounds the queue — past either limit the
 *         daemon sheds to the approximate tier with "shed":true on
 *         the wire instead of stalling or growing without bound.
 *
 *     ccsim query --port N | --port-file FILE
 *                 [--machine T3D] [--op alltoall] [--p 64] [--m 65536]
 *                 [--algo NAME] [--selection SRC] [--tier auto|fast|
 *                 exact] [--deadline-ms N] [--ticket] [--poll N]
 *                 [--metrics] [--health] [--ping] [--shutdown]
 *         One request against a running daemon; prints the JSON
 *         response line and exits with the daemon-side error family
 *         on error responses.  --health fetches the one-line
 *         liveness/saturation summary.
 *
 *     ccsim dump-config --machine SP2
 *         Emit a preset as an editable config file (see --config).
 *
 * Algorithm selection (measure, sweep, stats): --algo picks the
 * per-call algorithm; the default, "auto", resolves through the
 * machine's selection table when --selection attaches one (a preset
 * name or a 'ccsim tune' output file) and otherwise falls back to
 * the machine's configured 1997 choice, spelled "default".
 *
 * Global option: --trace-out FILE makes measure and pingpong write a
 * Chrome trace-event JSON timeline of one traced call (load in
 * chrome://tracing or Perfetto).
 *
 * Error handling: every failure is a typed ccsim::Error caught once
 * at the top of main; the process exit code identifies the family
 * (1 usage/user error, 3 trace parse, 4 fault-layer failure,
 * 5 machine config, 70 internal bug).
 */

#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "ccsim.hh"

using namespace ccsim;

namespace {

/** Options shared by every machine-building subcommand. */
void
addMachineOpts(cli::Options &o)
{
    o.value("machine", "machine preset (SP2, T3D, Paragon, Ideal)",
            "NAME");
    o.value("config", "load machine from a config file instead", "FILE");
    o.value("topo", "topology spec, e.g. 'fattree:2;4,4;1,2' or "
                    "'hier:2x4/dragonfly'", "SPEC");
    o.value("faults", "fault spec, e.g. 'drop=0.01,seed=7'", "SPEC");
}

void
addJobsOpt(cli::Options &o)
{
    o.value("jobs", "sweep worker threads (default: all cores)", "N");
}

void
addPointOpts(cli::Options &o)
{
    o.value("op", "collective (alltoall, bcast, ...)", "OP");
    tuning::addSelectionOpts(o); // the --algo / --selection pair
    o.value("p", "number of nodes", "N");
    o.value("m", "message length in bytes", "BYTES");
}

machine::MachineConfig
resolveMachine(const cli::Options &o, const std::string &fallback = "T3D")
{
    machine::MachineConfig cfg =
        o.has("config") ? machine::loadConfigFile(o.get("config"))
                        : machine::presetByName(
                              o.get("machine", fallback));
    if (o.has("topo"))
        cfg.topo_spec = o.get("topo");
    if (o.has("faults"))
        cfg.fault = fault::parseFaultSpec(o.get("faults"));
    // Only subcommands that declared the selection pair can carry
    // --selection; for the rest this is a no-op.
    tuning::applySelectionOpts(o, cfg);
    return cfg;
}

machine::Coll
resolveOp(const cli::Options &o)
{
    std::string key = o.get("op", "alltoall");
    if (auto op = machine::collFromKey(key))
        return *op;
    fatal("unknown --op '%s'", key.c_str());
}

machine::Algo
resolveAlgo(const cli::Options &o)
{
    return tuning::algoOpt(o);
}

harness::SweepRunner
resolveRunner(const cli::Options &o)
{
    long long jobs = o.getInt("jobs", 0);
    if (o.has("jobs") && jobs < 1)
        fatal("--jobs wants a positive integer, got %lld", jobs);
    return harness::SweepRunner(static_cast<int>(jobs));
}

/**
 * --trace-out: run one traced call of @p op and dump the timeline.
 * A separate single-shot Machine keeps the measurement above
 * unperturbed (tracing is observational, but the timeline of one
 * clean call is what a reader wants to look at anyway).
 */
void
dumpCollectiveTrace(const machine::MachineConfig &cfg, int p,
                    machine::Coll op, Bytes m, machine::Algo algo,
                    const std::string &path)
{
    machine::Machine mach(cfg, p);
    sim::Trace trace;
    mach.attachTrace(trace);
    auto program = [&](int rank) -> sim::Task<void> {
        mpi::Comm comm(mach, rank);
        co_await comm.barrier();
        trace.setPhase(rank, machine::collKey(op));
        co_await harness::runCollectiveOnce(comm, op, m, algo);
    };
    for (int r = 0; r < p; ++r)
        mach.sim().spawn(program(r));
    mach.run();

    std::ofstream f(path);
    if (!f)
        fatal("cannot write trace file '%s'", path.c_str());
    trace.writeChromeJson(f);
    std::fprintf(stderr, "wrote Chrome trace to %s (%zu spans)\n",
                 path.c_str(), trace.spans().size());
}

/** --trace-out for pingpong: one traced m-byte round trip. */
void
dumpPingPongTrace(const machine::MachineConfig &cfg, Bytes m,
                  const std::string &path)
{
    machine::Machine mach(cfg, 2);
    sim::Trace trace;
    mach.attachTrace(trace);
    auto program = [&](int rank) -> sim::Task<void> {
        mpi::Comm comm(mach, rank);
        trace.setPhase(rank, "pingpong");
        if (rank == 0) {
            co_await comm.send(1, 0, m);
            co_await comm.recv(1, 1);
        } else {
            co_await comm.recv(0, 0);
            co_await comm.send(0, 1, m);
        }
    };
    for (int r = 0; r < 2; ++r)
        mach.sim().spawn(program(r));
    mach.run();

    std::ofstream f(path);
    if (!f)
        fatal("cannot write trace file '%s'", path.c_str());
    trace.writeChromeJson(f);
    std::fprintf(stderr, "wrote Chrome trace to %s (%zu spans)\n",
                 path.c_str(), trace.spans().size());
}

/** Right-aligned numeric cell used by the sweep table. */
std::string
bench_cell(double us)
{
    char buf[48];
    if (us >= 10000)
        std::snprintf(buf, sizeof(buf), "%.0f", us);
    else
        std::snprintf(buf, sizeof(buf), "%.1f", us);
    return buf;
}

/** Compact observability block shared by measure/stats/replay. */
void
printMetricsSummary(const stats::MetricsSnapshot &snap, int top_links)
{
    if (snap.empty()) {
        std::printf("  (metrics collection was off)\n");
        return;
    }

    auto counter = [&](const char *name) -> unsigned long long {
        auto it = snap.counters.find(name);
        return it == snap.counters.end()
                   ? 0ULL
                   : static_cast<unsigned long long>(it->second);
    };
    auto gauge = [&](const char *name) {
        auto it = snap.gauges.find(name);
        return it == snap.gauges.end() ? 0.0 : it->second;
    };

    std::printf("  messages       : %llu sent (%llu eager, %llu rdv, "
                "%llu BLT, %llu self), %llu received\n",
                counter("msg.sends.eager") + counter("msg.sends.rdv") +
                    counter("msg.sends.blt") + counter("msg.sends.self"),
                counter("msg.sends.eager"), counter("msg.sends.rdv"),
                counter("msg.sends.blt"), counter("msg.sends.self"),
                counter("msg.recvs"));
    std::printf("  queue high-water: %g unexpected, %g pending-rts, "
                "%g pending-recv\n",
                gauge("msg.unexpected_queue"),
                gauge("msg.pending_rts_queue"),
                gauge("msg.pending_recv_queue"));
    std::printf("  network        : %llu transfers, %s payload, "
                "%llu stalled by contention\n",
                counter("net.messages"),
                formatBytes(static_cast<Bytes>(
                                counter("net.payload_bytes")))
                    .c_str(),
                counter("net.stalled_transfers"));
    if (counter("fault.drops") || counter("fault.retransmits") ||
        counter("fault.delays"))
        std::printf("  faults         : %llu drops, %llu retransmits, "
                    "%llu delays\n",
                    counter("fault.drops"), counter("fault.retransmits"),
                    counter("fault.delays"));

    if (!snap.links.empty()) {
        std::printf("  hot links      : max util %.1f%%, total stall "
                    "%.1f us (%.1f%% of busy time)\n",
                    100.0 * snap.maxLinkUtil(), snap.totalStallUs(),
                    snap.totalLinkBusyUs() > 0
                        ? 100.0 * snap.totalStallUs() /
                              snap.totalLinkBusyUs()
                        : 0.0);
        // Hottest links first.
        std::vector<stats::LinkRow> rows = snap.links;
        std::sort(rows.begin(), rows.end(),
                  [](const stats::LinkRow &a, const stats::LinkRow &b) {
                      return a.util > b.util ||
                             (a.util == b.util && a.link < b.link);
                  });
        if (static_cast<int>(rows.size()) > top_links)
            rows.resize(static_cast<std::size_t>(top_links));
        TableWriter t;
        t.header({"link", "bytes", "busy us", "stall us", "util %"});
        for (const auto &r : rows)
            t.row({r.link,
                   formatBytes(static_cast<Bytes>(r.bytes)),
                   formatF(r.busy_us, 1), formatF(r.stall_us, 1),
                   formatF(100.0 * r.util, 1)});
        t.print(std::cout);
    }
}

int
cmdMachines()
{
    TableWriter t;
    t.header({"machine", "topology", "link MB/s", "hop ns", "o_send us",
              "o_recv us", "special"});
    for (const auto &cfg : machine::paperMachines()) {
        std::string special;
        if (cfg.hardware_barrier)
            special += "hw-barrier ";
        if (cfg.transport.blt_enabled)
            special += "BLT ";
        if (cfg.transport.coprocessor_overlap > 0)
            special += "coprocessor";
        t.row({cfg.name, cfg.topologySpec(),
               formatG(cfg.network.link_bandwidth_mbs),
               formatG(toNanos(cfg.network.hop_latency)),
               formatG(toMicros(cfg.transport.send_overhead)),
               formatG(toMicros(cfg.transport.recv_overhead)),
               special.empty() ? "-" : special});
    }
    t.print(std::cout);
    std::printf("\nIdeal (contention-free crossbar baseline) is also "
                "available.\nUse 'ccsim dump-config --machine SP2 > "
                "my.cfg' to derive custom machines.\n");
    return 0;
}

int
cmdMeasure(int argc, char **argv)
{
    cli::Options o("ccsim measure");
    addMachineOpts(o);
    addPointOpts(o);
    addJobsOpt(o);
    o.flag("paper", "use the paper's full 22-run procedure");
    o.flag("metrics", "append an observability summary");
    o.value("ensemble", "fault universes to average (default 1)", "N");
    o.value("trace-out", "write a Chrome trace of one call", "FILE");
    o.parse(argc, argv, 2);

    auto cfg = resolveMachine(o);
    auto op = resolveOp(o);
    auto algo = resolveAlgo(o);
    int p = static_cast<int>(o.getInt("p", 32));
    Bytes m = o.getInt("m", 1024);
    auto opt = o.has("paper")
                   ? harness::MeasureOptions::paperFaithful()
                   : harness::MeasureOptions{};
    opt.metrics = o.has("metrics");
    long long ensemble = o.getInt("ensemble", 1);
    if (o.has("ensemble") && ensemble < 1)
        fatal("--ensemble wants a positive integer, got %lld",
              ensemble);
    opt.ensemble = static_cast<int>(ensemble);

    // A one-point sweep: same engine as the figure benches.
    harness::SweepPoint pt;
    pt.cfg = cfg;
    pt.p = p;
    pt.op = op;
    pt.m = m;
    pt.algo = algo;
    pt.options = opt;
    auto meas = resolveRunner(o).run(std::vector{pt}).front();
    std::printf("%s %s, p = %d, m = %s, algorithm %s\n",
                cfg.name.c_str(), machine::collName(op).c_str(), p,
                formatBytes(m).c_str(),
                machine::algoName(meas.algo).c_str());
    std::printf("  max over ranks : %s\n",
                formatTime(meas.max_time).c_str());
    std::printf("  mean over ranks: %s\n",
                formatTime(meas.mean_time).c_str());
    std::printf("  min over ranks : %s\n",
                formatTime(meas.min_time).c_str());
    if (model::paper::hasExpression(cfg.name, op)) {
        double paper_us =
            model::paper::expression(cfg.name, op).evalUs(m, p);
        std::printf("  paper Table 3  : %s (%+.1f%% vs sim)\n",
                    formatTime(microseconds(paper_us)).c_str(),
                    100.0 * (paper_us - meas.us()) / meas.us());
    }
    Bytes f = harness::aggregatedLength(op, m, p);
    if (f > 0 && meas.max_time > 0)
        std::printf("  aggregated bw  : %.1f MB/s over f(m,p) = %s\n",
                    bandwidthMBs(f, meas.max_time),
                    formatBytes(f).c_str());
    if (cfg.fault.enabled())
        std::printf("  faults         : %llu dropped, %llu "
                    "retransmitted, %llu delayed\n",
                    static_cast<unsigned long long>(meas.fault_drops),
                    static_cast<unsigned long long>(
                        meas.fault_retransmits),
                    static_cast<unsigned long long>(meas.fault_delays));
    if (meas.degradation.any())
        std::printf("  %s\n", meas.degradation.str().c_str());
    if (cfg.fault.enabled() && meas.degradation.makespan_inflation > 0)
        std::printf("  vs clean run   : +%.1f%% makespan\n",
                    100.0 * meas.degradation.makespan_inflation);
    if (meas.ensemble_runs > 1)
        std::printf("  ensemble       : %d universes, p95 %s, "
                    "%.0f%% failed\n",
                    meas.ensemble_runs,
                    formatTime(meas.p95_time).c_str(),
                    100.0 * meas.failureFraction());
    if (o.has("metrics"))
        printMetricsSummary(meas.metrics, 8);
    if (o.has("trace-out"))
        dumpCollectiveTrace(cfg, p, op, m, algo, o.get("trace-out"));
    return 0;
}

int
cmdStats(int argc, char **argv)
{
    cli::Options o("ccsim stats");
    addMachineOpts(o);
    addPointOpts(o);
    o.value("top", "hottest links to list (default 8)", "N");
    o.flag("json", "dump the raw snapshot as JSON");
    o.flag("csv", "dump the raw snapshot as CSV");
    o.parse(argc, argv, 2);

    auto cfg = resolveMachine(o);
    auto op = resolveOp(o);
    auto algo = resolveAlgo(o);
    int p = static_cast<int>(o.getInt("p", 32));
    Bytes m = o.getInt("m", 16 * KiB);

    harness::MeasureOptions opt;
    opt.metrics = true;
    auto meas = harness::measureCollective(cfg, p, op, m, algo, opt);

    if (o.has("json")) {
        meas.metrics.writeJson(std::cout);
        return 0;
    }
    if (o.has("csv")) {
        meas.metrics.writeCsv(std::cout);
        return 0;
    }

    std::printf("%s %s, p = %d, m = %s: %s (max over ranks)\n",
                cfg.name.c_str(), machine::collName(op).c_str(), p,
                formatBytes(m).c_str(),
                formatTime(meas.max_time).c_str());
    printMetricsSummary(meas.metrics,
                        static_cast<int>(o.getInt("top", 8)));

    // Per-collective counters (one row per op that ran — the barrier
    // in the harness loop shows up alongside the measured op).
    TableWriter t;
    t.header({"collective", "calls", "stages", "msgs", "mean us"});
    for (machine::Coll c : machine::kAllColls) {
        std::string prefix = "coll." + machine::collKey(c);
        auto it = meas.metrics.counters.find(prefix + ".calls");
        if (it == meas.metrics.counters.end())
            continue;
        auto h = meas.metrics.histograms.find(prefix + ".time_us");
        t.row({machine::collKey(c), std::to_string(it->second),
               std::to_string(
                   meas.metrics.counters.at(prefix + ".stages")),
               std::to_string(
                   meas.metrics.counters.at(prefix + ".msgs")),
               h != meas.metrics.histograms.end()
                   ? formatF(h->second.mean(), 1)
                   : "-"});
    }
    t.print(std::cout);
    std::printf("simulator: %llu events, %llu tasks, event queue "
                "high-water %g\n",
                static_cast<unsigned long long>(
                    meas.metrics.counters.at("sim.events")),
                static_cast<unsigned long long>(
                    meas.metrics.counters.at("sim.tasks")),
                meas.metrics.gauges.at("sim.event_queue_depth"));
    return 0;
}

int
cmdSweep(int argc, char **argv)
{
    cli::Options o("ccsim sweep");
    addMachineOpts(o);
    o.value("op", "collective (alltoall, bcast, ...)", "OP");
    tuning::addSelectionOpts(o);
    addJobsOpt(o);
    o.parse(argc, argv, 2);

    auto cfg = resolveMachine(o);
    auto op = resolveOp(o);
    auto algo = resolveAlgo(o);

    harness::SweepSpec spec;
    spec.machines = {cfg};
    spec.ops = {op};
    spec.sizes = harness::paperMachineSizes(cfg.name);
    spec.lengths = harness::paperMessageLengths();
    spec.algos = {algo};
    spec.options = harness::MeasureOptions::sweep();

    harness::SweepRunner runner = resolveRunner(o);
    auto results = runner.run(spec);

    std::printf("%s %s sweep [us]\n\n", cfg.name.c_str(),
                machine::collName(op).c_str());
    TableWriter t;
    std::vector<std::string> hdr{"p \\ m"};
    if (op == machine::Coll::Barrier) {
        hdr.push_back("T0"); // barrier has no length axis
    } else {
        for (Bytes m : spec.lengths)
            hdr.push_back(formatBytes(m));
    }
    t.header(hdr);

    // Consume the results in spec order: p outer, m inner (barrier
    // collapses the m axis, exactly as expand() does).
    std::vector<model::Sample> samples;
    std::size_t cursor = 0;
    for (int p : spec.sizes) {
        std::vector<std::string> row{std::to_string(p)};
        for (Bytes m : spec.lengths) {
            Bytes mm = op == machine::Coll::Barrier ? 0 : m;
            const auto &meas = results.at(cursor++);
            row.push_back(bench_cell(meas.us()));
            samples.push_back({mm, p, meas.us()});
            if (op == machine::Coll::Barrier)
                break;
        }
        t.row(row);
    }
    t.print(std::cout);
    std::fprintf(stderr, "swept %zu points in %.2f s (%.1f points/s, "
                 "%d jobs)\n", runner.lastStats().points,
                 runner.lastStats().wall_seconds,
                 runner.lastStats().pointsPerSec(), runner.jobs());

    model::TimingExpression fit =
        op == machine::Coll::Barrier
            ? model::fitStartupAuto(samples)
            : model::fitPaperStyleAuto(samples);
    std::printf("\nfitted: T(m, p) = %s   [us]\n", fit.str().c_str());
    if (model::paper::hasExpression(cfg.name, op))
        std::printf("paper : T(m, p) = %s\n",
                    model::paper::expression(cfg.name, op).str()
                        .c_str());
    return 0;
}

int
cmdPingPong(int argc, char **argv)
{
    cli::Options o("ccsim pingpong");
    addMachineOpts(o);
    o.value("m", "message length for --trace-out", "BYTES");
    o.value("trace-out", "write a Chrome trace of one round trip",
            "FILE");
    o.parse(argc, argv, 2);

    auto cfg = resolveMachine(o);
    std::printf("%s ping-pong (one-way, adjacent nodes)\n\n",
                cfg.name.c_str());
    TableWriter t;
    t.header({"m", "one-way us", "bandwidth MB/s"});
    std::vector<model::PingPongSample> samples;
    for (Bytes m : harness::paperMessageLengths()) {
        auto meas = harness::measurePingPong(cfg, m);
        double us = meas.us();
        samples.push_back({m, us});
        t.row({formatBytes(m), formatF(us, 2),
               formatF(us > 0 ? static_cast<double>(m) / us : 0, 1)});
    }
    t.print(std::cout);
    std::printf("\nHockney fit: %s\n",
                model::fitHockney(samples).str().c_str());
    if (o.has("trace-out"))
        dumpPingPongTrace(cfg, o.getInt("m", 1024),
                          o.get("trace-out"));
    return 0;
}

int
cmdReplay(int argc, char **argv)
{
    cli::Options o("ccsim replay");
    o.value("trace", "workload trace file (required)", "FILE");
    o.value("machine", "comma list of machines", "NAMES");
    o.value("config", "machine config file (overrides --machine)",
            "FILE");
    o.value("faults", "fault spec applied to every machine", "SPEC");
    o.value("np", "assert the trace's rank count", "N");
    o.value("scale", "comma list of message-size scales", "X,Y");
    addJobsOpt(o);
    o.value("chrome-json", "dump the first point's timeline", "FILE");
    o.flag("csv", "emit exact picosecond makespans as CSV");
    o.flag("metrics", "add hot-link / stall columns per point");
    o.parse(argc, argv, 2);

    if (!o.has("trace"))
        fatal("replay needs --trace FILE (see docs/REPLAY.md for the "
              "format; bundled workloads live in workloads/)");
    replay::Program prog =
        replay::TraceParser::parseFile(o.get("trace"));
    if (o.has("np") && o.getInt("np", 0) != prog.np)
        fatal("--np %lld does not match the trace's np %d",
              o.getInt("np", 0), prog.np);
    bool metrics = o.has("metrics");

    // The (machine, scale) cross product, machines outermost.
    std::vector<replay::ReplayPoint> points;
    for (const std::string &name :
         cli::splitList(o.get("machine", "SP2,T3D,Paragon"))) {
        machine::MachineConfig cfg =
            o.has("config") ? machine::loadConfigFile(o.get("config"))
                            : machine::presetByName(name);
        if (o.has("faults"))
            cfg.fault = fault::parseFaultSpec(o.get("faults"));
        for (const std::string &s :
             cli::splitList(o.get("scale", "1"))) {
            replay::ReplayPoint pt;
            pt.cfg = cfg;
            try {
                pt.options.scale = std::stod(s);
            } catch (const std::exception &) {
                fatal("bad --scale entry '%s'", s.c_str());
            }
            pt.options.collect_trace = true;
            pt.options.metrics = metrics;
            points.push_back(std::move(pt));
        }
    }
    if (points.empty())
        fatal("replay: no machines selected");

    harness::SweepRunner runner = resolveRunner(o);
    auto results = replay::replaySweep(prog, points, runner);

    if (o.has("chrome-json")) {
        std::ofstream f(o.get("chrome-json"));
        if (!f)
            fatal("cannot write trace file '%s'",
                  o.get("chrome-json").c_str());
        results.front().trace.writeChromeJson(f);
    }

    if (o.has("csv")) {
        // Exact integer picoseconds: the golden-regression format.
        std::printf("machine,scale,np,makespan_ps\n");
        for (std::size_t i = 0; i < results.size(); ++i)
            std::printf("%s,%g,%d,%lld\n",
                        results[i].machine.c_str(),
                        points[i].options.scale, results[i].np,
                        static_cast<long long>(results[i].makespan()));
        return 0;
    }

    std::printf("workload %s: np = %d, %zu actions\n\n",
                o.get("trace").c_str(), prog.np, prog.actions());
    TableWriter t;
    std::vector<std::string> hdr{"machine", "scale", "makespan",
                                 "compute/rank", "comm/rank", "comm %",
                                 "faults"};
    if (metrics) {
        hdr.push_back("max util %");
        hdr.push_back("stall %");
    }
    t.header(hdr);
    for (std::size_t i = 0; i < results.size(); ++i) {
        const auto &r = results[i];
        double compute_us = 0, comm_us = 0;
        for (const auto &[rank, s] : r.trace.summarize()) {
            compute_us += toMicros(s.compute);
            comm_us += toMicros(s.comm());
        }
        compute_us /= r.np;
        comm_us /= r.np;
        double busy = compute_us + comm_us;
        // Stragglers and degraded links slow the run without dynamic
        // events, so an active spec with zero counters still says so.
        std::string faults = "-";
        if (r.faults.any())
            faults = std::to_string(r.faults.drops) + "d/" +
                     std::to_string(r.faults.retransmits) + "r/" +
                     std::to_string(r.faults.delays) + "y";
        else if (points[i].cfg.fault.enabled())
            faults = "static";
        std::vector<std::string> row{
            r.machine, formatG(points[i].options.scale),
            formatTime(r.makespan()), formatF(compute_us, 1),
            formatF(comm_us, 1),
            formatF(busy > 0 ? 100.0 * comm_us / busy : 0.0, 1),
            faults};
        if (metrics) {
            row.push_back(formatF(100.0 * r.metrics.maxLinkUtil(), 1));
            double link_busy = r.metrics.totalLinkBusyUs();
            row.push_back(formatF(
                link_busy > 0
                    ? 100.0 * r.metrics.totalStallUs() / link_busy
                    : 0.0,
                1));
        }
        t.row(row);
    }
    t.print(std::cout);
    std::fprintf(stderr, "replayed %zu points in %.2f s (%d jobs)\n",
                 runner.lastStats().points,
                 runner.lastStats().wall_seconds, runner.jobs());
    return 0;
}

int
cmdTune(int argc, char **argv)
{
    cli::Options o("ccsim tune");
    addMachineOpts(o);
    o.value("ops", "comma list of collectives (default: all)", "LIST");
    o.value("sizes", "comma list of machine sizes", "LIST");
    o.value("lengths", "comma list of message lengths (bytes)", "LIST");
    addJobsOpt(o);
    o.value("out", "write the selection table here (default: stdout)",
            "FILE");
    o.flag("cells", "also print every per-point regret cell");
    o.value("ensemble",
            "fault universes per candidate (default 3 under --faults)",
            "N");
    o.parse(argc, argv, 2);

    auto cfg = resolveMachine(o, "SP2");

    tuning::TuneGrid grid;
    if (o.has("ops")) {
        for (const std::string &key : o.getList("ops")) {
            auto op = machine::collFromKey(key);
            if (!op)
                fatal("unknown --ops entry '%s'", key.c_str());
            grid.ops.push_back(*op);
        }
    }
    auto parse_list = [&](const char *name, std::vector<long long> &out) {
        for (const std::string &s : o.getList(name)) {
            long long v = 0;
            if (!parseWhole(s, v))
                fatal("bad --%s entry '%s'", name, s.c_str());
            out.push_back(v);
        }
    };
    std::vector<long long> sizes, lengths;
    parse_list("sizes", sizes);
    parse_list("lengths", lengths);
    grid.sizes.assign(sizes.begin(), sizes.end());
    grid.lengths.assign(lengths.begin(), lengths.end());
    // The sweep procedure: cheap, and every point doubles as a warm
    // memo-cache entry for later sweeps.
    grid.options = harness::MeasureOptions::sweep();
    // Under faults one universe is anecdote; average a few by
    // default so the winner map reflects the fault process, not one
    // roll of it.
    long long ensemble =
        o.getInt("ensemble", cfg.fault.enabled() ? 3 : 1);
    if (ensemble < 1)
        fatal("--ensemble wants a positive integer, got %lld",
              ensemble);
    grid.options.ensemble = static_cast<int>(ensemble);

    long long jobs = o.getInt("jobs", 0);
    if (o.has("jobs") && jobs < 1)
        fatal("--jobs wants a positive integer, got %lld", jobs);
    if (cfg.fault.enabled())
        std::fprintf(stderr,
                     "ccsim tune: tuning for the DEGRADED machine "
                     "(%s; %lld universes per candidate)\n",
                     fault::policyName(cfg.fault.policy),
                     ensemble);
    tuning::TuneResult res =
        tuning::tuneMachine(cfg, grid, static_cast<int>(jobs));

    if (o.has("out"))
        res.table.saveFile(o.get("out"));
    else
        res.table.save(std::cout);

    // The regret report goes to stderr so `ccsim tune > table.sel`
    // stays loadable.
    std::fprintf(stderr, "\n%s regret report (1997 default vs tuned, "
                 "%zu grid points)\n", cfg.name.c_str(),
                 res.cells.size());
    for (machine::Coll op : machine::kAllColls) {
        double def_us = 0, best_us = 0;
        std::size_t n = 0;
        for (const auto &c : res.cells)
            if (c.op == op) {
                def_us += toMicros(c.default_time);
                best_us += toMicros(c.best_time);
                ++n;
            }
        if (!n)
            continue;
        std::fprintf(stderr,
                     "  %-15s default %10.1f us   tuned %10.1f us   "
                     "regret %5.1f%%\n", machine::collKey(op).c_str(),
                     def_us, best_us,
                     best_us > 0 ? 100.0 * (def_us - best_us) / best_us
                                 : 0.0);
    }
    std::fprintf(stderr, "  %-15s default %10.1f us   tuned %10.1f us "
                 "  regret %5.1f%%\n", "TOTAL",
                 toMicros(res.total_default), toMicros(res.total_best),
                 100.0 * res.totalRegret());
    const auto &w = res.worstCell();
    std::fprintf(stderr, "  worst point: %s p=%d m=%s — %s %s vs %s "
                 "%s (%.1f%% regret)\n",
                 machine::collKey(w.op).c_str(), w.p,
                 formatBytes(w.m).c_str(),
                 machine::algoName(w.default_algo).c_str(),
                 formatTime(w.default_time).c_str(),
                 machine::algoName(w.best_algo).c_str(),
                 formatTime(w.best_time).c_str(), 100.0 * w.regret());

    if (o.has("cells")) {
        std::fprintf(stderr, "\n");
        for (const auto &c : res.cells)
            std::fprintf(stderr,
                         "  %s p=%d m=%lld: %s %.1f us -> %s %.1f us\n",
                         machine::collKey(c.op).c_str(), c.p,
                         static_cast<long long>(c.m),
                         machine::algoName(c.default_algo).c_str(),
                         toMicros(c.default_time),
                         machine::algoName(c.best_algo).c_str(),
                         toMicros(c.best_time));
    }
    return 0;
}

volatile std::sig_atomic_t g_interrupted = 0;

void
onInterrupt(int)
{
    g_interrupted = 1;
}

int
cmdServe(int argc, char **argv)
{
    cli::Options o("ccsim serve");
    o.value("port", "TCP port on 127.0.0.1 (default 0: ephemeral)",
            "N");
    o.value("jobs", "backfill simulation workers (default 1)", "N");
    o.value("port-file", "write the bound port to FILE", "FILE");
    o.value("cache-max",
            "bound on the simulated points kept, calibration included; "
            "LRU evicted (0 = unbounded)",
            "N");
    o.value("cache-file", "persist the result cache here across "
            "restarts", "FILE");
    o.value("deadline-ms",
            "default deadline for blocking exact answers (0 = none)",
            "N");
    o.value("backfill-max",
            "backfill queue bound; full = shed to the fast tier "
            "(0 = unbounded)", "N");
    o.flag("verbose", "log one line per request to stderr");
    o.parse(argc, argv, 2);

    serve::ServerOptions opts;
    long long port = o.getInt("port", 0);
    if (port < 0 || port > 65535)
        fatal("--port wants 0..65535, got %lld", port);
    opts.port = static_cast<int>(port);
    long long jobs = o.getInt("jobs", 1);
    if (o.has("jobs") && jobs < 1)
        fatal("--jobs wants a positive integer, got %lld", jobs);
    opts.jobs = static_cast<int>(jobs);
    opts.port_file = o.get("port-file");
    opts.verbose = o.has("verbose");
    long long cache_max =
        o.getInt("cache-max",
                 static_cast<long long>(opts.cache_max));
    if (cache_max < 0)
        fatal("--cache-max wants >= 0, got %lld", cache_max);
    opts.cache_max = static_cast<std::size_t>(cache_max);
    opts.cache_file = o.get("cache-file");
    long long deadline = o.getInt("deadline-ms", 0);
    if (deadline < 0)
        fatal("--deadline-ms wants >= 0, got %lld", deadline);
    opts.deadline_ms = static_cast<int>(deadline);
    long long backfill_max =
        o.getInt("backfill-max",
                 static_cast<long long>(opts.backfill_max));
    if (backfill_max < 0)
        fatal("--backfill-max wants >= 0, got %lld", backfill_max);
    opts.backfill_max = static_cast<std::size_t>(backfill_max);

    serve::Server server(opts);
    server.start();
    std::fprintf(stderr,
                 "ccsim serve: listening on 127.0.0.1:%d "
                 "(%d backfill jobs; 'shutdown' or SIGINT stops)\n",
                 server.port(), server.backfill().jobs());

    std::signal(SIGINT, onInterrupt);
    std::signal(SIGTERM, onInterrupt);
    while (!g_interrupted && !server.shutdownRequested())
        std::this_thread::sleep_for(std::chrono::milliseconds(100));

    std::fprintf(stderr,
                 "ccsim serve: draining the backfill queue...\n");
    server.stop();

    auto snap = server.metricsSnapshot();
    std::fprintf(stderr,
                 "ccsim serve: %llu requests (%llu cache, %llu fast, "
                 "%llu exact), %llu points simulated, exit 0\n",
                 static_cast<unsigned long long>(
                     snap.counters.at("serve.requests")),
                 static_cast<unsigned long long>(
                     snap.counters.at("serve.tier_cache")),
                 static_cast<unsigned long long>(
                     snap.counters.at("serve.tier_fast")),
                 static_cast<unsigned long long>(
                     snap.counters.at("serve.tier_exact")),
                 static_cast<unsigned long long>(
                     snap.counters.at("serve.backfill_completed")));
    return 0;
}

/** The daemon port: --port, or --port-file as written by serve. */
int
resolveQueryPort(const cli::Options &o)
{
    if (o.has("port"))
        return static_cast<int>(o.getInt("port", 0));
    if (o.has("port-file")) {
        std::ifstream pf(o.get("port-file"));
        int port = 0;
        if (!(pf >> port))
            fatal("cannot read a port from '%s'",
                  o.get("port-file").c_str());
        return port;
    }
    fatal("query needs --port N or --port-file FILE to find the "
          "daemon");
}

int
cmdQuery(int argc, char **argv)
{
    cli::Options o("ccsim query");
    o.value("port", "daemon port on 127.0.0.1", "N");
    o.value("port-file", "read the daemon port from FILE", "FILE");
    o.value("machine", "machine preset (SP2, T3D, Paragon, Ideal)",
            "NAME");
    o.value("config", "machine config file (daemon-side path)",
            "FILE");
    o.value("topo", "topology spec forwarded to the daemon", "SPEC");
    addPointOpts(o);
    o.value("tier", "auto | fast | exact (default auto)", "T");
    o.flag("ticket", "exact tier: return a ticket instead of blocking");
    o.value("poll", "poll a previously issued ticket", "N");
    o.value("deadline-ms",
            "per-request deadline for a blocking exact answer", "N");
    o.flag("metrics", "fetch the daemon's metrics snapshot");
    o.flag("health", "fetch the liveness/saturation summary");
    o.flag("ping", "liveness probe");
    o.flag("shutdown", "ask the daemon to drain and exit");
    o.parse(argc, argv, 2);

    serve::Request req;
    if (o.has("shutdown")) {
        req.verb = serve::Verb::Shutdown;
    } else if (o.has("ping")) {
        req.verb = serve::Verb::Ping;
    } else if (o.has("metrics")) {
        req.verb = serve::Verb::Metrics;
    } else if (o.has("health")) {
        req.verb = serve::Verb::Health;
    } else if (o.has("poll")) {
        req.verb = serve::Verb::Poll;
        long long t = o.getInt("poll", 0);
        if (t < 1)
            fatal("--poll wants a ticket number, got %lld", t);
        req.ticket = static_cast<std::uint64_t>(t);
    } else {
        req.verb = serve::Verb::Predict;
        req.machine = o.get("machine", "T3D");
        req.config_path = o.get("config");
        req.selection = o.get("selection");
        req.topo = o.get("topo");
        req.op = resolveOp(o);
        req.algo = resolveAlgo(o);
        req.p = static_cast<int>(o.getInt("p", 32));
        req.m = req.op == machine::Coll::Barrier ? 0
                                                 : o.getInt("m", 1024);
        req.has_m = true;
        std::string tier = o.get("tier", "auto");
        if (tier == "auto")
            req.tier = serve::TierChoice::Auto;
        else if (tier == "fast")
            req.tier = serve::TierChoice::Fast;
        else if (tier == "exact")
            req.tier = serve::TierChoice::Exact;
        else
            fatal("--tier wants auto, fast, or exact, got '%s'",
                  tier.c_str());
        req.wait = o.has("ticket") ? serve::WaitMode::Ticket
                                   : serve::WaitMode::Block;
        long long deadline = o.getInt("deadline-ms", 0);
        if (deadline < 0)
            fatal("--deadline-ms wants >= 0, got %lld", deadline);
        req.deadline_ms = static_cast<int>(deadline);
    }

    serve::Client client;
    client.connect(resolveQueryPort(o));
    std::string resp = client.request(req);
    std::printf("%s\n", resp.c_str());

    // Scripted callers get the daemon-side error family as the exit
    // code, exactly as if the failure had happened locally.
    if (resp.rfind("{\"status\":\"error\"", 0) == 0) {
        std::size_t at = resp.find("\"exit_code\":");
        int code = kUserExit;
        if (at != std::string::npos)
            code = std::atoi(resp.c_str() + at + 12);
        return code > 0 ? code : kUserExit;
    }
    return 0;
}

int
cmdDumpConfig(int argc, char **argv)
{
    cli::Options o("ccsim dump-config");
    addMachineOpts(o);
    o.parse(argc, argv, 2);
    machine::saveConfig(resolveMachine(o), std::cout);
    return 0;
}

int
run(int argc, char **argv)
{
    struct Subcommand
    {
        const char *name;
        int (*entry)(int, char **);
    };
    static const Subcommand kCommands[] = {
        {"machines", [](int, char **) { return cmdMachines(); }},
        {"measure", cmdMeasure},
        {"sweep", cmdSweep},
        {"stats", cmdStats},
        {"pingpong", cmdPingPong},
        {"replay", cmdReplay},
        {"tune", cmdTune},
        {"serve", cmdServe},
        {"query", cmdQuery},
        {"dump-config", cmdDumpConfig},
    };

    std::string all;
    std::vector<std::string> names;
    for (const Subcommand &c : kCommands) {
        names.push_back(c.name);
        if (!all.empty())
            all += ", ";
        all += c.name;
    }

    const std::string usage =
        "usage: ccsim <command> [options]\ncommands: " + all;
    if (argc < 2)
        fatal("%s", usage.c_str());
    std::string command = argv[1];
    if (command == "--help" || command == "-h" || command == "help") {
        std::printf("%s\n'ccsim <command> --help' lists a command's "
                    "options\n",
                    usage.c_str());
        return 0;
    }
    for (const Subcommand &c : kCommands)
        if (command == c.name)
            return c.entry(argc, argv);
    std::string hint = cli::closestMatch(command, names);
    if (!hint.empty())
        fatal("unknown command '%s' (did you mean '%s'?)\ncommands: "
              "%s", command.c_str(), hint.c_str(), all.c_str());
    fatal("unknown command '%s'\ncommands: %s", command.c_str(),
          all.c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    quietLogging(true);
    // Every failure funnels through the ccsim::Error hierarchy; the
    // exit code identifies the family (1 user error, 3 trace parse,
    // 4 fault, 5 config, 70 internal bug).
    throwOnError(true);
    try {
        return run(argc, argv);
    } catch (const Error &e) {
        std::fprintf(stderr, "%s\n", e.formatted().c_str());
        return e.exitCode();
    }
}

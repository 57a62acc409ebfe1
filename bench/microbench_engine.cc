/**
 * @file
 * google-benchmark microbenchmarks of the simulation engine itself:
 * event-queue throughput, callback allocation (inline vs heap
 * SmallFn storage), coroutine spawn/switch cost, network routing
 * cost (route-cache hit vs miss), the memo-key cost of one point, and
 * end-to-end cost of simulating one collective.  These bound how large a sweep the figure benches
 * can afford.
 *
 * After the registered benchmarks run, main() executes one
 * representative parallel sweep and writes its throughput to
 * BENCH_sweep.json (points, wall seconds, points/sec, jobs) so CI
 * can track sweep-engine performance across commits.
 */

#include <cstdio>
#include <string>

#include <benchmark/benchmark.h>

#include "harness/measure.hh"
#include "harness/sweep.hh"
#include "machine/machine.hh"
#include "mpi/comm.hh"
#include "net/dragonfly.hh"
#include "net/fat_tree.hh"
#include "net/mesh2d.hh"
#include "net/network.hh"
#include "net/omega.hh"
#include "net/torus3d.hh"
#include "sim/simulator.hh"

namespace {

using namespace ccsim;
using namespace ccsim::time_literals;

void
BM_EventQueueScheduleRun(benchmark::State &state)
{
    const int n = static_cast<int>(state.range(0));
    for (auto _ : state) {
        sim::EventQueue q;
        int sink = 0;
        for (int i = 0; i < n; ++i)
            q.schedule(i % 977, [&sink] { ++sink; });
        while (!q.empty())
            q.runNext();
        benchmark::DoNotOptimize(sink);
    }
    state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_EventQueueScheduleRun)->Arg(1024)->Arg(65536);

/** Callback allocation cost when the capture fits SmallFn's inline
 *  buffer — the common case for simulator-internal events. */
void
BM_EventScheduleSmallCapture(benchmark::State &state)
{
    const int n = 4096;
    for (auto _ : state) {
        sim::EventQueue q;
        long sink = 0;
        for (int i = 0; i < n; ++i)
            q.schedule(i, [&sink, i] { sink += i; });
        while (!q.empty())
            q.runNext();
        benchmark::DoNotOptimize(sink);
    }
    state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_EventScheduleSmallCapture);

/** Same loop with a capture too large for the inline buffer: every
 *  schedule() pays a heap allocation (the SmallFn fallback path). */
void
BM_EventScheduleLargeCapture(benchmark::State &state)
{
    const int n = 4096;
    struct Pad
    {
        char bytes[2 * sim::SmallFn::kInlineBytes] = {};
    };
    for (auto _ : state) {
        sim::EventQueue q;
        long sink = 0;
        for (int i = 0; i < n; ++i)
            q.schedule(i, [&sink, i, pad = Pad{}] {
                sink += i + pad.bytes[0];
            });
        while (!q.empty())
            q.runNext();
        benchmark::DoNotOptimize(sink);
    }
    state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_EventScheduleLargeCapture);

void
BM_CoroutineSpawnResume(benchmark::State &state)
{
    const int n = static_cast<int>(state.range(0));
    for (auto _ : state) {
        sim::Simulator s;
        auto prog = [&s]() -> sim::Task<void> {
            for (int i = 0; i < 8; ++i)
                co_await s.delay(1 * NS);
        };
        for (int i = 0; i < n; ++i)
            s.spawn(prog());
        s.run();
    }
    state.SetItemsProcessed(state.iterations() * n * 8);
}
BENCHMARK(BM_CoroutineSpawnResume)->Arg(64)->Arg(1024);

template <typename Topo, typename... Args>
void
routeAllPairs(benchmark::State &state, Args... args)
{
    Topo topo(args...);
    for (auto _ : state) {
        for (int s = 0; s < topo.numNodes(); ++s) {
            for (int d = 0; d < topo.numNodes(); ++d) {
                if (s == d)
                    continue;
                net::LinkId last = net::kNoLink;
                topo.forEachLink(s, d,
                                 [&](net::LinkId l) { last = l; });
                benchmark::DoNotOptimize(last);
            }
        }
    }
    state.SetItemsProcessed(state.iterations() * topo.numNodes() *
                            (topo.numNodes() - 1));
}

void
BM_RouteMesh2D(benchmark::State &state)
{
    routeAllPairs<net::Mesh2D>(state, 8, 8);
}
BENCHMARK(BM_RouteMesh2D);

void
BM_RouteTorus3D(benchmark::State &state)
{
    routeAllPairs<net::Torus3D>(state, 4, 4, 4);
}
BENCHMARK(BM_RouteTorus3D);

void
BM_RouteOmega(benchmark::State &state)
{
    routeAllPairs<net::Omega>(state, 64, 4);
}
BENCHMARK(BM_RouteOmega);

/** All-pairs walk over a topology built by a factory helper. */
void
routeAllPairsOf(benchmark::State &state, const net::Topology &topo)
{
    for (auto _ : state) {
        for (int s = 0; s < topo.numNodes(); ++s) {
            for (int d = 0; d < topo.numNodes(); ++d) {
                if (s == d)
                    continue;
                net::LinkId last = net::kNoLink;
                topo.forEachLink(s, d,
                                 [&](net::LinkId l) { last = l; });
                benchmark::DoNotOptimize(last);
            }
        }
    }
    state.SetItemsProcessed(state.iterations() * topo.numNodes() *
                            (topo.numNodes() - 1));
}

void
BM_RouteFatTree(benchmark::State &state)
{
    auto topo = net::FatTree::balancedFor(64);
    routeAllPairsOf(state, *topo);
}
BENCHMARK(BM_RouteFatTree);

void
BM_RouteDragonfly(benchmark::State &state)
{
    auto topo = net::Dragonfly::balancedFor(64);
    routeAllPairsOf(state, *topo);
}
BENCHMARK(BM_RouteDragonfly);

void
BM_NetworkTransfer(benchmark::State &state)
{
    net::NetworkParams np;
    np.link_bandwidth_mbs = 300;
    np.hop_latency = 20 * NS;
    net::Network net(std::make_unique<net::Torus3D>(4, 4, 4), np);
    Time now = 0;
    for (auto _ : state) {
        for (int s = 0; s < 64; ++s)
            now = std::max(now,
                           net.transfer(s, (s + 17) % 64, 4096, now));
        benchmark::DoNotOptimize(now);
    }
    state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_NetworkTransfer);

/** Steady-state transfers on warm link occupancy (routes are always
 *  computed analytically; there is no route cache to hit). */
void
BM_NetworkTransferSteady(benchmark::State &state)
{
    net::NetworkParams np;
    np.link_bandwidth_mbs = 300;
    np.hop_latency = 20 * NS;
    net::Network net(std::make_unique<net::Torus3D>(4, 4, 4), np);
    for (int s = 0; s < 64; ++s) // warm the occupancy state
        net.transfer(s, (s + 17) % 64, 4096, 0);
    Time now = 0;
    for (auto _ : state) {
        for (int s = 0; s < 64; ++s)
            now = std::max(now,
                           net.transfer(s, (s + 17) % 64, 4096, now));
        benchmark::DoNotOptimize(now);
    }
    state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_NetworkTransferSteady);

/** Cold-state transfers: reset() drops the lazy occupancy pages
 *  each round, so every transfer re-materializes its links. */
void
BM_NetworkTransferColdReset(benchmark::State &state)
{
    net::NetworkParams np;
    np.link_bandwidth_mbs = 300;
    np.hop_latency = 20 * NS;
    net::Network net(std::make_unique<net::Torus3D>(4, 4, 4), np);
    for (auto _ : state) {
        net.reset();
        Time now = 0;
        for (int s = 0; s < 64; ++s)
            now = std::max(now,
                           net.transfer(s, (s + 17) % 64, 4096, now));
        benchmark::DoNotOptimize(now);
    }
    state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_NetworkTransferColdReset);

void
BM_SimulateCollective(benchmark::State &state)
{
    const int p = static_cast<int>(state.range(0));
    for (auto _ : state) {
        auto meas = harness::measureCollective(
            machine::t3dConfig(), p, machine::Coll::Alltoall, 1024,
            machine::Algo::Default, harness::MeasureOptions{1, 1, 0});
        benchmark::DoNotOptimize(meas.max_time);
    }
    state.SetItemsProcessed(state.iterations() * p * (p - 1));
}
BENCHMARK(BM_SimulateCollective)->Arg(8)->Arg(32);

/** The memo / serve-cache key of one paper point: paid on every memo
 *  lookup and every `ccsim serve` request, so its cost is the floor of
 *  a warm sweep point and of a cache-hit query. */
void
BM_MeasurePointKey(benchmark::State &state)
{
    const machine::MachineConfig cfg = machine::sp2Config();
    for (auto _ : state) {
        std::string key = harness::measurePointKey(
            cfg, 64, machine::Coll::Bcast, 4096, machine::Algo::Auto);
        benchmark::DoNotOptimize(key.data());
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MeasurePointKey);

/** Same collective with the metrics registry live — the pair bounds
 *  the observability layer's overhead (CI guards the disabled side
 *  against regression, see .github/workflows/ci.yml). */
void
BM_SimulateCollectiveMetrics(benchmark::State &state)
{
    const int p = static_cast<int>(state.range(0));
    harness::MeasureOptions mo{1, 1, 0};
    mo.metrics = true;
    for (auto _ : state) {
        auto meas = harness::measureCollective(
            machine::t3dConfig(), p, machine::Coll::Alltoall, 1024,
            machine::Algo::Default, mo);
        benchmark::DoNotOptimize(meas.max_time);
    }
    state.SetItemsProcessed(state.iterations() * p * (p - 1));
}
BENCHMARK(BM_SimulateCollectiveMetrics)->Arg(8)->Arg(32);

/** Same-recipe throughput measured at the growth-seed commit (binary
 *  heap + make_shared + no memoization): median of five runs of this
 *  file's recipe against the seed build on the reference container
 *  (single core, so jobs=1 and jobs=N coincide).  Kept for the
 *  trajectory block in BENCH_sweep.json. */
constexpr double kSeedJobs1PointsPerSec = 1334.0;
constexpr double kSeedJobsNPointsPerSec = 1334.0;

/**
 * The sweep-engine throughput benchmark behind BENCH_sweep.json.
 *
 * Recipe (fixed — CI compares points/sec across commits): the paper's
 * three machines x {bcast, barrier, allreduce, alltoall} x
 * p in {4, 8, 16, 32} x m in {64, 1 KiB, 16 KiB}, one warm-up call
 * and 2x1 timed iterations per point (300 points total), faults,
 * skew, and metrics all off.  Three passes, memo cache cleared before
 * the cold ones:
 *
 *   jobs1      cold cache, serial    — the CI-guarded number
 *   jobsN      cold cache, all cores — parallel-engine health
 *   warm_memo  jobs=1, warm cache    — memoization-layer ceiling
 *
 * The "before" block is the same recipe measured at the growth-seed
 * commit (pre pooling/calendar-queue/memoization), kept so the file
 * records the optimization trajectory.
 */
void
emitSweepThroughput()
{
    harness::SweepSpec spec;
    spec.machines = {machine::t3dConfig(), machine::sp2Config(),
                     machine::paragonConfig()};
    spec.ops = {machine::Coll::Bcast, machine::Coll::Barrier,
                machine::Coll::Allreduce, machine::Coll::Alltoall};
    spec.sizes = {4, 8, 16, 32};
    spec.lengths = {64, 1024, 16 * 1024};
    spec.options = harness::MeasureOptions{2, 1, 1};

    harness::memoClear();
    harness::SweepRunner serial(1);
    serial.run(spec);
    harness::SweepRunner::Stats cold1 = serial.lastStats();

    harness::memoClear();
    harness::SweepRunner parallel;
    parallel.run(spec);
    harness::SweepRunner::Stats coldN = parallel.lastStats();

    // Cache is warm from the parallel pass; rerun serially on it.
    serial.run(spec);
    harness::SweepRunner::Stats warm = serial.lastStats();

    std::FILE *f = std::fopen("BENCH_sweep.json", "w");
    if (!f) {
        std::fprintf(stderr, "cannot write BENCH_sweep.json\n");
        return;
    }
    std::fprintf(
        f,
        "{\n"
        "  \"bench\": \"sweep_engine\",\n"
        "  \"recipe\": \"3 machines x bcast,barrier,allreduce,"
        "alltoall x p=4,8,16,32 x m=64,1Ki,16Ki; k=2 reps=1 "
        "warmup=1; no faults/skew/metrics\",\n"
        "  \"points\": %zu,\n"
        "  \"jobs1\": { \"wall_seconds\": %.6f, "
        "\"points_per_sec\": %.1f },\n"
        "  \"jobsN\": { \"jobs\": %d, \"wall_seconds\": %.6f, "
        "\"points_per_sec\": %.1f },\n"
        "  \"warm_memo\": { \"wall_seconds\": %.6f, "
        "\"points_per_sec\": %.1f, \"memo_hits\": %llu },\n"
        "  \"before\": { \"commit\": \"growth seed (binary heap, "
        "make_shared, no memo)\", \"jobs1_points_per_sec\": %.1f, "
        "\"jobsN_points_per_sec\": %.1f }\n"
        "}\n",
        cold1.points, cold1.wall_seconds, cold1.pointsPerSec(),
        parallel.jobs(), coldN.wall_seconds, coldN.pointsPerSec(),
        warm.wall_seconds, warm.pointsPerSec(),
        static_cast<unsigned long long>(warm.memo_hits),
        kSeedJobs1PointsPerSec, kSeedJobsNPointsPerSec);
    std::fclose(f);
    std::fprintf(stderr,
                 "BENCH_sweep.json: %zu points | jobs=1 %.1f pt/s "
                 "(seed %.1f) | jobs=%d %.1f pt/s | warm memo %.1f "
                 "pt/s (%llu hits)\n",
                 cold1.points, cold1.pointsPerSec(),
                 kSeedJobs1PointsPerSec, parallel.jobs(),
                 coldN.pointsPerSec(), warm.pointsPerSec(),
                 static_cast<unsigned long long>(warm.memo_hits));
}

} // namespace

int
main(int argc, char **argv)
{
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    emitSweepThroughput();
    return 0;
}

/**
 * @file
 * google-benchmark microbenchmarks of the simulation engine itself:
 * event-queue throughput, callback storage (a recycled queue slot
 * holding an inline or heap SmallFn), coroutine spawn/switch cost,
 * network transfer
 * cost (warm vs cold link occupancy, analytic route walks), the
 * memo-key cost of one point, and the end-to-end cost of simulating
 * one collective with metrics off and on.  Host speed of record comes
 * from bench/perf; these isolate one piece each.
 */

#include <string>

#include <benchmark/benchmark.h>

#include "harness/measure.hh"
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

/** The shape of a p = 16384 dissemination round: every rank's event
 *  at one instant, each rescheduling itself once, 1 us later, for 8
 *  rounds.  Lockstep collectives pile events onto few instants like
 *  this; the spread-out case above does not. */
void
BM_EventQueueLockstepRounds(benchmark::State &state)
{
    constexpr int kRanks = 16384;
    constexpr int kRounds = 8;
    struct Step
    {
        sim::EventQueue *q;
        int rounds_left;

        void
        operator()() const
        {
            if (rounds_left > 1)
                q->schedule(q->lastFired() + 1 * US,
                            Step{q, rounds_left - 1});
        }
    };
    for (auto _ : state) {
        sim::EventQueue q;
        for (int r = 0; r < kRanks; ++r)
            q.schedule(1 * US, Step{&q, kRounds});
        while (!q.empty())
            q.runNext();
        benchmark::DoNotOptimize(q.fired());
    }
    state.SetItemsProcessed(state.iterations() * kRanks * kRounds);
}
BENCHMARK(BM_EventQueueLockstepRounds);

/** Callback cost when the capture fits SmallFn's inline buffer —
 *  the common case for simulator-internal callbacks.  The SmallFn
 *  sits in a slot the queue recycles, so after the first wave a
 *  schedule() allocates nothing; coroutine resumes need no slot at
 *  all (the event holds the handle). */
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
 *  schedule() pays a heap allocation (the SmallFn fallback path),
 *  though its queue slot is still recycled. */
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

} // namespace

BENCHMARK_MAIN();

/**
 * @file
 * Extension experiment: active messages under MPI collectives — the
 * research the paper's conclusions call for ("We suggest extended
 * research be conducted in evaluating the use of active messages or
 * fast messages in MPI applications").
 *
 * For each machine model, the barrier / broadcast / reduce startup
 * latencies of the vendor-MPI implementation are compared against
 * the same tree algorithms built on an active-message layer (no
 * envelope matching, no buffering, handler-side forwarding), with
 * overheads set to a third of the MPI per-message software cost.
 * The punchline: the software gap closes dramatically — but the
 * T3D's hardwired barrier still beats everything, because no
 * software layer can beat a wire.
 */

#include <algorithm>
#include <cstdio>
#include <iostream>

#include "am/am_collectives.hh"
#include "bench_common.hh"

using namespace ccsim;
using namespace ccsim::bench;

namespace {

/** AM collective startup time, measured like the Section 2 loop. */
double
amStartupUs(const machine::MachineConfig &cfg, int p,
            machine::Coll op)
{
    machine::Machine m(cfg, p);
    am::AmWorld world(m, am::amParamsFor(cfg));
    // communication-time = max over ranks of the per-rank mean, as
    // in the Section 2 procedure (the root of a fire-and-forget
    // broadcast finishes early; the last leaf defines the time).
    Time elapsed = 0;
    const int iters = 3;
    auto prog = [&](int rank) -> sim::Task<void> {
        co_await world.barrier(rank); // warm-up / alignment
        Time start = m.sim().now();
        for (int i = 0; i < iters; ++i) {
            switch (op) {
              case machine::Coll::Barrier:
                co_await world.barrier(rank);
                break;
              case machine::Coll::Bcast:
                co_await world.bcast(rank, 4, 0, nullptr);
                break;
              case machine::Coll::Reduce:
                co_await world.reduce(rank, 4, 0, nullptr);
                break;
              default:
                fatal("amStartupUs: unsupported op");
            }
        }
        elapsed = std::max(elapsed, (m.sim().now() - start) / iters);
    };
    for (int r = 0; r < p; ++r)
        m.sim().spawn(prog(r));
    m.run();
    return toMicros(elapsed);
}

} // namespace

int
main(int argc, char **argv)
{
    BenchOptions opts = BenchOptions::parse(argc, argv);
    quietLogging(true);

    printBanner("EXTENSION — active messages vs MPI collectives",
                "Startup latencies [us] with vendor MPI vs an "
                "active-message layer.");

    auto mopt = harness::MeasureOptions::sweep();
    std::vector<int> sizes = opts.quick
                                 ? std::vector<int>{4, 16}
                                 : std::vector<int>{4, 16, 64};

    for (machine::Coll op : {machine::Coll::Barrier,
                             machine::Coll::Bcast,
                             machine::Coll::Reduce}) {
        std::printf("--- %s ---\n", machine::collName(op).c_str());
        TableWriter t;
        t.header({"p", "SP2 MPI", "SP2 AM", "T3D MPI", "T3D AM",
                  "T3D hw", "Paragon MPI", "Paragon AM"});
        for (int p : sizes) {
            std::vector<std::string> row{std::to_string(p)};
            for (const auto &base : machine::paperMachines()) {
                auto sw_cfg = base;
                if (sw_cfg.hardware_barrier) {
                    sw_cfg.hardware_barrier = false;
                    sw_cfg.setAlgorithm(machine::Coll::Barrier,
                                        machine::Algo::Dissemination);
                    sw_cfg.costsFor(machine::Coll::Barrier).per_stage =
                        microseconds(40);
                }
                auto mpi_meas = harness::measureStartup(
                    sw_cfg, p, op, machine::Algo::Default, mopt);
                row.push_back(usCell(mpi_meas.us()));
                row.push_back(usCell(amStartupUs(sw_cfg, p, op)));
                if (base.name == "T3D") {
                    if (op == machine::Coll::Barrier) {
                        auto hw = harness::measureStartup(
                            base, p, op, machine::Algo::Default, mopt);
                        row.push_back(usCell(hw.us()));
                    } else {
                        row.push_back("-");
                    }
                }
            }
            t.row(row);
        }
        t.print(std::cout);
        std::printf("\n");
    }
    std::printf("Reading: active messages strip most of the software "
                "startup the paper\nmeasured — yet the T3D's "
                "hardwired barrier column still wins, which is\nthe "
                "paper's own conclusion about hardware support.\n");
    return 0;
}

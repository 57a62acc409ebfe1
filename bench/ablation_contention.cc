/**
 * @file
 * Ablation: network link contention and topology.
 *
 * Total exchange is the bisection-bandwidth stress test of the
 * paper's evaluation.  This bench shows (1) how much of the measured
 * total-exchange time is link contention, by disabling the
 * path-reservation occupancy model, and (2) how the three
 * topologies (omega, torus, mesh) compare when every *other*
 * parameter is identical — isolating the wiring from the software.
 */

#include <cstdio>
#include <iostream>

#include "bench_common.hh"

using namespace ccsim;
using namespace ccsim::bench;

int
main(int argc, char **argv)
{
    BenchOptions opts = BenchOptions::parse(argc, argv);
    quietLogging(true);

    printBanner("ABLATION — link contention and topology",
                "Total exchange with the occupancy model on/off, and "
                "across topologies.");

    const Bytes m = opts.quick ? 4 * KiB : 64 * KiB;
    std::vector<int> sizes = opts.quick
                                 ? std::vector<int>{8, 16}
                                 : std::vector<int>{16, 32, 64};

    // Declare every point of both panels up front; tags separate the
    // contention-off variants from the stock machines (same name).
    SweepSession sweep(opts, harness::MeasureOptions::sweep());
    auto makeTopo = [](const std::string &spec,
                       const std::string &name) {
        auto cfg = machine::t3dConfig();
        cfg.name = name;
        cfg.topology = spec;
        cfg.hardware_barrier = false;
        cfg.setAlgorithm(machine::Coll::Barrier,
                         machine::Algo::Dissemination);
        return cfg;
    };
    std::vector<machine::MachineConfig> topo_cfgs = {
        makeTopo("mesh2d", "mesh2d"),
        makeTopo("torus3d", "torus3d"),
        makeTopo("omega", "omega r4"),
        makeTopo("hypercube", "hypercube"),
        makeTopo("fully-connected", "crossbar"),
    };
    for (const auto &base : machine::paperMachines()) {
        auto off_cfg = base;
        off_cfg.network.contention = false;
        for (int p : sizes) {
            sweep.add(base, p, machine::Coll::Alltoall, m,
                      machine::Algo::Default, "on");
            sweep.add(off_cfg, p, machine::Coll::Alltoall, m,
                      machine::Algo::Default, "off");
        }
    }
    for (const auto &c : topo_cfgs)
        for (int p : sizes)
            sweep.add(c, p, machine::Coll::Alltoall, m);
    sweep.run();

    {
        std::printf("--- contention on/off: 64 KB total exchange [us] "
                    "---\n");
        TableWriter t;
        t.header({"machine", "p", "contended", "contention-free",
                  "inflation", "hottest link"});
        for (const auto &base : machine::paperMachines()) {
            for (int p : sizes) {
                const auto &on =
                    sweep.get(base, p, machine::Coll::Alltoall, m,
                              machine::Algo::Default, "on");
                const auto &off =
                    sweep.get(base, p, machine::Coll::Alltoall, m,
                              machine::Algo::Default, "off");
                double infl =
                    off.us() > 0 ? on.us() / off.us() : 0.0;

                // Re-run one call with the machine kept alive to read
                // the link-utilization summary.
                machine::Machine live(base, p);
                auto prog = [&](int rank) -> sim::Task<void> {
                    mpi::Comm comm(live, rank);
                    co_await comm.alltoall(m);
                };
                for (int r = 0; r < p; ++r)
                    live.sim().spawn(prog(r));
                live.run();
                auto util = live.network().utilization(
                    live.sim().now());

                t.row({base.name, std::to_string(p), usCell(on.us()),
                       usCell(off.us()), formatF(infl, 2) + "x",
                       formatF(util.max * 100.0, 0) + "% busy"});
            }
        }
        t.print(std::cout);
        std::printf("\n");
    }

    {
        std::printf("--- topology shoot-out (identical node software, "
                    "300 MB/s links) ---\n");
        TableWriter t;
        std::vector<std::string> hdr{"p"};
        for (const auto &c : topo_cfgs)
            hdr.push_back(c.name);
        t.header(hdr);
        for (int p : sizes) {
            std::vector<std::string> row{std::to_string(p)};
            for (const auto &c : topo_cfgs)
                row.push_back(usCell(
                    sweep.get(c, p, machine::Coll::Alltoall, m).us()));
            t.row(row);
        }
        t.print(std::cout);
        std::printf("(64 KB total exchange [us]; lower is better — "
                    "the mesh saturates first,\nthe crossbar bounds "
                    "what zero contention would give)\n\n");
    }
    return 0;
}

/**
 * @file
 * Figure 4 reproduction: breakdown of the collective messaging time
 * into startup latency (dark bar) and transmission delay (white bar)
 * for six operations on p = 32 nodes with m = 1 KB messages.
 *
 * T0 is measured with the short-message approximation (Section 3);
 * the transmission delay is D = T(1 KB, 32) - T0(32).  The paper's
 * observations: total exchange is the most expensive everywhere;
 * the Paragon's total-exchange and gather latencies (3857 us and
 * 2918 us measured) dwarf the SP2/T3D counterparts; the T3D has the
 * lowest startup in broadcast, gather, and reduce.
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
    quietLogging(opts.csv_dir.empty());

    printBanner("FIGURE 4 — Startup vs transmission breakdown "
                "[microseconds]",
                "Six collectives, p = 32, m = 1 KB.");

    const std::array<machine::Coll, 6> ops = {
        machine::Coll::Bcast,  machine::Coll::Alltoall,
        machine::Coll::Scatter, machine::Coll::Gather,
        machine::Coll::Scan,   machine::Coll::Reduce,
    };
    const char panel[] = {'a', 'b', 'c', 'd', 'e', 'f'};
    const int p = opts.quick ? 8 : 32;
    const Bytes m = 1 * KiB;

    auto machines = machine::paperMachines();

    SweepSession sweep(opts, harness::MeasureOptions::sweep());
    for (machine::Coll op : ops) {
        for (const auto &cfg : machines) {
            sweep.addStartup(cfg, p, op);
            sweep.add(cfg, p, op, m);
        }
    }
    sweep.run();

    std::vector<std::vector<std::string>> csv_rows;
    for (std::size_t oi = 0; oi < ops.size(); ++oi) {
        machine::Coll op = ops[oi];
        std::printf("--- Fig. 4%c: %s (p = %d, m = %s) ---\n",
                    panel[oi], machine::collName(op).c_str(), p,
                    formatBytes(m).c_str());

        TableWriter t;
        t.header({"machine", "T0 (startup)", "D (transmission)",
                  "T total", "startup %", "paper T"});
        for (const auto &cfg : machines) {
            const auto &t0 = sweep.getStartup(cfg, p, op);
            const auto &tt = sweep.get(cfg, p, op, m);
            double t0_us = t0.us();
            double total_us = tt.us();
            double d_us = total_us - t0_us;
            double frac = total_us > 0 ? 100.0 * t0_us / total_us : 0;
            t.row({cfg.name, usCell(t0_us), usCell(d_us),
                   usCell(total_us), formatF(frac, 1),
                   paperUsCell(cfg.name, op, m, p)});
            csv_rows.push_back({machine::collName(op), cfg.name,
                                usCell(t0_us), usCell(d_us),
                                usCell(total_us)});
        }
        t.print(std::cout);
        std::printf("\n");
    }
    maybeWriteCsv(opts, "fig4_breakdown",
                  {"op", "machine", "t0_us", "d_us", "total_us"},
                  csv_rows);
    return 0;
}

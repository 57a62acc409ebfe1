/**
 * @file
 * Figure 2 reproduction: collective messaging times T(m, 32) of six
 * MPI collectives as a function of message length, m = 4 B .. 64 KB,
 * on 32 nodes of the SP2, T3D, and Paragon.
 *
 * The paper's headline observations to look for in the output:
 *  - times grow slowly below ~1 KB (startup-dominated), then almost
 *    linearly in m (transmission-dominated);
 *  - the T3D is fastest everywhere except scan, where the Paragon
 *    wins (Fig. 2e);
 *  - the Paragon overtakes the SP2 for long messages in broadcast,
 *    total exchange, scatter, gather (the short/long crossover);
 *  - for long reduce the SP2 is competitive (Fig. 2f).
 */

#include <algorithm>
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

    printBanner("FIGURE 2 — Messaging time T(m, p=32) vs message "
                "length [microseconds]",
                "Six collectives, m = 4 B .. 64 KB on 32 nodes.");

    const std::array<machine::Coll, 6> ops = {
        machine::Coll::Bcast,  machine::Coll::Alltoall,
        machine::Coll::Scatter, machine::Coll::Gather,
        machine::Coll::Scan,   machine::Coll::Reduce,
    };
    const char panel[] = {'a', 'b', 'c', 'd', 'e', 'f'};
    const int p = opts.quick ? 8 : 32;

    auto machines = machine::paperMachines();

    SweepSession sweep(opts, harness::MeasureOptions::sweep());
    for (machine::Coll op : ops)
        for (Bytes m : sweepLengths(opts.quick))
            for (const auto &cfg : machines)
                sweep.add(cfg, p, op, m);
    sweep.run();

    for (std::size_t oi = 0; oi < ops.size(); ++oi) {
        machine::Coll op = ops[oi];
        std::printf("--- Fig. 2%c: %s (p = %d) ---\n", panel[oi],
                    machine::collName(op).c_str(), p);

        TableWriter t;
        t.header({"m", "SP2 sim", "SP2 paper", "T3D sim", "T3D paper",
                  "Paragon sim", "Paragon paper"});
        std::vector<std::vector<std::string>> csv_rows;

        for (Bytes m : sweepLengths(opts.quick)) {
            std::vector<std::string> row{formatBytes(m)};
            std::vector<std::string> csv{std::to_string(m)};
            for (const auto &cfg : machines) {
                const auto &meas = sweep.get(cfg, p, op, m);
                row.push_back(usCell(meas.us()));
                row.push_back(paperUsCell(cfg.name, op, m, p));
                csv.push_back(usCell(meas.us()));
            }
            t.row(row);
            csv_rows.push_back(csv);
        }
        t.print(std::cout);
        std::printf("\n");
        std::string slug = machine::collName(op);
        std::replace(slug.begin(), slug.end(), ' ', '_');
        maybeWriteCsv(opts, "fig2_" + slug,
                      {"m_bytes", "sp2_us", "t3d_us", "paragon_us"},
                      csv_rows);
    }
    return 0;
}

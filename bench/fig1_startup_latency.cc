/**
 * @file
 * Figure 1 reproduction: startup latencies T0(p) of six MPI
 * collective operations (broadcast, total exchange, scatter, gather,
 * scan, reduce) on the SP2, T3D, and Paragon, p = 2..128 (T3D up to
 * 64).  T0 is approximated by the messaging time of a short (4-byte)
 * message, per the paper's Section 3.
 *
 * Output: one panel per operation; rows are machine sizes, columns
 * are measured [sim] vs the paper's Table 3 prediction [paper] for
 * each machine.
 */

#include <algorithm>
#include <cstdio>
#include <iostream>

#include "bench_common.hh"
#include "machine/machine_config.hh"
#include "util/table.hh"

using namespace ccsim;
using namespace ccsim::bench;

int
main(int argc, char **argv)
{
    BenchOptions opts = BenchOptions::parse(argc, argv);
    quietLogging(!opts.csv_dir.empty() ? false : true);

    printBanner("FIGURE 1 — Startup latencies T0(p) [microseconds]",
                "Six collectives, short message (m = 4 B), machine "
                "sizes 2..128.");

    const std::array<machine::Coll, 6> ops = {
        machine::Coll::Bcast,  machine::Coll::Alltoall,
        machine::Coll::Scatter, machine::Coll::Gather,
        machine::Coll::Scan,   machine::Coll::Reduce,
    };
    const char panel[] = {'a', 'b', 'c', 'd', 'e', 'f'};

    auto machines = machine::paperMachines();

    // Declare every (op, p, machine) point, then simulate them all
    // on the sweep worker pool before any printing.
    SweepSession sweep(opts, harness::MeasureOptions::sweep());
    for (machine::Coll op : ops)
        for (const auto &cfg : machines)
            for (int p : sweepSizes(cfg.name, opts.quick))
                sweep.addStartup(cfg, p, op);
    sweep.run();

    for (std::size_t oi = 0; oi < ops.size(); ++oi) {
        machine::Coll op = ops[oi];
        std::printf("--- Fig. 1%c: %s ---\n", panel[oi],
                    machine::collName(op).c_str());

        TableWriter t;
        t.header({"p", "SP2 sim", "SP2 paper", "T3D sim", "T3D paper",
                  "Paragon sim", "Paragon paper"});
        std::vector<std::vector<std::string>> csv_rows;

        for (int p : sweepSizes("SP2", opts.quick)) {
            std::vector<std::string> row{std::to_string(p)};
            std::vector<std::string> csv{std::to_string(p)};
            for (const auto &cfg : machines) {
                auto sizes = sweepSizes(cfg.name, opts.quick);
                bool in_range =
                    std::find(sizes.begin(), sizes.end(), p) !=
                    sizes.end();
                if (!in_range) {
                    row.push_back("-");
                    row.push_back("-");
                    csv.push_back("");
                    continue;
                }
                const auto &meas = sweep.getStartup(cfg, p, op);
                row.push_back(usCell(meas.us()));
                row.push_back(paperUsCell(cfg.name, op,
                                          harness::kStartupMessageBytes,
                                          p));
                csv.push_back(usCell(meas.us()));
            }
            t.row(row);
            csv_rows.push_back(csv);
        }
        t.print(std::cout);
        std::printf("\n");
        std::string slug = machine::collName(op);
        std::replace(slug.begin(), slug.end(), ' ', '_');
        maybeWriteCsv(opts, "fig1_" + slug,
                      {"p", "sp2_us", "t3d_us", "paragon_us"}, csv_rows);
    }
    return 0;
}

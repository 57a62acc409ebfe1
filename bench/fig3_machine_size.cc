/**
 * @file
 * Figure 3 reproduction: collective messaging times T(m, p) as a
 * function of machine size p, for short messages (m = 16 B) and long
 * messages (m = 64 KB), for all seven operations (a: broadcast,
 * b: total exchange, c: scatter, d: gather, e: scan, f: reduce,
 * g: barrier — barrier has no message, one curve set).
 *
 * Headline shapes from the paper:
 *  - short-message curves track the startup latencies of Fig. 1;
 *  - long-message time grows near-linearly with p;
 *  - Fig. 3f's dramatic re-ranking: SP2 best for long reduce but
 *    worst for short; T3D best short;
 *  - Fig. 3g: the T3D hardware barrier sits orders of magnitude
 *    below the SP2/Paragon software barriers.
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

    printBanner("FIGURE 3 — Messaging time T(m, p) vs machine size "
                "[microseconds]",
                "Seven collectives; short (16 B) and long (64 KB) "
                "messages; p = 2..128.");

    struct Panel
    {
        char id;
        machine::Coll op;
    };
    const Panel panels[] = {
        {'a', machine::Coll::Bcast},   {'b', machine::Coll::Alltoall},
        {'c', machine::Coll::Scatter}, {'d', machine::Coll::Gather},
        {'e', machine::Coll::Scan},    {'f', machine::Coll::Reduce},
        {'g', machine::Coll::Barrier},
    };
    const Bytes short_m = 16;
    const Bytes long_m = opts.quick ? 4 * KiB : 64 * KiB;

    auto machines = machine::paperMachines();

    SweepSession sweep(opts, harness::MeasureOptions::sweep());
    for (const Panel &panel : panels) {
        bool barrier = panel.op == machine::Coll::Barrier;
        std::vector<Bytes> lengths =
            barrier ? std::vector<Bytes>{0}
                    : std::vector<Bytes>{short_m, long_m};
        for (Bytes m : lengths)
            for (const auto &cfg : machines)
                for (int p : sweepSizes(cfg.name, opts.quick))
                    sweep.add(cfg, p, panel.op, m);
    }
    sweep.run();

    for (const Panel &panel : panels) {
        bool barrier = panel.op == machine::Coll::Barrier;
        std::printf("--- Fig. 3%c: %s ---\n", panel.id,
                    machine::collName(panel.op).c_str());

        std::vector<Bytes> lengths =
            barrier ? std::vector<Bytes>{0}
                    : std::vector<Bytes>{short_m, long_m};
        for (Bytes m : lengths) {
            if (!barrier)
                std::printf("  message length m = %s\n",
                            formatBytes(m).c_str());
            TableWriter t;
            t.header({"p", "SP2 sim", "SP2 paper", "T3D sim",
                      "T3D paper", "Paragon sim", "Paragon paper"});
            std::vector<std::vector<std::string>> csv_rows;
            for (int p : sweepSizes("SP2", opts.quick)) {
                std::vector<std::string> row{std::to_string(p)};
                std::vector<std::string> csv{std::to_string(p)};
                for (const auto &cfg : machines) {
                    auto sizes = sweepSizes(cfg.name, opts.quick);
                    if (std::find(sizes.begin(), sizes.end(), p) ==
                        sizes.end()) {
                        row.push_back("-");
                        row.push_back("-");
                        csv.push_back("");
                        continue;
                    }
                    const auto &meas = sweep.get(cfg, p, panel.op, m);
                    row.push_back(usCell(meas.us()));
                    row.push_back(paperUsCell(cfg.name, panel.op, m, p));
                    csv.push_back(usCell(meas.us()));
                }
                t.row(row);
                csv_rows.push_back(csv);
            }
            t.print(std::cout);
            std::printf("\n");

            std::string slug = machine::collName(panel.op);
            std::replace(slug.begin(), slug.end(), ' ', '_');
            maybeWriteCsv(opts,
                          "fig3_" + slug + "_m" + std::to_string(m),
                          {"p", "sp2_us", "t3d_us", "paragon_us"},
                          csv_rows);
        }
    }
    return 0;
}

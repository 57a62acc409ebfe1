/**
 * @file
 * Point-to-point baseline: ping-pong latency/bandwidth curves and
 * Hockney (t0, r_inf, n_1/2) fits for the three machines.
 *
 * The paper notes that earlier benchmark work "mainly focused on
 * point-to-point communications" and that Hockney's asymptotic
 * model only characterizes pt-2-pt — this bench provides exactly
 * that baseline, so the collective results of Figs. 1-5 can be read
 * against what the raw channels can do.  Reference points from the
 * era: SP2 MPI latency ~40-50 us at ~35 MB/s; T3D ~20-35 us at
 * 120+ MB/s; Paragon ~60-90 us at ~150 MB/s.
 */

#include <cstdio>
#include <iostream>

#include "bench_common.hh"
#include "model/hockney.hh"

using namespace ccsim;
using namespace ccsim::bench;

int
main(int argc, char **argv)
{
    BenchOptions opts = BenchOptions::parse(argc, argv);
    quietLogging(opts.csv_dir.empty());

    printBanner("POINT-TO-POINT — ping-pong latency/bandwidth and "
                "Hockney fits",
                "One-way times between adjacent nodes; t(m) = t0 + "
                "m / r_inf.");

    auto machines = machine::paperMachines();
    auto mopt = harness::MeasureOptions::sweep();

    TableWriter t;
    t.header({"m", "SP2 us", "SP2 MB/s", "T3D us", "T3D MB/s",
              "Paragon us", "Paragon MB/s"});
    std::vector<std::vector<std::string>> csv_rows;
    std::array<std::vector<model::PingPongSample>, 3> fits;

    for (Bytes m : sweepLengths(opts.quick)) {
        std::vector<std::string> row{formatBytes(m)};
        std::vector<std::string> csv{std::to_string(m)};
        for (std::size_t i = 0; i < machines.size(); ++i) {
            auto meas = harness::measurePingPong(machines[i], m, mopt);
            double us = meas.us();
            row.push_back(usCell(us));
            row.push_back(
                formatF(us > 0 ? static_cast<double>(m) / us : 0, 1));
            csv.push_back(usCell(us));
            fits[i].push_back({m, us});
        }
        t.row(row);
        csv_rows.push_back(csv);
    }
    t.print(std::cout);
    std::printf("\n--- Hockney characterizations ---\n");
    for (std::size_t i = 0; i < machines.size(); ++i) {
        auto h = model::fitHockney(fits[i]);
        std::printf("%-8s %s\n", machines[i].name.c_str(),
                    h.str().c_str());
    }
    std::printf("\nNote how little these pt-2-pt numbers predict the "
                "collective rankings\nof Figs. 1-5 — the paper's "
                "motivation for the aggregated-bandwidth metric.\n");

    maybeWriteCsv(opts, "pingpong",
                  {"m_bytes", "sp2_us", "t3d_us", "paragon_us"},
                  csv_rows);
    return 0;
}
